package dist

import (
	"time"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/core/configmodel"
	"cmfuzz/internal/core/schedule"
	"cmfuzz/internal/fuzz"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/telemetry"
	"cmfuzz/internal/telemetry/trace"
)

// The values behind testdata/payloads_v7.bin, one per message kind. The
// file was written by the hand-written encoders that wire version 7
// shipped with, before the messages were declared as field lists, and
// it is never regenerated: it is what pins the declared fields to the
// bytes those encoders produced. Every field that travels is non-zero
// somewhere below, the Assign carries a live spec, and the lease reply
// sets all four record flags and ships a span with attributes. Version
// 11 retired Boot's resume clock and each path's states, version 12 the
// options' five cost-model fields, version 13 their Concurrency and
// version 14 their allocator, raw-weights and shared-schedules fields:
// v14Assign and v11BootReq are the fixture's values without them, and
// v7PathStates, v7ResumeClock and v7RetiredOpts what the fixture holds
// in their place.
var (
	v7Hello = hello{Name: "worker-7", Version: 7}

	v14Assign = assign{
		Campaign: 3,
		Subject:  "MQTT",
		Trace:    true,
		LiveSpec: `{"name":"echo","cmd":["/usr/bin/echo-server","-port","{port}"],"transport":"udp"}`,
		Opts: parallel.Options{
			Mode: parallel.ModeSPFuzz, Instances: 4, VirtualHours: 1.5, Seed: -42,
			SaturationWindow: 1800, SaturationMinGain: 8, DisableConfigMutation: true,
			LinkLoss: 0.01, LinkLatencyBase: 0.0002, LinkLatencyJitter: 0.0001,
		},
		Specs: []parallel.InstanceSpec{
			{
				Index:  0,
				Config: configmodel.Assignment{"tls": "on", "bridge": "off", "port": "1883"},
				Group:  schedule.Group{Members: []string{"bridge", "tls"}},
				Paths: []fuzz.Path{
					{Models: []string{"CONNECT", "PUBLISH"}},
					{Models: []string{"CONNECT"}},
				},
				EngineSeed: 7919, RngSeed: -104729,
			},
			{Index: 1, Config: configmodel.Assignment{"port": "8883"}, Group: schedule.Group{Members: []string{"port"}}, EngineSeed: 1, RngSeed: 2},
		},
	}

	v7PathStates = [][]string{{"connect", "publish"}, {"connect"}}

	v7RetiredOpts = struct {
		StepCost, ByteCost, SyncInterval, SampleEvery float64
		MaxValues, Concurrency, Allocator             int
		RawWeights, SharedSchedules                   bool
	}{StepCost: 2, ByteCost: 0.00002, SyncInterval: 600, SampleEvery: 300, MaxValues: 4, Concurrency: 3,
		Allocator: 2, RawWeights: true, SharedSchedules: true}

	v11BootReq    = bootReq{Campaign: 3, Index: 1}
	v7ResumeClock = 1234.5

	v7BootResult = bootResult{BootReport: parallel.BootReport{
		Config: "bridge=off port=1883 tls=on", StartEdges: 41, Delta: []byte{0, 1, 0, 0, 0, 0, 0, 0, 0, 9},
		Crashes: []crashRec{
			{Crash: bugs.Crash{Protocol: "MQTT", Kind: bugs.SEGV, Function: "bridge_init", Detail: "null peer"}, Instance: 1, T: 0, Config: "bridge=on"},
			{Crash: bugs.Crash{Protocol: "MQTT", Kind: bugs.MemoryLeak, Function: "tls_load", Detail: "cert"}, Instance: 1, T: 0.25, Config: "tls=on"},
		},
	}}

	v7Lease = lease{
		Campaign: 3, Index: 1, Boundary: 1200, Horizon: 5400,
		Seeds: []fuzz.Seed{
			{Msgs: [][]byte{{0x10, 0x0c}, {0x30, 0x02, 'a', 'b'}}, Gain: 5},
			{Msgs: [][]byte{nil}, Gain: 1}, // empty: decoded as a copy, it has no array
		},
	}

	// The reply's records: a bare one, then one with all four flags.
	v7Steps = []parallel.LeaseStep{
		{Step: parallel.Step{Bytes: 41}},
		{
			Step: parallel.Step{Bytes: 300, Latency: 0.00023456789012345678, NewEdges: 3,
				Crash: &bugs.Crash{Protocol: "MQTT", Kind: bugs.HeapUseAfterFree, Function: "handle_subscribe", Detail: "retained"}},
			Seed:  fuzz.Seed{Msgs: [][]byte{{0x82, 0x05}, {0xc0}}, Gain: 3},
			Delta: []byte{0, 2, 0, 0, 0, 0, 0, 0, 1, 7},
			Mutation: &parallel.MutationOutcome{
				Events: []parallel.MutEvent{
					{Type: telemetry.EvRestartFail, Entity: "tls", Value: "off", Detail: "conflict"},
					{Type: telemetry.EvMutation, Entity: "bridge", Value: "on", Config: "bridge=on"},
				},
				Mutations: 1, Boots: 2, RestartFails: 1, Fallbacks: 1,
				Crashes: []crashRec{{
					Crash:    bugs.Crash{Protocol: "MQTT", Kind: bugs.SEGV, Function: "bridge_init", Detail: "null peer"},
					Instance: 1, T: 1190.5, Config: "bridge=on",
				}},
				Config: "bridge=on port=1883 tls=on", Coverage: 345,
			},
		},
	}
	// The same records as wire version 10 carries them: the new-edges one
	// with its seed's digest, shipping the messages; then a new-edges
	// record that leaves them behind, and one that ships a seed of no
	// messages.
	v10Steps = []parallel.LeaseStep{
		v7Steps[0],
		func() parallel.LeaseStep {
			s := v7Steps[1]
			s.Digest, s.Ship = s.Seed.Digest(), true
			return s
		}(),
		{
			Step:   parallel.Step{Bytes: 64, NewEdges: 2},
			Seed:   fuzz.Seed{Gain: 2},
			Digest: fuzz.Seed{Msgs: [][]byte{{0x30, 0x07}, {0xe0, 0x00}}}.Digest(),
			Delta:  []byte{0, 2, 0, 0, 0, 0, 0, 0, 1, 7},
		},
		{Step: parallel.Step{Bytes: 0, NewEdges: 1}, Seed: fuzz.Seed{Gain: 1}, Ship: true, Delta: []byte{0, 3, 0, 0, 0, 0, 0, 0, 0, 1}},
	}
	v7SyncDue = true
	v7Spans   = []trace.Record{
		{ID: 4, Parent: -1, Track: 1, Name: "lease", Start: time.Millisecond, End: 9 * time.Millisecond,
			Attrs: []trace.Attr{{Key: "instance", Value: "1"}, {Key: "bytes", Value: "77"}}},
		{ID: 6, Parent: 4, Track: 1, Name: "lease.steps", Start: 2 * time.Millisecond, End: 8 * time.Millisecond},
	}
	v7WorkerNow = 10 * time.Millisecond

	// The payloads of the fixture's Finalize and InstanceResult frames,
	// retired in version 8 (campaign 3, instance 1; its summary: config,
	// group, 512 branches, 100,000 execs, 4 crashes, 7 mutations, 1
	// restart failure). Nothing decodes them any more, and they stay in
	// every decoder's garbage.
	v7Retired = [][]byte{
		[]byte("\x00\x00\x00\x03\x00\x00\x00\x01"),
		[]byte("\x00\x00\x00\x01" + "\x00\x00\x00\x1abridge=on port=1883 tls=on" + "\x00\x02\x00\x06bridge\x00\x03tls" +
			"\x00\x00\x02\x00" + "\x00\x00\x00\x00\x00\x01\x86\xa0" + "\x00\x00\x00\x04\x00\x00\x00\x07\x00\x00\x00\x01"),
	}

	v7Release uint32 = 3
)
