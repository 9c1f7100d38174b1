package dist

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/core/configmodel"
	"cmfuzz/internal/core/schedule"
	"cmfuzz/internal/fuzz"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/telemetry"
	"cmfuzz/internal/telemetry/trace"
	"cmfuzz/internal/wire"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 4096)}
	for i, p := range payloads {
		if err := writeFrame(&buf, byte(i+1), uint32(i)<<24|7, p); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range payloads {
		typ, id, got, err := readFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if typ != byte(i+1) || id != uint32(i)<<24|7 || !bytes.Equal(got, p) {
			t.Fatalf("frame %d: got type %d id %#x payload %q", i, typ, id, got)
		}
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	if err := writeFrame(&bytes.Buffer{}, msgLease, 1, make([]byte, maxFrame)); err == nil {
		t.Fatal("oversized frame accepted")
	}
	var hdr bytes.Buffer
	hdr.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, byte(msgLease), 0, 0, 0, 1})
	if _, _, _, err := readFrame(&hdr); err == nil {
		t.Fatal("oversized length header accepted")
	}
	// A length that cannot hold the type and id is no frame at all,
	// whatever follows it.
	for n := byte(0); n < frameHeader-4; n++ {
		short := bytes.NewBuffer([]byte{0, 0, 0, n, byte(msgLease), 0, 0, 0, 1, 0xAA})
		if _, _, _, err := readFrame(short); err == nil {
			t.Fatalf("frame of declared length %d accepted", n)
		}
	}
}

func TestAssignRoundTrip(t *testing.T) {
	in := assign{
		Subject:  "DNS",
		LiveSpec: `{"cmd":["/usr/bin/echo-server","-port","{port}"],"transport":"udp"}`,
		Opts: parallel.Options{
			Mode: parallel.ModeCMFuzz, Instances: 4, VirtualHours: 1.5, Seed: 42,
			StepCost: 2, ByteCost: 0.00002, SyncInterval: 600,
			SaturationWindow: 1800, SaturationMinGain: 8, MaxValues: 4,
			Allocator: parallel.AllocRandom, DisableConfigMutation: true,
			SampleEvery: 300, RawRelationWeighting: true, PeachSharedSchedules: true,
			LinkLoss: 0.01, LinkLatencyBase: 0.0002, LinkLatencyJitter: 0.0001,
			Concurrency: 3,
		},
		Specs: []parallel.InstanceSpec{
			{
				Index:  0,
				Config: configmodel.Assignment{"b": "2", "a": "1"},
				Group:  schedule.Group{Members: []string{"a", "b"}},
				Paths: []fuzz.Path{
					{States: []string{"s0", "s1"}, Models: []string{"m0"}},
				},
				EngineSeed: 7919, RngSeed: 104729,
			},
			{Index: 1, Config: configmodel.Assignment{}, EngineSeed: -5, RngSeed: -9},
		},
	}
	out, err := decodeAssign(encodeAssign(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Subject != in.Subject || !reflect.DeepEqual(out.Opts, in.Opts) {
		t.Fatalf("options diverged: %+v vs %+v", out.Opts, in.Opts)
	}
	if out.LiveSpec != in.LiveSpec {
		t.Fatalf("live spec diverged: %q vs %q", out.LiveSpec, in.LiveSpec)
	}
	if len(out.Specs) != len(in.Specs) {
		t.Fatalf("spec count %d, want %d", len(out.Specs), len(in.Specs))
	}
	for i := range in.Specs {
		want := in.Specs[i]
		got := out.Specs[i]
		if len(want.Config) == 0 {
			want.Config = got.Config // empty map vs nil: same assignment
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("spec %d diverged:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func TestLeaseRoundTrip(t *testing.T) {
	in := lease{
		Index: 2, Boundary: 600, Horizon: 1800,
		Seeds: []fuzz.Seed{
			{Msgs: [][]byte{{1, 2}, {3}}, Gain: 5},
			{Msgs: [][]byte{{}}, Gain: 0},
		},
	}
	out, err := decodeLease(encodeLease(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Index != in.Index || out.Boundary != in.Boundary || out.Horizon != in.Horizon {
		t.Fatalf("lease header diverged: %+v vs %+v", out, in)
	}
	if len(out.Seeds) != len(in.Seeds) {
		t.Fatalf("seed count %d, want %d", len(out.Seeds), len(in.Seeds))
	}
	for i := range in.Seeds {
		if out.Seeds[i].Gain != in.Seeds[i].Gain || len(out.Seeds[i].Msgs) != len(in.Seeds[i].Msgs) {
			t.Fatalf("seed %d diverged: %+v vs %+v", i, out.Seeds[i], in.Seeds[i])
		}
		for j := range in.Seeds[i].Msgs {
			if !bytes.Equal(out.Seeds[i].Msgs[j], in.Seeds[i].Msgs[j]) {
				t.Fatalf("seed %d msg %d diverged", i, j)
			}
		}
	}
	if _, err := decodeLease(append(encodeLease(in), 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

// encodeLeaseResult assembles a reply the way the worker does: records
// through appendLeaseStep, the terminator and syncDue flag, then the
// span-record section (empty here, as with tracing off).
func encodeLeaseResult(steps []parallel.LeaseStep, syncDue bool) []byte {
	w := &wire.Writer{}
	for i := range steps {
		appendLeaseStep(w, &steps[i])
	}
	w.U8(leaseEnd)
	putBool(w, syncDue)
	putSpanRecords(w, nil, 0)
	return w.Bytes()
}

func TestLeaseResultRoundTrip(t *testing.T) {
	steps := []parallel.LeaseStep{
		{Step: parallel.Step{Bytes: 41}}, // bare step: no crash, no edges, no saturation, no latency
		{
			Step: parallel.Step{Bytes: 77, NewEdges: 3,
				Crash: &bugs.Crash{Protocol: "DNS", Kind: bugs.Kind(2), Function: "parse", Detail: "oob"}},
			Seed:  fuzz.Seed{Msgs: [][]byte{{1, 2}, {3}}, Gain: 3},
			Delta: []byte{1, 2, 3},
		},
		{
			Step: parallel.Step{Bytes: 9}, SatFired: true,
			Mutation: &parallel.MutationOutcome{
				Events: []parallel.MutEvent{
					{Type: telemetry.EvRestartFail, Entity: "tcp", Value: "off", Detail: "conflict"},
					{Type: telemetry.EvMutation, Entity: "udp", Value: "on", Config: "udp=on"},
				},
				Mutations: 1, Boots: 1, RestartFails: 1, Restarted: true,
			},
			MutationCrashes: []crashRec{{
				Crash:    bugs.Crash{Protocol: "DNS", Kind: bugs.Kind(1), Function: "boot", Detail: "x"},
				Instance: 2, T: 123.5, Config: "udp=on",
			}},
			Config: "udp=on", Coverage: 345,
		},
		// A step that charged link latency: the f64 travels bit for bit.
		{Step: parallel.Step{Bytes: 12, Latency: 0.00023456789012345678, NewEdges: 1},
			Seed: fuzz.Seed{Msgs: [][]byte{{9}}, Gain: 1}, Delta: []byte{4}},
	}
	recs, syncDue, spans, workerNow, err := decodeLeaseResult(encodeLeaseResult(steps, true))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 0 || workerNow != 0 {
		t.Fatalf("untraced reply carried spans: %v clock %v", spans, workerNow)
	}
	if !syncDue {
		t.Fatal("syncDue lost")
	}
	// One type on both sides of the wire: what comes out is what went in.
	if !reflect.DeepEqual(recs, steps) {
		t.Fatalf("records diverged:\n got %+v\nwant %+v", recs, steps)
	}

	// A record without a latency charge encodes exactly as it did before
	// records could carry one: flags, then the byte count.
	w := &wire.Writer{}
	appendLeaseStep(w, &steps[0])
	if !bytes.Equal(w.Bytes(), []byte{0x00, 41}) {
		t.Fatalf("bare record encodes as % x", w.Bytes())
	}
	// The latency flag promises a positive finite charge.
	for _, lat := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		bad := &wire.Writer{}
		bad.U8(leaseFlagLatency)
		bad.Varint(1)
		putF64(bad, lat)
		bad.U8(leaseEnd)
		putBool(bad, false)
		putSpanRecords(bad, nil, 0)
		if _, _, _, _, err := decodeLeaseResult(bad.Bytes()); err == nil {
			t.Fatalf("latency flag with charge %v accepted", lat)
		}
	}

	// Unknown flag bits and an edges flag without edges are protocol
	// violations, not silent zero values.
	if _, _, _, _, err := decodeLeaseResult([]byte{0x10, 0x00, leaseEnd, 0}); err == nil {
		t.Fatal("unknown flag bits accepted")
	}
	bad := &wire.Writer{}
	bad.U8(leaseFlagEdges)
	bad.Varint(1) // bytes
	bad.Varint(0) // newEdges == 0 contradicts the flag
	bad.Bytes32(nil)
	bad.U8(0)
	bad.U8(leaseEnd)
	putBool(bad, false)
	putSpanRecords(bad, nil, 0)
	if _, _, _, _, err := decodeLeaseResult(bad.Bytes()); err == nil {
		t.Fatal("edges flag with zero newEdges accepted")
	}
}

func TestLeaseResultSpanSectionRoundTrip(t *testing.T) {
	steps := []parallel.LeaseStep{{Step: parallel.Step{Bytes: 41}}}
	spans := []trace.Record{
		{ID: 0, Parent: -1, Track: 0, Name: "lease", Start: 0, End: 5 * time.Millisecond,
			Attrs: []trace.Attr{{Key: "instance", Value: "2"}}},
		{ID: 1, Parent: 0, Track: 0, Name: "lease.steps", Start: time.Millisecond, End: 4 * time.Millisecond},
	}
	w := &wire.Writer{}
	for i := range steps {
		appendLeaseStep(w, &steps[i])
	}
	w.U8(leaseEnd)
	putBool(w, false)
	putSpanRecords(w, spans, 6*time.Millisecond)

	recs, syncDue, gotSpans, workerNow, err := decodeLeaseResult(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || syncDue {
		t.Fatalf("step records diverged: %d recs, syncDue=%v", len(recs), syncDue)
	}
	if workerNow != 6*time.Millisecond {
		t.Fatalf("worker clock = %v, want 6ms", workerNow)
	}
	if !reflect.DeepEqual(gotSpans, spans) {
		t.Fatalf("spans diverged:\n got %+v\nwant %+v", gotSpans, spans)
	}
	// Attribute values of any type flatten to strings on the wire.
	w2 := &wire.Writer{}
	w2.U8(leaseEnd)
	putBool(w2, false)
	putSpanRecords(w2, []trace.Record{{Parent: -1, Name: "x", Attrs: []trace.Attr{{Key: "n", Value: 42}}}}, 0)
	_, _, s2, _, err := decodeLeaseResult(w2.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if s2[0].Attrs[0].Value != "42" {
		t.Fatalf("attr value = %v, want \"42\"", s2[0].Attrs[0].Value)
	}
}

func TestBootResultRoundTrip(t *testing.T) {
	in := bootResult{
		Err: "", Config: "a=1 b=2", StartEdges: 41, Delta: []byte{9, 8, 7},
		Crashes: []crashRec{{Crash: bugs.Crash{Protocol: "MQTT", Function: "f"}, Instance: 1, T: 0, Config: "a=1"}},
	}
	out, err := decodeBootResult(encodeBootResult(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("boot result diverged:\n got %+v\nwant %+v", out, in)
	}
}

func TestInstanceResultRoundTrip(t *testing.T) {
	in := parallel.InstanceResult{
		Index: 3, Config: "x=y", Group: []string{"x", "z"},
		FinalBranches: 512, Execs: 100000, Crashes: 4, ConfigMutations: 7, RestartFailures: 1,
	}
	out, err := decodeInstanceResult(encodeInstanceResult(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("instance result diverged:\n got %+v\nwant %+v", out, in)
	}
}

// TestDecodeMalformed feeds truncated and corrupt payloads to every
// decoder: they must return an error (or a harmless zero value), never
// panic or over-allocate.
func TestDecodeMalformed(t *testing.T) {
	good := goodPayloads()
	decoders := []func([]byte) error{
		func(p []byte) error { _, err := decodeAssign(p); return err },
		func(p []byte) error { _, err := decodeLease(p); return err },
		func(p []byte) error { _, _, _, _, err := decodeLeaseResult(p); return err },
		func(p []byte) error { _, err := decodeBootResult(p); return err },
		func(p []byte) error { _, err := decodeInstanceResult(p); return err },
		func(p []byte) error { _, err := decodeHello(p); return err },
	}
	for _, g := range good {
		for _, dec := range decoders {
			for cut := 0; cut < len(g); cut++ {
				dec(g[:cut]) // must not panic
			}
			mutated := append([]byte(nil), g...)
			for i := range mutated {
				mutated[i] ^= 0xFF
				dec(mutated)
				mutated[i] ^= 0xFF
			}
		}
	}
}

// goodPayloads is one well-formed payload per message kind, in the order
// assign, lease, lease result, boot result, instance result, hello: the
// base of the malformed-input matrix above and the fuzz targets' seed
// corpus.
func goodPayloads() [][]byte {
	return [][]byte{
		encodeAssign(assign{Subject: "DNS", Specs: []parallel.InstanceSpec{{Index: 1}}}),
		encodeLease(lease{Index: 1, Boundary: 600, Horizon: 1800, Seeds: []fuzz.Seed{{Msgs: [][]byte{{1}}, Gain: 1}}}),
		encodeLeaseResult([]parallel.LeaseStep{
			{Step: parallel.Step{Bytes: 1}},
			{Step: parallel.Step{Bytes: 2, Latency: 0.5, NewEdges: 1}, Seed: fuzz.Seed{Msgs: [][]byte{{1}}, Gain: 1}, Delta: []byte{1}},
		}, true),
		encodeBootResult(bootResult{Config: "c", Delta: []byte{1}}),
		encodeInstanceResult(parallel.InstanceResult{Index: 1}),
		encodeHello(hello{Name: "w", Version: 1}),
	}
}
