package dist

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
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
			SaturationWindow: 1800, SaturationMinGain: 8,
			Allocator: parallel.AllocRandom, DisableConfigMutation: true,
			RawRelationWeighting: true, PeachSharedSchedules: true,
			LinkLoss: 0.01, LinkLatencyBase: 0.0002, LinkLatencyJitter: 0.0001,
			Concurrency: 3,
		},
		Specs: []parallel.InstanceSpec{
			{
				Index:  0,
				Config: configmodel.Assignment{"b": "2", "a": "1"},
				Group:  schedule.Group{Members: []string{"a", "b"}},
				Paths: []fuzz.Path{
					{Models: []string{"m0"}},
				},
				EngineSeed: 7919, RngSeed: 104729,
			},
			{Index: 1, Config: configmodel.Assignment{}, EngineSeed: -5, RngSeed: -9},
		},
	}
	out, err := unmarshal(marshal(&in, (*codec).assign), (*codec).assign)
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
	out, err := unmarshal(marshal(&in, (*codec).lease), (*codec).lease)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("lease diverged:\n got %+v\nwant %+v", out, in)
	}
}

// TestLeaseRejectsUnboundedClock: a lease whose Boundary or Horizon is
// negative, infinite or not a number is ErrProto; under +Inf for both,
// the instance would step until its worker ran out of memory.
func TestLeaseRejectsUnboundedClock(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, b := range [][2]float64{{inf, inf}, {600, inf}, {inf, 1800}, {nan, 1800}, {600, nan}, {-1, 1800}, {600, -1}, {math.Inf(-1), 1800}} {
		in := v7Lease
		in.Boundary, in.Horizon = b[0], b[1]
		if _, err := unmarshal(marshal(&in, (*codec).lease), (*codec).lease); !errors.Is(err, ErrProto) {
			t.Errorf("lease with boundary %v and horizon %v: %v, want ErrProto", b[0], b[1], err)
		}
	}
	in := v7Lease
	in.Boundary, in.Horizon = 0, math.MaxFloat64
	if _, err := unmarshal(marshal(&in, (*codec).lease), (*codec).lease); err != nil {
		t.Fatalf("lease with boundary 0 and horizon MaxFloat64: %v", err)
	}
}

// TestDecodeRejectsOutOfRangeOptions: an Assign or a checkpoint whose
// options fall outside Options.Validate's ranges is ErrProto at decode.
// It only decodes: none of these options may reach Restore or NewLoop,
// which would size a campaign by them.
func TestDecodeRejectsOutOfRangeOptions(t *testing.T) {
	decode := func(o parallel.Options) (assignErr, checkpointErr error) {
		a := v12Assign
		a.Opts = o
		_, assignErr = unmarshal(marshal(&a, (*codec).assign), (*codec).assign)
		checkpointErr = ValidateCheckpoint(encodeCheckpoint(&checkpoint{protocol: "DNS", opts: o, position: position{bound: 600, clock: 601}}))
		return assignErr, checkpointErr
	}
	if aerr, cerr := decode(v12Assign.Opts); aerr != nil || cerr != nil {
		t.Fatalf("in-range options: assign %v, checkpoint %v", aerr, cerr)
	}
	for name, bad := range map[string]func(*parallel.Options){
		"4,294,967,295 instances":       func(o *parallel.Options) { o.Instances = math.MaxUint32 },
		"instances past u16":            func(o *parallel.Options) { o.Instances = parallel.MaxInstances + 1 },
		"NaN hours":                     func(o *parallel.Options) { o.VirtualHours = math.NaN() },
		"zero hours":                    func(o *parallel.Options) { o.VirtualHours = 0 },
		"infinite hours":                func(o *parallel.Options) { o.VirtualHours = math.Inf(1) },
		"horizon overflows":             func(o *parallel.Options) { o.VirtualHours = 1e308 },
		"negative latency under jitter": func(o *parallel.Options) { o.LinkLatencyBase, o.LinkLatencyJitter = -0.5, 0.25 },
		"NaN jitter":                    func(o *parallel.Options) { o.LinkLatencyJitter = math.NaN() },
		"link loss above one":           func(o *parallel.Options) { o.LinkLoss = 1.5 },
		"negative saturation window":    func(o *parallel.Options) { o.SaturationWindow = -1 },
		"unknown mode":                  func(o *parallel.Options) { o.Mode = 7 },
		"unknown allocator":             func(o *parallel.Options) { o.Allocator = 3 },
	} {
		o := v12Assign.Opts
		bad(&o)
		if aerr, cerr := decode(o); !errors.Is(aerr, ErrProto) || !errors.Is(cerr, ErrProto) {
			t.Errorf("%s: assign %v, checkpoint %v; want ErrProto from both", name, aerr, cerr)
		}
	}
}

// badReply is a lease reply whose one record is raw, hand-written bytes:
// what a well-behaved encoder never produces.
func badReply(record func(w *wire.Writer)) []byte {
	c := codec{w: &wire.Writer{}}
	record(c.w)
	c.leaseTail(&leaseResult{})
	return c.w.Bytes()
}

func TestLeaseResultRoundTrip(t *testing.T) {
	steps := []parallel.LeaseStep{
		{Step: parallel.Step{Bytes: 41}}, // bare step: no crash, no edges, no saturation, no latency
		{
			Step: parallel.Step{Bytes: 77, NewEdges: 3,
				Crash: &bugs.Crash{Protocol: "DNS", Kind: bugs.Kind(2), Function: "parse", Detail: "oob"}},
			Seed:   fuzz.Seed{Msgs: [][]byte{{1, 2}, {3}}, Gain: 3},
			Digest: fuzz.Seed{Msgs: [][]byte{{1, 2}, {3}}}.Digest(),
			Ship:   true,
			Delta:  []byte{1, 2, 3},
		},
		{
			Step: parallel.Step{Bytes: 9}, SatFired: true,
			Mutation: &parallel.MutationOutcome{
				Events: []parallel.MutEvent{
					{Type: telemetry.EvRestartFail, Entity: "tcp", Value: "off", Detail: "conflict"},
					{Type: telemetry.EvMutation, Entity: "udp", Value: "on", Config: "udp=on"},
				},
				Mutations: 1, Boots: 1, RestartFails: 1,
			},
			MutationCrashes: []crashRec{{
				Crash:    bugs.Crash{Protocol: "DNS", Kind: bugs.Kind(1), Function: "boot", Detail: "x"},
				Instance: 2, T: 123.5, Config: "udp=on",
			}},
			Config: "udp=on", Coverage: 345,
		},
		// A step that charged link latency: the f64 travels bit for bit.
		{Step: parallel.Step{Bytes: 12, Latency: 0.00023456789012345678, NewEdges: 1},
			Seed: fuzz.Seed{Msgs: [][]byte{{9}}, Gain: 1}, Digest: fuzz.Seed{Msgs: [][]byte{{9}}}.Digest(), Ship: true, Delta: []byte{4}},
		// A new seed below its corpus's export floor: the digest alone.
		{Step: parallel.Step{Bytes: 5, NewEdges: 2}, Seed: fuzz.Seed{Gain: 2}, Digest: fuzz.Digest{CRC: 0xdeadbeef, Size: 4}, Delta: []byte{5}},
	}
	out, err := unmarshal(marshal(&leaseResult{Steps: steps, SyncDue: true}, (*codec).leaseResult), (*codec).leaseResult)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Spans) != 0 || out.WorkerNow != 0 {
		t.Fatalf("untraced reply carried spans: %v clock %v", out.Spans, out.WorkerNow)
	}
	if !out.SyncDue {
		t.Fatal("syncDue lost")
	}
	// One type on both sides of the wire: what comes out is what went in.
	if !reflect.DeepEqual(out.Steps, steps) {
		t.Fatalf("records diverged:\n got %+v\nwant %+v", out.Steps, steps)
	}

	// A record without a latency charge encodes exactly as it did before
	// records could carry one: flags, then the byte count.
	c := codec{w: &wire.Writer{}}
	c.step(&steps[0])
	if !bytes.Equal(c.w.Bytes(), []byte{0x00, 41}) {
		t.Fatalf("bare record encodes as % x", c.w.Bytes())
	}
	// The latency flag promises a positive finite charge.
	for _, lat := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		bad := badReply(func(w *wire.Writer) {
			w.U8(leaseFlagLatency)
			w.Varint(1)
			w.U64(math.Float64bits(lat))
		})
		if _, err := unmarshal(bad, (*codec).leaseResult); !errors.Is(err, ErrProto) {
			t.Fatalf("latency flag with charge %v: %v, want ErrProto", lat, err)
		}
	}

	// Unknown flag bits, a seed flag without edges, an edges flag without
	// edges and shipped messages that do not match their digest are
	// protocol violations, not silent zero values.
	if _, err := unmarshal(badReply(func(w *wire.Writer) { w.U8(0x20); w.U8(0) }), (*codec).leaseResult); !errors.Is(err, ErrProto) {
		t.Fatalf("unknown flag bits: %v, want ErrProto", err)
	}
	if _, err := unmarshal(badReply(func(w *wire.Writer) { w.U8(leaseFlagSeed); w.U8(0) }), (*codec).leaseResult); !errors.Is(err, ErrProto) {
		t.Fatalf("seed flag without edges: %v, want ErrProto", err)
	}
	forged := steps[1]
	forged.Digest.CRC++
	c.w.Reset()
	c.step(&forged)
	c.leaseTail(&leaseResult{})
	if _, err := unmarshal(c.w.Bytes(), (*codec).leaseResult); !errors.Is(err, ErrProto) {
		t.Fatalf("messages under another digest: %v, want ErrProto", err)
	}
	bad := badReply(func(w *wire.Writer) {
		w.U8(leaseFlagEdges)
		w.Varint(1) // bytes
		w.Varint(0) // newEdges == 0 contradicts the flag
		w.Bytes32(nil)
		w.U8(0)
	})
	if _, err := unmarshal(bad, (*codec).leaseResult); !errors.Is(err, ErrProto) {
		t.Fatalf("edges flag with zero newEdges: %v, want ErrProto", err)
	}
}

func TestLeaseResultSpanSectionRoundTrip(t *testing.T) {
	in := leaseResult{
		Steps: []parallel.LeaseStep{{Step: parallel.Step{Bytes: 41}}},
		Spans: []trace.Record{
			{ID: 0, Parent: -1, Track: 0, Name: "lease", Start: 0, End: 5 * time.Millisecond,
				Attrs: []trace.Attr{{Key: "instance", Value: "2"}}},
			{ID: 1, Parent: 0, Track: 0, Name: "lease.steps", Start: time.Millisecond, End: 4 * time.Millisecond},
		},
		WorkerNow: 6 * time.Millisecond,
	}
	out, err := unmarshal(marshal(&in, (*codec).leaseResult), (*codec).leaseResult)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("reply diverged:\n got %+v\nwant %+v", out, in)
	}
	// Attribute values of any type flatten to strings on the wire.
	in = leaseResult{Spans: []trace.Record{{Parent: -1, Name: "x", Attrs: []trace.Attr{{Key: "n", Value: 42}}}}}
	c := codec{w: &wire.Writer{}}
	c.leaseTail(&in)
	out, err = unmarshal(c.w.Bytes(), (*codec).leaseResult)
	if err != nil {
		t.Fatal(err)
	}
	if out.Spans[0].Attrs[0].Value != "42" {
		t.Fatalf("attr value = %v, want \"42\"", out.Spans[0].Attrs[0].Value)
	}
}

func TestBootResultRoundTrip(t *testing.T) {
	in := bootResult{BootReport: parallel.BootReport{
		Config: "a=1 b=2", StartEdges: 41, Delta: []byte{9, 8, 7},
		Crashes: []crashRec{{Crash: bugs.Crash{Protocol: "MQTT", Function: "f"}, Instance: 1, T: 0, Config: "a=1"}},
	}}
	out, err := unmarshal(marshal(&in, (*codec).bootResult), (*codec).bootResult)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("boot result diverged:\n got %+v\nwant %+v", out, in)
	}
}

// TestMessageCodes pins every message's code. A retired message's code
// is never given to another, so a peer of another version misreads
// nothing: 9 and 10, Finalize and its InstanceResult reply until version
// 8, stay unassigned.
func TestMessageCodes(t *testing.T) {
	for _, m := range []struct {
		name       string
		code, want byte
	}{
		{"Hello", msgHello, 1}, {"Welcome", msgWelcome, 2}, {"Assign", msgAssign, 3}, {"AssignOK", msgAssignOK, 4},
		{"Boot", msgBoot, 5}, {"BootResult", msgBootResult, 6}, {"Lease", msgLease, 7}, {"LeaseResult", msgLeaseResult, 8},
		{"Ping", msgPing, 11}, {"Pong", msgPong, 12}, {"Shutdown", msgShutdown, 13}, {"Error", msgError, 14},
		{"Release", msgRelease, 15}, {"ReleaseOK", msgReleaseOK, 16},
	} {
		if m.code != m.want {
			t.Errorf("%s is message %d, want %d", m.name, m.code, m.want)
		}
	}
}

// A kind is one message kind: its frame type, its value in the v7
// fixture (in wire version 10's layout, for the lease result), that value
// encoded, and its field list run as a decoder.
type kind struct {
	typ   byte
	name  string
	value any
	good  []byte
	// decode returns what p decodes to and that value re-encoded.
	decode func(p []byte) (any, []byte, error)
}

func kindOf[T any](typ byte, name string, fields func(*codec, *T), v T) kind {
	return kind{typ: typ, name: name, value: v, good: marshal(&v, fields), decode: func(p []byte) (any, []byte, error) {
		m, err := unmarshal(p, fields)
		return m, marshal(&m, fields), err
	}}
}

// kinds is every message kind, in the order testdata/payloads_v7.bin
// holds them.
func kinds() []kind {
	return []kind{
		kindOf(msgHello, "hello", (*codec).hello, v7Hello),
		kindOf(msgAssign, "assign", (*codec).assign, v12Assign),
		kindOf(msgBoot, "boot", (*codec).bootReq, v11BootReq),
		kindOf(msgBootResult, "boot result", (*codec).bootResult, v7BootResult),
		kindOf(msgLease, "lease", (*codec).lease, v7Lease),
		kindOf(msgLeaseResult, "lease result", (*codec).leaseResult, v10LeaseResult()),
		kindOf(msgRelease, "release", u32[uint32], v7Release),
	}
}

func v10LeaseResult() leaseResult {
	return leaseResult{Steps: v10Steps, SyncDue: v7SyncDue, Spans: v7Spans, WorkerNow: v7WorkerNow}
}

// goodPayloads is one well-formed payload per message kind, with the
// retired ones where the fixture holds them: the base of the
// malformed-input matrix below and the fuzz targets' seed corpus.
func goodPayloads() [][]byte {
	var out [][]byte
	for _, k := range kinds() {
		if k.typ == msgRelease {
			out = append(out, v7Retired...)
		}
		out = append(out, k.good)
	}
	return out
}

// TestPayloadsV7 holds the field lists to the bytes wire version 7 was
// written with: every frame of the fixture is what its kind's value
// encodes to, decodes to that value, and re-encodes to itself. The two
// frames of the messages version 8 retired sit in front of Release: they
// are checked by code and bytes, and skipped. Version 10 gave a new-edges
// record its seed's digest, so the fixture's lease reply, whose new-edges
// record has none, must be refused. Version 11 retired Boot's resume
// clock and each path's states, and version 12 the options' cost-model
// fields, so the fixture's Boot and Assign must be refused too, and with
// those fields' bytes cut out they are what the current values encode
// to.
func TestPayloadsV7(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "payloads_v7.bin"))
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(raw)
	for _, k := range kinds() {
		typ, _, p, err := readFrame(r)
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		if k.typ == msgRelease {
			for n, retired := range []byte{9, 10} {
				if typ != retired || !bytes.Equal(p, v7Retired[n]) {
					t.Fatalf("retired frame %d: type %d, payload % x; want type %d, % x", n, typ, p, retired, v7Retired[n])
				}
				if typ, _, p, err = readFrame(r); err != nil {
					t.Fatalf("%s: %v", k.name, err)
				}
			}
		}
		if typ != k.typ {
			t.Fatalf("%s: frame type %d, want %d", k.name, typ, k.typ)
		}
		switch k.typ {
		case msgLeaseResult, msgAssign, msgBoot:
			if v, _, err := k.decode(p); err == nil {
				t.Fatalf("the version-7 %s decodes, to %+v", k.name, v)
			} else {
				t.Logf("version-7 %s: %v", k.name, err)
			}
			if k.typ == msgLeaseResult {
				continue
			}
			p = cutRetired(t, k.typ, p)
		}
		if !bytes.Equal(k.good, p) {
			t.Fatalf("%s encodes to\n% x\nv7 wrote\n% x", k.name, k.good, p)
		}
		v, back, err := k.decode(p)
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		if !reflect.DeepEqual(v, k.value) {
			t.Fatalf("%s decodes to\n%+v\nwant\n%+v", k.name, v, k.value)
		}
		if !bytes.Equal(back, p) {
			t.Fatalf("%s re-encodes to\n% x\nwant\n% x", k.name, back, p)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes after the last kind", r.Len())
	}
}

// cutRetired returns a version-7 Boot or Assign payload without the bytes
// of the fields versions 11 and 12 retired: Boot's trailing resume
// clock, the state list in front of each path's models, and the
// options' five cost-model fields.
func cutRetired(t *testing.T, typ byte, p []byte) []byte {
	t.Helper()
	if typ == msgBoot {
		clock := marshal(&v7ResumeClock, f64)
		if !bytes.HasSuffix(p, clock) {
			t.Fatalf("version-7 boot % x does not end in resume clock % x", p, clock)
		}
		return p[:len(p)-len(clock)]
	}
	for _, states := range v7PathStates {
		enc := marshal(&states, strs)
		if n := bytes.Count(p, enc); n != 1 {
			t.Fatalf("version-7 assign holds state list % x %d times, want once", enc, n)
		}
		p = bytes.Replace(p, enc, nil, 1)
	}
	// The options' head up to SampleEvery, as version 7 laid it out. The
	// same fields without the cost model's five are 36 bytes
	// shorter, and the fields after it are laid out alike.
	o, cost := v12Assign.Opts, v7CostModel
	c := codec{w: &wire.Writer{}}
	u8(&c, &o.Mode)
	u32(&c, &o.Instances)
	f64(&c, &o.VirtualHours)
	i64(&c, &o.Seed)
	f64(&c, &cost.StepCost)
	f64(&c, &cost.ByteCost)
	f64(&c, &cost.SyncInterval)
	f64(&c, &o.SaturationWindow)
	u32(&c, &o.SaturationMinGain)
	u32(&c, &cost.MaxValues)
	u8(&c, &o.Allocator)
	flag(&c, &o.DisableConfigMutation)
	f64(&c, &cost.SampleEvery)
	v7Opts := c.w.Bytes()
	v12Opts := marshal(&o, (*codec).options)
	if n := bytes.Count(p, v7Opts); n != 1 {
		t.Fatalf("version-7 assign holds its options' head % x %d times, want once", v7Opts, n)
	}
	return bytes.Replace(p, v7Opts, v12Opts[:len(v7Opts)-36], 1)
}

// TestDecodeMalformed feeds every decoder every message kind's payload,
// each truncation of it and each single-byte corruption: it must return
// an error (or a harmless value), never panic or over-allocate. Its own
// kind's payload must decode, every strict prefix of it is a
// truncation, and one trailing byte is ErrProto.
func TestDecodeMalformed(t *testing.T) {
	all := kinds()
	for _, k := range all {
		if _, _, err := k.decode(k.good); err != nil {
			t.Fatalf("%s: good payload: %v", k.name, err)
		}
		for cut := 0; cut < len(k.good); cut++ {
			if _, _, err := k.decode(k.good[:cut]); !errors.Is(err, wire.ErrTruncated) {
				t.Fatalf("%s cut to %d bytes: %v, want a truncation", k.name, cut, err)
			}
		}
		if _, _, err := k.decode(append(k.good[:len(k.good):len(k.good)], 0)); !errors.Is(err, ErrProto) {
			t.Fatalf("%s with a trailing byte: %v, want ErrProto", k.name, err)
		}
		for _, g := range all {
			mutated := append([]byte(nil), g.good...)
			for i := range mutated {
				mutated[i] ^= 0xFF
				k.decode(mutated) // must not panic
				mutated[i] ^= 0xFF
			}
		}
	}
}

// replySteps is a 1,000-record lease reply shaped like a campaign's: 4%
// of the steps find new edges, a quarter of whose seeds ship, and 1%
// crash.
func replySteps() []parallel.LeaseStep {
	steps := make([]parallel.LeaseStep, 1000)
	for i := range steps {
		s := &steps[i]
		s.Bytes = 20 + i%200
		if i%25 == 0 {
			s.NewEdges = 1 + i%3
			s.Delta = []byte{0, 1, 0, 0, 0, 0, 0, 0, byte(i), 7}
			s.Seed = fuzz.Seed{Msgs: [][]byte{{1, 2, 3}, {byte(i)}}, Gain: s.NewEdges}
			s.Digest, s.Ship = s.Seed.Digest(), i%100 == 0
		}
		if i%100 == 7 {
			s.Crash = &bugs.Crash{Protocol: "DNS", Kind: bugs.SEGV, Function: "parse", Detail: "oob"}
		}
	}
	return steps
}

// TestLeaseReplyAllocs: a lane encodes its replies into the Writer it
// reuses without allocating, and decoding a reply allocates no more
// than the hand-written decoder the field lists replaced (131 for this
// reply when every seed shipped: the record slice's growth, each shipped
// seed's message slice, each crash and its strings).
func TestLeaseReplyAllocs(t *testing.T) {
	steps := replySteps()
	ln := &lane{enc: codec{w: &wire.Writer{}}}
	encode := func() {
		ln.enc.w.Reset()
		for i := range steps {
			ln.enc.step(&steps[i])
		}
		ln.enc.leaseTail(&leaseResult{SyncDue: true})
	}
	encode()
	reply := append([]byte(nil), ln.enc.w.Bytes()...)
	if n := testing.AllocsPerRun(50, encode); n != 0 {
		t.Fatalf("encoding a 1,000-record reply allocates %v times, want 0", n)
	}
	var err error
	n := testing.AllocsPerRun(50, func() { _, err = unmarshal(reply, (*codec).leaseResult) })
	if err != nil {
		t.Fatal(err)
	}
	if n > 131 {
		t.Fatalf("decoding a 1,000-record reply allocates %v times, want at most 131", n)
	}
	t.Logf("decode: %v allocations", n)
}

// TestLeaseDecodeRecycles: the coordinator decodes an instance's lease
// replies into one record buffer, so a reply that fits allocates no
// record slice, and the records past a shorter reply's last are zeroed
// rather than left pointing into the longer reply's payload.
func TestLeaseDecodeRecycles(t *testing.T) {
	c := &Coordinator{pool: NewPool(Config{}), inst: []replica{{owner: &workerConn{name: "w"}}}}
	encode := func(steps []parallel.LeaseStep) reply {
		return reply{typ: msgLeaseResult, payload: marshal(&leaseResult{Steps: steps, SyncDue: true}, (*codec).leaseResult)}
	}
	first := encode(replySteps()) // shipped seeds and deltas alias its payload
	second := encode([]parallel.LeaseStep{{Step: parallel.Step{Bytes: 20}}})

	recs1, err := c.leaseResult(0, first)
	if err != nil {
		t.Fatal(err)
	}
	recs2, err := c.leaseResult(0, second)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs1) != 1000 || len(recs2) != 1 {
		t.Fatalf("decoded %d and %d records, want 1000 and 1", len(recs1), len(recs2))
	}
	if &recs2[0] != &recs1[0] {
		t.Fatal("the second reply was decoded into a new record array")
	}
	for k, rec := range recs2[len(recs2):len(recs1)] {
		if !reflect.ValueOf(rec).IsZero() {
			t.Fatalf("record %d past the second reply's last still holds the first reply's %+v", len(recs2)+k, rec)
		}
	}
	// A one-record reply decoded into an empty buffer allocates its
	// record slice once; into the recycled buffer, never.
	recycled := testing.AllocsPerRun(50, func() { recs2, err = c.leaseResult(0, second) })
	fresh := testing.AllocsPerRun(50, func() { c.inst[0].steps = nil; recs2, err = c.leaseResult(0, second) })
	if err != nil {
		t.Fatal(err)
	}
	if fresh-recycled != 1 {
		t.Fatalf("decoding a one-record reply allocates %v times into the recycled buffer and %v into an empty one, want one fewer", recycled, fresh)
	}
}

func BenchmarkLeaseReplyRoundTrip(b *testing.B) {
	steps := replySteps()
	c := codec{w: &wire.Writer{}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.w.Reset()
		for j := range steps {
			c.step(&steps[j])
		}
		c.leaseTail(&leaseResult{SyncDue: true})
		if _, err := unmarshal(c.w.Bytes(), (*codec).leaseResult); err != nil {
			b.Fatal(err)
		}
	}
}
