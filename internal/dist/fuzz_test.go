package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cmfuzz/internal/parallel"
	"cmfuzz/internal/protocols"
	"cmfuzz/internal/telemetry"
	"cmfuzz/internal/wire"
)

// Everything below faces bytes straight off a socket — or, for the
// checkpoint, off a disk a crash may have torn. Each target pins
// the same two properties: arbitrary input either parses or fails with an
// error — never a panic, never an allocation sized by a length field the
// input has not backed with bytes — and whatever parses survives a trip
// back through its encoder. The seed corpus is the malformed-input matrix
// of TestDecodeMalformed: every good payload, every truncation of it, and
// every single-byte corruption.

func seedMatrix(f *testing.F, good []byte) {
	f.Add([]byte(nil))
	for _, g := range goodPayloads() {
		f.Add(g) // other kinds' payloads are this decoder's garbage
	}
	for cut := 0; cut < len(good); cut++ {
		f.Add(good[:cut])
	}
	for i := range good {
		mutated := append([]byte(nil), good...)
		mutated[i] ^= 0xFF
		f.Add(mutated)
	}
}

// v7Frame returns the payload of the testdata/payloads_v7.bin frame of
// type typ: a layout a later wire version retired, which its decoder must
// refuse without panicking.
func v7Frame(tb testing.TB, typ byte) []byte {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "payloads_v7.bin"))
	if err != nil {
		tb.Fatal(err)
	}
	for r := bytes.NewReader(raw); ; {
		t, _, p, err := readFrame(r)
		if err != nil {
			tb.Fatalf("no frame of type %d: %v", typ, err)
		}
		if t == typ {
			return p
		}
	}
}

// fuzzMessage is the target for one message kind's field list, seeded
// with the malformed-input matrix of each seed value: a failure is one
// the decode rule names, and what parses is a fixed point that valid,
// when given, accepts.
func fuzzMessage[T any](f *testing.F, fields func(*codec, *T), valid func(T) error, seeds ...T) {
	for i := range seeds {
		seedMatrix(f, marshal(&seeds[i], fields))
	}
	decode := func(p []byte) (T, error) { return unmarshal(p, fields) }
	encode := func(m T) ([]byte, error) { return marshal(&m, fields), nil }
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decode(data)
		if err != nil && !errors.Is(err, wire.ErrTruncated) && !errors.Is(err, wire.ErrMalformed) && !errors.Is(err, ErrProto) {
			t.Fatalf("decode failed with %v, which the decode rule does not name", err)
		}
		fixedPoint(t, m, err, decode, encode)
		if err == nil && valid != nil {
			if err := valid(m); err != nil {
				t.Fatalf("decode accepted %+v: %v", m, err)
			}
		}
	})
}

// fixedPoint checks one decode's outcome: a failure came with the zero
// value, and an accepted value encodes to bytes that parse back to a
// value encoding to the same bytes. Booleans, varints and duplicate map
// keys have more than one spelling, so the input need not be that
// encoding (and values are compared as bytes: a crash stamp may be NaN).
func fixedPoint[T any](t *testing.T, m T, err error, decode func([]byte) (T, error), encode func(T) ([]byte, error)) {
	t.Helper()
	if err != nil {
		var zero T
		if !reflect.DeepEqual(m, zero) {
			t.Fatalf("failed decode returned %+v", m)
		}
		return
	}
	once, err := encode(m)
	if err != nil {
		t.Fatalf("accepted value does not encode: %v", err)
	}
	back, err := decode(once)
	if err != nil {
		t.Fatalf("re-encoded value does not parse: %v", err)
	}
	if twice, err := encode(back); err != nil || !bytes.Equal(twice, once) {
		t.Fatalf("value changed across a round trip (%v):\n%x\n%x", err, once, twice)
	}
}

func FuzzReadFrame(f *testing.F) {
	var good bytes.Buffer
	writeFrame(&good, msgLease, 0x01020304, marshal(&v7Lease, (*codec).lease))
	seedMatrix(f, good.Bytes())
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, msgLease, 0, 0, 0, 1}) // length past maxFrame
	f.Add([]byte{0x03, 0xFF, 0xFF, 0xFF, msgLease, 0, 0, 0, 1}) // a large length with no bytes behind it
	f.Add([]byte{0, 0, 0, 4, msgLease, 0, 0, 0, 1})             // length too short for the header
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, id, payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			if payload != nil {
				t.Fatalf("failed read returned %d payload bytes", len(payload))
			}
			return
		}
		if frameHeader+len(payload) > len(data) || len(payload)+frameHeader-4 > maxFrame {
			t.Fatalf("%d-byte payload out of %d bytes of input", len(payload), len(data))
		}
		var back bytes.Buffer
		if err := writeFrame(&back, typ, id, payload); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back.Bytes(), data[:back.Len()]) {
			t.Fatalf("frame re-encodes to %x, read from %x", back.Bytes(), data[:back.Len()])
		}
	})
}

func FuzzDecodeHello(f *testing.F) { fuzzMessage(f, (*codec).hello, nil, v7Hello) }

func FuzzDecodeAssign(f *testing.F) {
	seedMatrix(f, v7Frame(f, msgAssign))
	// The last seed's options are out of range (4,294,967,295 instances):
	// decoding refuses it, and its cuts and flips probe the validator.
	huge := v14Assign
	huge.Opts.Instances = math.MaxUint32
	seeds := []assign{v14Assign, {Subject: "DNS", Opts: parallel.Options{VirtualHours: 1}, Specs: []parallel.InstanceSpec{{Index: 1}}}, huge}
	for i := range seeds {
		seedRetired(f, marshal(&seeds[i], (*codec).assign), seeds[i].Opts, sameHeader)
	}
	fuzzMessage(f, (*codec).assign, func(a assign) error { return a.Opts.Validate() }, seeds...)
}

// seedRetired adds p, which carries the options o, as the two versions
// before this one laid it out — version 13 with the allocator byte back
// before the no-config-mutation flag and the raw-weights and
// shared-schedules flags after it, version 12 with Concurrency besides,
// in four bytes before LinkLoss — and each torn at the seven bytes from
// inside the first field it retired: what a peer, or a checkpoint.bin,
// one or two versions older hands the decoder. behind puts a layout
// under the header of the version back versions older, for data that
// has one.
func seedRetired(f *testing.F, p []byte, o parallel.Options, behind func(data []byte, back byte) []byte) {
	f.Helper()
	opts := marshal(&o, (*codec).options)
	at := bytes.Index(p, opts)
	if at < 0 {
		f.Fatalf("payload % x does not hold its options % x", p, opts)
	}
	at += len(opts) - 3*8 - 1 // the flag; LinkLoss, LinkLatencyBase and LinkLatencyJitter follow
	v13 := bytes.Join([][]byte{p[:at], {2}, p[at : at+1], {1, 1}, p[at+1:]}, nil)
	v12 := bytes.Join([][]byte{v13[:at+4], {0, 0, 0, 1}, v13[at+4:]}, nil)
	for _, layout := range []struct {
		data []byte
		back byte
		from int
	}{{v13, 1, at}, {v12, 2, at + 4}} {
		old := behind(layout.data, layout.back)
		f.Add(old)
		for cut := layout.from + 1; cut < layout.from+8; cut++ {
			f.Add(old[:cut])
		}
	}
}

// sameHeader leaves a wire payload as it is: the handshake settled its
// version.
func sameHeader(data []byte, _ byte) []byte { return data }

func FuzzDecodeBootReq(f *testing.F) {
	seedMatrix(f, v7Frame(f, msgBoot))
	fuzzMessage(f, (*codec).bootReq, nil, v11BootReq)
}

func FuzzDecodeBootResult(f *testing.F) {
	fuzzMessage(f, (*codec).bootResult, nil, v7BootResult, bootResult{Err: "conflict", BootReport: parallel.BootReport{Crashes: []crashRec{{Instance: 1, T: 2, Config: "a=b"}}}})
}

func FuzzDecodeLease(f *testing.F) {
	fuzzMessage(f, (*codec).lease, func(l lease) error {
		for _, v := range []float64{l.Boundary, l.Horizon} {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("lease bound %v", v)
			}
		}
		return nil
	}, v7Lease)
}

func FuzzDecodeLeaseResult(f *testing.F) {
	seedMatrix(f, v7Frame(f, msgLeaseResult))
	fuzzMessage(f, (*codec).leaseResult, nil, v10LeaseResult(), leaseResult{Steps: v7Steps[:1]}, leaseResult{Steps: v10Steps[2:]})
}

func FuzzDecodeRelease(f *testing.F) { fuzzMessage(f, u32[uint32], nil, v7Release) }

// midCampaignCheckpoint runs a small campaign to the middle of its
// second sync window and checkpoints it there, with records still to
// replay.
func midCampaignCheckpoint(tb testing.TB) []byte {
	tb.Helper()
	sub, err := protocols.ByName("DNS")
	if err != nil {
		tb.Fatal(err)
	}
	coord := NewCoordinator(sub, parallel.Options{
		Mode: parallel.ModeCMFuzz, Instances: 2, VirtualHours: 0.5, Seed: 5, Concurrency: 1,
		SaturationWindow: 30, Telemetry: telemetry.New(),
	}, Config{HeartbeatInterval: -1})
	cConn, wConn := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- NewWorker(WorkerConfig{Name: "w", Resolve: protocols.ByName}).Serve(wConn) }()
	defer func() {
		coord.Close()
		if err := <-served; err != nil {
			tb.Error(err)
		}
	}()
	ctx := context.Background()
	if err := coord.AddConn(cConn); err != nil {
		tb.Fatal(err)
	}
	if err := coord.Start(ctx); err != nil {
		tb.Fatal(err)
	}
	if err := coord.Advance(ctx, 800); err != nil {
		tb.Fatal(err)
	}
	blob, err := coord.Checkpoint()
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// TestRestoreChecksReexecution: Restore holds where its re-run lands to
// the checkpoint. A checkpoint whose recorded execs, then edges, are one
// off re-runs to the true figures, and Restore fails naming both.
func TestRestoreChecksReexecution(t *testing.T) {
	ck, err := decodeCheckpoint(midCampaignCheckpoint(t))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := protocols.ByName("DNS")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		field string
		alter func(*checkpoint) (was, now int)
	}{
		{"execs", func(ck *checkpoint) (int, int) { ck.execs++; return ck.execs - 1, ck.execs }},
		{"edges", func(ck *checkpoint) (int, int) { ck.edges--; return ck.edges + 1, ck.edges }},
	} {
		bad := ck
		was, now := tc.alter(&bad)
		coord, closeCoord := pipeCoordinator(t, sub, parallel.Options{}, 1)
		err := coord.Restore(context.Background(), encodeCheckpoint(&bad))
		closeCoord()
		for _, n := range []int{was, now} {
			if want := fmt.Sprintf(" %d %s", n, tc.field); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Restore of a checkpoint with its %s one off = %v, want a failure naming%q", tc.field, err, want)
			}
		}
		t.Log(err)
	}
}

// TestReplayChecksReexecution: the replay that rebuilds an instance
// after its worker's death holds what it re-executes to what the loop
// replayed. With the first lease of instance 0 journaled with an earlier
// boundary than it was sent with, and its worker killed after the
// second reply, the replay re-executes fewer records than the loop
// holds, and Advance fails naming the instance instead of finishing
// silently different.
func TestReplayChecksReexecution(t *testing.T) {
	sub, err := protocols.ByName("DNS")
	if err != nil {
		t.Fatal(err)
	}
	coord, closeCoord := pipeCoordinator(t, sub, parallel.Options{
		Mode: parallel.ModeCMFuzz, Instances: 2, VirtualHours: 0.5, Seed: 5, Concurrency: 1,
	}, 2)
	defer closeCoord()
	replies := 0
	coord.onReply = func(i int, _ []parallel.LeaseStep) {
		if i == 0 {
			if replies++; replies == 2 {
				coord.inst[0].journal[0].Boundary -= 100
				coord.inst[0].owner.kill(errors.New("killed by the test"))
			}
		}
	}
	ctx := context.Background()
	if err := coord.Start(ctx); err != nil {
		t.Fatal(err)
	}
	err = coord.Advance(ctx, coord.Horizon())
	if err == nil || !strings.Contains(err.Error(), "replay of instance 0 re-executed") {
		t.Fatalf("Advance past a death whose replay re-executes an altered journal = %v, want a failure naming instance 0", err)
	}
	t.Log(err)
}

// versionBack returns checkpoint data under the header of the version
// back versions before this one; seedRetired puts that version's fields
// back.
func versionBack(data []byte, back byte) []byte {
	old := append([]byte(nil), data...)
	old[2+len(checkpointMagic)] = checkpointVersion - back
	return old
}

// FuzzValidateCheckpoint drives the decoder the fleet's recovery scan
// and every cold restore run on checkpoint.bin. Seeds: checkpoints this
// build just took — of a campaign mid-way and of one just started, in
// another mode — which must re-encode to exactly their own bytes and
// fit in 256, one whose options are out of range, every torn and
// flipped copy of each, and each as versions 6 and 5 laid it out. Whatever it
// accepts passes Options.Validate.
func FuzzValidateCheckpoint(f *testing.F) {
	sub, err := protocols.ByName("CoAP")
	if err != nil {
		f.Fatal(err)
	}
	started := NewCoordinator(sub, parallel.Options{Mode: parallel.ModePeach, Instances: 2, VirtualHours: 0.1, Seed: 9, LinkLatencyBase: 0.01}, Config{HeartbeatInterval: -1})
	cConn, wConn := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- NewWorker(WorkerConfig{Name: "w", Resolve: protocols.ByName}).Serve(wConn) }()
	if err := started.AddConn(cConn); err != nil {
		f.Fatal(err)
	}
	if err := started.Start(context.Background()); err != nil {
		f.Fatal(err)
	}
	fresh, err := started.Checkpoint()
	started.Close()
	if serr := <-served; err != nil || serr != nil {
		f.Fatal(err, serr)
	}
	for _, good := range [][]byte{midCampaignCheckpoint(f), fresh} {
		ck, err := decodeCheckpoint(good)
		if err != nil {
			f.Fatal(err)
		}
		if back := encodeCheckpoint(&ck); !bytes.Equal(back, good) || len(good) > 256 {
			f.Fatalf("a %d-byte checkpoint re-encodes to %d different bytes, or is over 256", len(good), len(back))
		}
		seedMatrix(f, good)
		seedRetired(f, good, ck.opts, versionBack)
	}
	// A checkpoint whose options are out of range (hours NaN), which the
	// decoder must refuse before Restore could run a campaign under them.
	nan, err := decodeCheckpoint(fresh)
	if err != nil {
		f.Fatal(err)
	}
	nan.opts.VirtualHours = math.NaN()
	seedMatrix(f, encodeCheckpoint(&nan))
	seedRetired(f, encodeCheckpoint(&nan), nan.opts, versionBack)
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := decodeCheckpoint(data)
		fixedPoint(t, ck, err, decodeCheckpoint, func(ck checkpoint) ([]byte, error) { return encodeCheckpoint(&ck), nil })
		if err == nil {
			if err := ck.opts.Validate(); err != nil {
				t.Fatalf("checkpoint accepted with options %+v: %v", ck.opts, err)
			}
		}
	})
}
