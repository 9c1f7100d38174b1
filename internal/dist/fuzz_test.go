package dist

import (
	"bytes"
	"context"
	"errors"
	"net"
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

// fuzzMessage is the target for one message kind's field list, seeded
// with the malformed-input matrix of each seed value: a failure is one
// the decode rule names, and what parses is a fixed point.
func fuzzMessage[T any](f *testing.F, fields func(*codec, *T), seeds ...T) {
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

func FuzzDecodeHello(f *testing.F) { fuzzMessage(f, (*codec).hello, v7Hello) }

func FuzzDecodeAssign(f *testing.F) {
	fuzzMessage(f, (*codec).assign, v7Assign, assign{Subject: "DNS", Specs: []parallel.InstanceSpec{{Index: 1}}})
}

func FuzzDecodeBootReq(f *testing.F) { fuzzMessage(f, (*codec).bootReq, v7BootReq) }

func FuzzDecodeBootResult(f *testing.F) {
	fuzzMessage(f, (*codec).bootResult, v7BootResult, bootResult{Err: "conflict", BootReport: parallel.BootReport{Crashes: []crashRec{{Instance: 1, T: 2, Config: "a=b"}}}})
}

func FuzzDecodeLease(f *testing.F) { fuzzMessage(f, (*codec).lease, v7Lease) }

func FuzzDecodeLeaseResult(f *testing.F) {
	fuzzMessage(f, (*codec).leaseResult, v10LeaseResult(), leaseResult{Steps: v7Steps[:1]}, leaseResult{Steps: v10Steps[2:]})
}

func FuzzDecodeRelease(f *testing.F) { fuzzMessage(f, u32[uint32], v7Release) }

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

// TestRestoreChecksReexecution: Restore holds what its re-executed
// journals return to the checkpoint. A checkpoint whose last lease of
// instance 0 is journaled with an earlier boundary than the one it was
// sent with re-executes fewer records than it holds, and Restore fails
// naming the instance instead of finishing silently different.
func TestRestoreChecksReexecution(t *testing.T) {
	ck, err := decodeCheckpoint(midCampaignCheckpoint(t))
	if err != nil {
		t.Fatal(err)
	}
	j := ck.inst[0].journal
	j[len(j)-1].Boundary -= 100
	blob, err := encodeCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := protocols.ByName("DNS")
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(sub, parallel.Options{}, Config{HeartbeatInterval: -1})
	cConn, wConn := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- NewWorker(WorkerConfig{Name: "w", Resolve: protocols.ByName}).Serve(wConn) }()
	if err := coord.AddConn(cConn); err != nil {
		t.Fatal(err)
	}
	err = coord.Restore(context.Background(), blob)
	coord.Close()
	if serr := <-served; serr != nil {
		t.Error(serr)
	}
	if err == nil || !strings.Contains(err.Error(), "restore of instance 0 ") {
		t.Fatalf("Restore of an altered journal = %v, want a failure naming instance 0", err)
	}
	t.Log(err)
}

// TestRestoreRefusesRebootedJournal: an older build re-booted an
// instance whose worker died at the loop's clock and restarted its
// journal there, recording that clock in checkpoint.bin. This build
// boots at clock 0 only, so such a journal cannot rebuild the instance,
// and Restore fails naming it before touching a worker.
func TestRestoreRefusesRebootedJournal(t *testing.T) {
	ck, err := decodeCheckpoint(midCampaignCheckpoint(t))
	if err != nil {
		t.Fatal(err)
	}
	ck.resume[1] = 600
	blob, err := encodeCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := protocols.ByName("DNS")
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(sub, parallel.Options{}, Config{HeartbeatInterval: -1})
	cConn, wConn := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- NewWorker(WorkerConfig{Name: "w", Resolve: protocols.ByName}).Serve(wConn) }()
	if err := coord.AddConn(cConn); err != nil {
		t.Fatal(err)
	}
	err = coord.Restore(context.Background(), blob)
	coord.Close()
	if serr := <-served; serr != nil {
		t.Error(serr)
	}
	if err == nil || !strings.Contains(err.Error(), "restore of instance 1: ") {
		t.Fatalf("Restore of a journal that starts at a re-boot = %v, want a failure naming instance 1", err)
	}
	t.Log(err)
}

// FuzzValidateCheckpoint drives the decoder the fleet's recovery scan
// and every cold restore run on checkpoint.bin. Seeds: the version-1 and
// version-2 checkpoints older builds wrote (kept as restore fixtures),
// the current-version checkpoints they re-encode to, which must be fixed
// points, one this build just took, which must re-encode to exactly its
// own bytes, and a few torn and flipped copies of each.
func FuzzValidateCheckpoint(f *testing.F) {
	v1, v2 := v1Checkpoint(f), v2Checkpoint(f)
	reencode := func(blob []byte) []byte {
		ck, err := decodeCheckpoint(blob)
		if err != nil {
			f.Fatal(err)
		}
		back, err := encodeCheckpoint(ck)
		if err != nil {
			f.Fatal(err)
		}
		return back
	}
	ver := 2 + len(checkpointMagic) // where the version byte sits
	if v1[ver] != 1 || v2[ver] != 2 {
		f.Fatalf("the fixtures are versions %d and %d, want 1 and 2", v1[ver], v2[ver])
	}
	var current [][]byte
	for _, old := range [][]byte{v1, v2} {
		now := reencode(old)
		if now[ver] != checkpointVersion || !bytes.Equal(reencode(now), now) {
			f.Fatalf("a version-%d fixture re-encodes to a version-%d checkpoint that is no fixed point", old[ver], now[ver])
		}
		current = append(current, now)
	}
	// The mid-campaign checkpoint holds digest-only records to replay;
	// a copy with one of them made to ship its seed's messages holds both
	// kinds.
	mid := midCampaignCheckpoint(f)
	if back := reencode(mid); !bytes.Equal(back, mid) {
		f.Fatalf("a %d-byte checkpoint re-encodes to %d different bytes", len(mid), len(back))
	}
	ck, err := decodeCheckpoint(mid)
	if err != nil {
		f.Fatal(err)
	}
	shipped := false
	for i := range ck.replay {
		for k := range ck.replay[i].Batch {
			if rec := &ck.replay[i].Batch[k]; rec.NewEdges > 0 && !shipped {
				rec.Seed.Msgs = [][]byte{{0x12, 0x34, 0x01, 0x00}, nil}
				rec.Digest, rec.Ship, shipped = rec.Seed.Digest(), true, true
			}
		}
	}
	both, err := encodeCheckpoint(ck)
	if err != nil || !shipped {
		f.Fatalf("no record of the mid-campaign checkpoint made to ship (%v)", err)
	}
	f.Add([]byte(nil))
	for _, good := range append([][]byte{v1, v2, mid, both}, current...) {
		f.Add(good)
		for _, cut := range []int{len(checkpointMagic), len(good) / 3, len(good) - 1} {
			f.Add(good[:cut])
		}
		for _, at := range []int{len(checkpointMagic) + 2, len(good) / 2, len(good) - 1} {
			flipped := append([]byte(nil), good...)
			flipped[at] ^= 0xFF
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := decodeCheckpoint(data)
		fixedPoint(t, ck, err, decodeCheckpoint, encodeCheckpoint)
	})
}
