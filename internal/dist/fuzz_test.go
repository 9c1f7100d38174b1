package dist

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"cmfuzz/internal/parallel"
	"cmfuzz/internal/protocols"
	"cmfuzz/internal/telemetry"
	"cmfuzz/internal/telemetry/trace"
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

func FuzzReadFrame(f *testing.F) {
	var good bytes.Buffer
	writeFrame(&good, msgLease, 0x01020304, goodPayloads()[1])
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

func FuzzDecodeLease(f *testing.F) {
	seedMatrix(f, goodPayloads()[1])
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := decodeLease(data)
		if err != nil {
			return
		}
		// The encoding is canonical: a payload that parses is the one its
		// value encodes to.
		if back := encodeLease(l); !bytes.Equal(back, data) {
			t.Fatalf("lease %+v re-encodes to %x, decoded from %x", l, back, data)
		}
	})
}

func FuzzDecodeLeaseResult(f *testing.F) {
	seedMatrix(f, goodPayloads()[2])
	traced := &wire.Writer{}
	traced.U8(leaseEnd)
	putBool(traced, false)
	putSpanRecords(traced, []trace.Record{
		{ID: 5, Parent: -1, Track: 1, Name: "lease", Start: time.Millisecond, End: time.Second, Attrs: []trace.Attr{trace.A("instance", "2")}},
	}, time.Minute)
	f.Add(traced.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, syncDue, spans, now, err := decodeLeaseResult(data)
		if err != nil {
			if recs != nil || spans != nil {
				t.Fatal("failed decode returned records")
			}
			return
		}
		// Booleans and varints have more than one spelling, so the input
		// need not be what the value encodes to; but that encoding must
		// parse back to the same value (compared as bytes: a crash stamp
		// may be NaN).
		encode := func(recs []parallel.LeaseStep, syncDue bool, spans []trace.Record, now time.Duration) []byte {
			w := &wire.Writer{}
			for i := range recs {
				appendLeaseStep(w, &recs[i])
			}
			w.U8(leaseEnd)
			putBool(w, syncDue)
			putSpanRecords(w, spans, now)
			return w.Bytes()
		}
		once := encode(recs, syncDue, spans, now)
		recs, syncDue, spans, now, err = decodeLeaseResult(once)
		if err != nil {
			t.Fatalf("re-encoded reply does not parse: %v", err)
		}
		if twice := encode(recs, syncDue, spans, now); !bytes.Equal(twice, once) {
			t.Fatalf("lease result changed across a round trip:\n%x\n%x", once, twice)
		}
	})
}

func FuzzDecodeAssign(f *testing.F) {
	seedMatrix(f, goodPayloads()[0])
	f.Add(encodeAssign(assign{Campaign: 9, Subject: "MQTT", Trace: true, LiveSpec: `{"name":"x"}`,
		Opts:  parallel.Options{Mode: parallel.ModeCMFuzz, Instances: 4, VirtualHours: 1, Seed: 7, LinkLatencyBase: 0.001},
		Specs: []parallel.InstanceSpec{{Index: 0, EngineSeed: 1, RngSeed: 2}, {Index: 1}}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := decodeAssign(data)
		if err != nil {
			if !reflect.DeepEqual(a, assign{}) {
				t.Fatalf("failed decode returned %+v", a)
			}
			return
		}
		// Duplicate config keys collapse, so the input need not be what
		// the value encodes to; that encoding must be a fixed point.
		once := encodeAssign(a)
		back, err := decodeAssign(once)
		if err != nil {
			t.Fatalf("re-encoded assign does not parse: %v", err)
		}
		if twice := encodeAssign(back); !bytes.Equal(twice, once) {
			t.Fatalf("assign changed across a round trip:\n got %+v\nwant %+v", back, a)
		}
	})
}

func FuzzDecodeBootResult(f *testing.F) {
	seedMatrix(f, goodPayloads()[3])
	f.Add(encodeBootResult(bootResult{Err: "conflict", Crashes: []crashRec{{Instance: 1, T: 2, Config: "a=b"}}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := decodeBootResult(data)
		if err != nil {
			if !errors.Is(err, wire.ErrTruncated) {
				t.Fatalf("boot result failed with %v, want a truncation", err)
			}
			return
		}
		once := encodeBootResult(b)
		back, err := decodeBootResult(once)
		if err != nil {
			t.Fatalf("re-encoded boot result does not parse: %v", err)
		}
		if twice := encodeBootResult(back); !bytes.Equal(twice, once) {
			t.Fatalf("boot result changed across a round trip:\n got %+v\nwant %+v", back, b)
		}
	})
}

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

// FuzzValidateCheckpoint drives the decoder the fleet's recovery scan
// and every cold restore run on checkpoint.bin. Seeds: the checkpoint a
// PR-12 binary wrote (kept as a restore fixture) and one this build just
// took, each of which must re-encode to exactly its own bytes, and a few
// torn and flipped copies.
func FuzzValidateCheckpoint(f *testing.F) {
	zf, err := os.Open(filepath.Join("testdata", "checkpoint_pr12.bin.gz"))
	if err != nil {
		f.Fatal(err)
	}
	defer zf.Close()
	zr, err := gzip.NewReader(zf)
	if err != nil {
		f.Fatal(err)
	}
	pr12, err := io.ReadAll(zr)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(nil))
	for _, good := range [][]byte{pr12, midCampaignCheckpoint(f)} {
		ck, err := decodeCheckpoint(good)
		if err != nil {
			f.Fatal(err)
		}
		if back, err := encodeCheckpoint(ck); err != nil || !bytes.Equal(back, good) {
			f.Fatalf("a %d-byte checkpoint re-encodes to %d different bytes (%v)", len(good), len(back), err)
		}
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
		if err != nil {
			if ck != nil {
				t.Fatal("failed decode returned a checkpoint")
			}
			return
		}
		// Booleans, varints and duplicate keys have more than one
		// spelling, so the input need not be what the value encodes to;
		// that encoding must be a fixed point.
		once, err := encodeCheckpoint(ck)
		if err != nil {
			t.Fatalf("accepted checkpoint does not encode: %v", err)
		}
		back, err := decodeCheckpoint(once)
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not parse: %v", err)
		}
		if twice, err := encodeCheckpoint(back); err != nil || !bytes.Equal(twice, once) {
			t.Fatalf("checkpoint changed across a round trip: %d bytes, then %d (%v)", len(once), len(twice), err)
		}
	})
}
