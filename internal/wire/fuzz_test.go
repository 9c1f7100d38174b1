package wire

import (
	"bytes"
	"testing"
)

// The distributed campaign protocol frames every message with these
// primitives, so they face bytes straight off a socket. Each fuzz target
// pins two properties: decode(encode(x)) == x for values the writer can
// produce, and arbitrary input never panics — it either parses or fails
// with the sticky error.

func FuzzVarintRoundTrip(f *testing.F) {
	f.Add(uint32(0))
	f.Add(uint32(127))
	f.Add(uint32(128))
	f.Add(uint32(16383))
	f.Add(uint32(16384))
	f.Add(uint32(268435455))
	f.Add(uint32(0xffffffff))
	f.Fuzz(func(t *testing.T, v uint32) {
		w := &Writer{}
		w.Varint(v)
		r := NewReader(w.Bytes())
		got := r.Varint()
		if r.Err() != nil {
			t.Fatalf("self-encoded varint failed to parse: %v", r.Err())
		}
		want := v
		if want > 268435455 {
			want = 268435455 // writer clamps to the 4-byte MQTT max
		}
		if got != want {
			t.Fatalf("varint round-trip: wrote %d, read %d", want, got)
		}
		if r.Remaining() != 0 {
			t.Fatalf("varint left %d bytes unread", r.Remaining())
		}
	})
}

func FuzzVarintNoPanic(f *testing.F) {
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x01}) // over-long
	f.Add([]byte{0xff})                         // truncated continuation
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		v := r.Varint()
		if r.Err() != nil && v != 0 {
			t.Fatalf("failed read returned nonzero value %d", v)
		}
		if r.Err() == nil && r.pos > len(data) {
			t.Fatalf("cursor %d past input %d", r.pos, len(data))
		}
	})
}

func FuzzLengthPrefixedRoundTrip(f *testing.F) {
	f.Add([]byte(nil), "")
	f.Add([]byte{1, 2, 3}, "hello")
	f.Add(bytes.Repeat([]byte{0xaa}, 70000), "x") // beyond the u16 range
	f.Fuzz(func(t *testing.T, blob []byte, s string) {
		w := &Writer{}
		w.Bytes16(blob)
		w.String16(s)
		w.Bytes32(blob)
		w.String32(s)
		r := NewReader(w.Bytes())
		b16 := r.Bytes16()
		s16 := r.String16()
		b32 := r.Bytes32()
		s32 := r.String32()
		if r.Err() != nil {
			t.Fatalf("self-encoded fields failed to parse: %v", r.Err())
		}
		want16 := blob
		if len(want16) > 0xffff {
			want16 = want16[:0xffff] // Bytes16 truncates to fit its prefix
		}
		wantS16 := s
		if len(wantS16) > 0xffff {
			wantS16 = wantS16[:0xffff]
		}
		if !bytes.Equal(b16, want16) || s16 != wantS16 {
			t.Fatal("u16-prefixed round-trip mismatch")
		}
		if !bytes.Equal(b32, blob) || s32 != s {
			t.Fatal("u32-prefixed round-trip mismatch")
		}
		if r.Remaining() != 0 {
			t.Fatalf("%d bytes left unread", r.Remaining())
		}
	})
}

// FuzzReaderGauntlet drives every reader primitive over arbitrary input.
// Nothing may panic, no read may move the cursor backwards or past the
// end, and once the sticky error fires every later read returns zeros.
func FuzzReaderGauntlet(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		prev := 0
		check := func() {
			if r.pos < prev || r.pos > len(data) {
				t.Fatalf("cursor moved from %d to %d (len %d)", prev, r.pos, len(data))
			}
			prev = r.pos
		}
		r.U8()
		check()
		r.U16()
		check()
		r.U32()
		check()
		r.U64()
		check()
		r.U16LE()
		check()
		r.U32LE()
		check()
		r.Varint()
		check()
		r.Bytes16()
		check()
		r.Bytes32()
		check()
		r.Peek()
		check()
		r.Skip(3)
		check()
		failedAt := r.Err() != nil
		if failedAt {
			if r.U32() != 0 || r.Bytes32() != nil || r.String16() != "" {
				t.Fatal("reads after sticky error returned data")
			}
		}
		r.Rest()
		if r.Err() == nil && r.Remaining() != 0 {
			t.Fatalf("Rest left %d bytes", r.Remaining())
		}
	})
}

func TestBytes32Truncated(t *testing.T) {
	// A huge length prefix over a short body must fail cleanly, without
	// allocating the advertised size.
	r := NewReader([]byte{0xff, 0xff, 0xff, 0xff, 0x01})
	if b := r.Bytes32(); b != nil || r.Err() != ErrTruncated {
		t.Fatalf("got %v err %v, want nil/ErrTruncated", b, r.Err())
	}
}
