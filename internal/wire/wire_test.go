package wire

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestReaderPrimitives(t *testing.T) {
	data := []byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f}
	r := NewReader(data)
	if got := r.U8(); got != 0x01 {
		t.Fatalf("U8 = %#x", got)
	}
	if got := r.U16(); got != 0x0203 {
		t.Fatalf("U16 = %#x", got)
	}
	if got := r.U32(); got != 0x04050607 {
		t.Fatalf("U32 = %#x", got)
	}
	if got := r.U64(); got != 0x08090a0b0c0d0e0f {
		t.Fatalf("U64 = %#x", got)
	}
	if !r.Empty() {
		t.Fatal("reader should be empty")
	}
	if r.Err() != nil {
		t.Fatalf("unexpected err: %v", r.Err())
	}
}

func TestReaderLittleEndian(t *testing.T) {
	r := NewReader([]byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06})
	if got := r.U16LE(); got != 0x0201 {
		t.Fatalf("U16LE = %#x", got)
	}
	if got := r.U32LE(); got != 0x06050403 {
		t.Fatalf("U32LE = %#x", got)
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{0x01})
	_ = r.U32() // truncated
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", r.Err())
	}
	if got := r.U8(); got != 0 {
		t.Fatalf("read after error = %#x, want 0", got)
	}
	if r.Rest() != nil {
		t.Fatal("Rest after error should be nil")
	}
}

func TestReaderBytesAndRest(t *testing.T) {
	r := NewReader([]byte{1, 2, 3, 4, 5})
	if got := r.Bytes(2); !bytes.Equal(got, []byte{1, 2}) {
		t.Fatalf("Bytes = %v", got)
	}
	if got := r.Rest(); !bytes.Equal(got, []byte{3, 4, 5}) {
		t.Fatalf("Rest = %v", got)
	}
	if r.Remaining() != 0 {
		t.Fatal("Remaining != 0 after Rest")
	}
}

func TestReaderBytesNegative(t *testing.T) {
	r := NewReader([]byte{1})
	if r.Bytes(-1) != nil || !errors.Is(r.Err(), ErrMalformed) {
		t.Fatal("negative Bytes should fail with ErrMalformed")
	}
}

func TestReaderSkipPeek(t *testing.T) {
	r := NewReader([]byte{9, 8, 7})
	if r.Peek() != 9 {
		t.Fatal("Peek wrong")
	}
	r.Skip(2)
	if r.Peek() != 7 || r.pos != 2 {
		t.Fatal("Skip wrong")
	}
	r.Skip(5)
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatal("over-skip should fail")
	}
	var r2 Reader
	r2.Skip(-1)
	if !errors.Is(r2.Err(), ErrMalformed) {
		t.Fatal("negative skip should fail")
	}
}

func TestReaderFail(t *testing.T) {
	r := NewReader([]byte{1})
	custom := errors.New("bad option")
	r.Fail(custom)
	r.Fail(errors.New("second")) // first sticks
	if r.Err() != custom {
		t.Fatalf("Err = %v, want first failure", r.Err())
	}
}

func TestVarintRoundTrip(t *testing.T) {
	for _, v := range []uint32{0, 1, 127, 128, 16383, 16384, 2097151, 2097152, 268435455} {
		var w Writer
		w.Varint(v)
		r := NewReader(w.Bytes())
		if got := r.Varint(); got != v || r.Err() != nil {
			t.Errorf("varint %d round-tripped to %d (err %v)", v, got, r.Err())
		}
	}
}

func TestVarintMalformed(t *testing.T) {
	// 5 continuation bytes exceed the 4-byte MQTT limit.
	r := NewReader([]byte{0x80, 0x80, 0x80, 0x80, 0x01})
	_ = r.Varint()
	if !errors.Is(r.Err(), ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", r.Err())
	}
	// Truncated continuation.
	r2 := NewReader([]byte{0x80})
	_ = r2.Varint()
	if !errors.Is(r2.Err(), ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", r2.Err())
	}
}

func TestVarintClampsOversize(t *testing.T) {
	var w Writer
	w.Varint(1 << 31)
	r := NewReader(w.Bytes())
	if got := r.Varint(); got != 268435455 {
		t.Fatalf("oversize varint decoded to %d, want clamp to max", got)
	}
}

func TestString16RoundTrip(t *testing.T) {
	var w Writer
	w.String16("hello")
	w.String16("")
	r := NewReader(w.Bytes())
	if got := r.String16(); got != "hello" {
		t.Fatalf("String16 = %q", got)
	}
	if got := r.String16(); got != "" {
		t.Fatalf("empty String16 = %q", got)
	}
	if r.Err() != nil || !r.Empty() {
		t.Fatal("leftover state after round trip")
	}
}

func TestBytes16Truncation(t *testing.T) {
	var w Writer
	big := make([]byte, 0x10002)
	w.Bytes16(big)
	r := NewReader(w.Bytes())
	if got := r.Bytes16(); len(got) != 0xffff {
		t.Fatalf("oversize Bytes16 len = %d, want 65535", len(got))
	}
}

func TestWriterPrimitives(t *testing.T) {
	w := NewWriter(16)
	w.U8(0x01)
	w.U16(0x0203)
	w.U32(0x04050607)
	w.U64(0x08090a0b0c0d0e0f)
	want := []byte{
		0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
		0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f,
	}
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("writer output = %x, want %x", w.Bytes(), want)
	}
	if w.Len() != len(want) {
		t.Fatalf("Len = %d", w.Len())
	}
}

// Property: any sequence written with Writer primitives reads back intact.
func TestQuickWriterReaderRoundTrip(t *testing.T) {
	f := func(a byte, b uint16, c uint32, d uint64, s string, raw []byte) bool {
		var w Writer
		w.U8(a)
		w.U16(b)
		w.U32(c)
		w.U64(d)
		w.String16(s)
		w.Bytes16(raw)
		r := NewReader(w.Bytes())
		okStr := s
		if len(okStr) > 0xffff {
			okStr = okStr[:0xffff]
		}
		okRaw := raw
		if len(okRaw) > 0xffff {
			okRaw = okRaw[:0xffff]
		}
		return r.U8() == a && r.U16() == b && r.U32() == c && r.U64() == d &&
			r.String16() == okStr && bytes.Equal(r.Bytes16(), append([]byte{}, okRaw...)) &&
			r.Err() == nil && r.Empty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Reader never panics and never reads past input on arbitrary bytes.
func TestQuickReaderRobust(t *testing.T) {
	f := func(data []byte, ops []uint8) bool {
		r := NewReader(data)
		for _, op := range ops {
			switch op % 10 {
			case 0:
				r.U8()
			case 1:
				r.U16()
			case 2:
				r.U32()
			case 3:
				r.U64()
			case 4:
				r.Varint()
			case 5:
				r.Bytes(int(op))
			case 6:
				r.Bytes16()
			case 7:
				r.Skip(int(op % 5))
			case 8:
				r.Peek()
			case 9:
				r.String16()
			}
		}
		return r.pos <= len(data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriterReset(t *testing.T) {
	w := NewWriter(4)
	w.U32(0xDEADBEEF)
	w.String16("hello")
	grown := cap(w.Bytes())
	w.Reset()
	if w.Len() != 0 {
		t.Fatalf("len after Reset = %d, want 0", w.Len())
	}
	if cap(w.Bytes()) != grown {
		t.Fatalf("Reset dropped capacity: %d, want %d", cap(w.Bytes()), grown)
	}
	w.U8(7)
	if got := w.Bytes(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("write after Reset = %v, want [7]", got)
	}
}

// TestFrames: frames written back to back keep their bytes when the
// buffer grows, End's slice edits its frame in place, Add keeps the
// caller's frame in order, and Reset empties the set.
func TestFrames(t *testing.T) {
	var f Frames
	if f.Out() != nil {
		t.Fatal("empty Frames returned frames")
	}
	f.W.String("ab")
	first := f.End()
	f.Add([]byte("owned"))
	f.W.Raw(make([]byte, 4096)) // forces the buffer to grow
	f.End()
	first[1] = 'B'
	out := f.Out()
	if len(out) != 3 || string(out[0]) != "aB" || string(out[1]) != "owned" || len(out[2]) != 4096 {
		t.Fatalf("frames = %q", out)
	}
	if cap(out[0]) != 2 {
		t.Fatalf("a frame's capacity reaches into the next: %d", cap(out[0]))
	}
	f.Reset()
	if f.Out() != nil || f.W.Len() != 0 {
		t.Fatal("Reset left frames behind")
	}
	f.W.U8(7)
	f.End()
	if out := f.Out(); len(out) != 1 || out[0][0] != 7 {
		t.Fatalf("frames after Reset = %v", out)
	}
}
