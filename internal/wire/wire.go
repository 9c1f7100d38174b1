// Package wire is the binary codec toolkit shared by the protocol
// subjects. It provides a cursored reader with a sticky error (so parsers
// read field-by-field without per-call error plumbing, then check once)
// and a growing writer, with the big-endian primitives, length-prefixed
// fields, and MQTT-style variable-byte integers the IoT protocols need.
package wire

import "errors"

// ErrTruncated reports a read past the end of the input.
var ErrTruncated = errors.New("wire: truncated input")

// ErrMalformed reports a structurally invalid field (for example an
// over-long variable-byte integer).
var ErrMalformed = errors.New("wire: malformed field")

// A Reader decodes binary fields from a byte slice. The first failure
// sticks: every subsequent read returns zero values, and Err exposes the
// failure. The zero value reads from an empty input.
type Reader struct {
	data []byte
	pos  int
	err  error
}

// NewReader returns a Reader over data. The Reader does not copy data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first error encountered, or nil.
func (r *Reader) Err() error { return r.err }

// Fail forces the reader into the error state with err (if it is not
// already failed). Parsers use it to flag semantic violations.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Remaining returns how many bytes are left to read.
func (r *Reader) Remaining() int { return len(r.data) - r.pos }

// Empty reports whether all input has been consumed (or the reader failed).
func (r *Reader) Empty() bool { return r.err != nil || r.pos >= len(r.data) }

func (r *Reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.Remaining() < n {
		r.err = ErrTruncated
		return false
	}
	return true
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if !r.need(1) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := uint16(r.data[r.pos])<<8 | uint16(r.data[r.pos+1])
	r.pos += 2
	return v
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	if !r.need(4) {
		return 0
	}
	d := r.data[r.pos:]
	v := uint32(d[0])<<24 | uint32(d[1])<<16 | uint32(d[2])<<8 | uint32(d[3])
	r.pos += 4
	return v
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	if !r.need(8) {
		return 0
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(r.data[r.pos+i])
	}
	r.pos += 8
	return v
}

// U16LE reads a little-endian uint16 (RTPS uses little-endian encodings).
func (r *Reader) U16LE() uint16 {
	if !r.need(2) {
		return 0
	}
	v := uint16(r.data[r.pos]) | uint16(r.data[r.pos+1])<<8
	r.pos += 2
	return v
}

// U32LE reads a little-endian uint32.
func (r *Reader) U32LE() uint32 {
	if !r.need(4) {
		return 0
	}
	d := r.data[r.pos:]
	v := uint32(d[0]) | uint32(d[1])<<8 | uint32(d[2])<<16 | uint32(d[3])<<24
	r.pos += 4
	return v
}

// Bytes reads exactly n bytes. The returned slice aliases the input.
// A negative n fails with ErrMalformed.
func (r *Reader) Bytes(n int) []byte {
	if n < 0 {
		r.Fail(ErrMalformed)
		return nil
	}
	if !r.need(n) {
		return nil
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b
}

// Rest consumes and returns all remaining bytes.
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	b := r.data[r.pos:]
	r.pos = len(r.data)
	return b
}

// Skip advances the cursor by n bytes.
func (r *Reader) Skip(n int) {
	if n < 0 {
		r.Fail(ErrMalformed)
		return
	}
	if r.need(n) {
		r.pos += n
	}
}

// Peek returns the next byte without consuming it.
func (r *Reader) Peek() byte {
	if r.err != nil || r.Remaining() < 1 {
		return 0
	}
	return r.data[r.pos]
}

// Varint reads an MQTT-style variable-byte integer: 7 bits per byte,
// continuation in the high bit, at most 4 bytes.
func (r *Reader) Varint() uint32 {
	var v uint32
	for shift := 0; ; shift += 7 {
		if shift > 21 {
			r.Fail(ErrMalformed)
			return 0
		}
		b := r.U8()
		if r.err != nil {
			return 0
		}
		v |= uint32(b&0x7f) << shift
		if b&0x80 == 0 {
			return v
		}
	}
}

// Bytes16 reads a uint16 length prefix followed by that many bytes.
func (r *Reader) Bytes16() []byte {
	n := r.U16()
	return r.Bytes(int(n))
}

// String16 reads a uint16-length-prefixed UTF-8 string.
func (r *Reader) String16() string { return string(r.Bytes16()) }

// Bytes32 reads a big-endian uint32 length prefix followed by that many
// bytes (the framing primitive of the distributed campaign protocol,
// whose corpus and coverage payloads outgrow a uint16 prefix). A prefix
// larger than the remaining input fails with ErrTruncated before any
// allocation, so a hostile length cannot balloon memory.
func (r *Reader) Bytes32() []byte {
	n := r.U32()
	if r.err == nil && int64(n) > int64(r.Remaining()) {
		r.Fail(ErrTruncated)
		return nil
	}
	return r.Bytes(int(n))
}

// String32 reads a uint32-length-prefixed UTF-8 string.
func (r *Reader) String32() string { return string(r.Bytes32()) }

// A Writer encodes binary fields into a growing buffer. The zero value is
// ready to use.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with capacity for n bytes.
func NewWriter(n int) *Writer { return &Writer{buf: make([]byte, 0, n)} }

// Bytes returns the encoded buffer. It aliases internal storage.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Reset empties the buffer but keeps its capacity, so an encoder on a
// hot path (the distributed lease loop) can be reused without
// reallocating. Slices previously returned by Bytes alias the storage
// Reset reuses: callers must consume or copy them first.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// U8 appends one byte.
func (w *Writer) U8(v byte) { w.buf = append(w.buf, v) }

// U16 appends a big-endian uint16.
func (w *Writer) U16(v uint16) { w.buf = append(w.buf, byte(v>>8), byte(v)) }

// U32 appends a big-endian uint32.
func (w *Writer) U32(v uint32) {
	w.buf = append(w.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// U64 appends a big-endian uint64.
func (w *Writer) U64(v uint64) {
	w.U32(uint32(v >> 32))
	w.U32(uint32(v))
}

// Raw appends b verbatim.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Varint appends an MQTT-style variable-byte integer (max 4 bytes,
// i.e. values up to 268,435,455; larger values are truncated to that max).
func (w *Writer) Varint(v uint32) {
	const max = 268435455
	if v > max {
		v = max
	}
	for {
		b := byte(v & 0x7f)
		v >>= 7
		if v > 0 {
			w.buf = append(w.buf, b|0x80)
		} else {
			w.buf = append(w.buf, b)
			return
		}
	}
}

// Bytes16 appends a uint16 length prefix followed by b. Inputs longer
// than 65535 bytes are truncated to fit the prefix.
func (w *Writer) Bytes16(b []byte) {
	if len(b) > 0xffff {
		b = b[:0xffff]
	}
	w.U16(uint16(len(b)))
	w.Raw(b)
}

// String appends s verbatim.
func (w *Writer) String(s string) { w.buf = append(w.buf, s...) }

// String16 appends a uint16-length-prefixed string. Strings longer than
// 65535 bytes are truncated to fit the prefix.
func (w *Writer) String16(s string) {
	if len(s) > 0xffff {
		s = s[:0xffff]
	}
	w.U16(uint16(len(s)))
	w.String(s)
}

// Bytes32 appends a big-endian uint32 length prefix followed by b.
func (w *Writer) Bytes32(b []byte) {
	w.U32(uint32(len(b)))
	w.Raw(b)
}

// String32 appends a uint32-length-prefixed string.
func (w *Writer) String32(s string) {
	w.U32(uint32(len(s)))
	w.String(s)
}

// Frames is a reusable buffer of response frames: each frame is written
// into W and closed with End, back to back in one growing buffer, so a
// subject that answers every message from the same Frames allocates
// nothing once the buffer has grown to its working size. Frames returned
// by Out alias that buffer and stay valid until the next Reset.
type Frames struct {
	W     Writer
	out   [][]byte
	start int
}

// Reset discards every frame, keeping the buffer's capacity.
func (f *Frames) Reset() {
	f.W.Reset()
	f.out = f.out[:0]
	f.start = 0
}

// End closes the frame written into W since the previous End or Reset
// and returns it. Writing into the returned slice edits the frame in
// place.
func (f *Frames) End() []byte {
	b := f.W.buf
	frame := b[f.start:len(b):len(b)]
	f.out = append(f.out, frame)
	f.start = len(b)
	return frame
}

// Add appends a frame the caller owns and keeps unchanged until the next
// Reset.
func (f *Frames) Add(frame []byte) { f.out = append(f.out, frame) }

// Out returns the frames in order, or nil if there are none.
func (f *Frames) Out() [][]byte {
	if len(f.out) == 0 {
		return nil
	}
	return f.out
}
