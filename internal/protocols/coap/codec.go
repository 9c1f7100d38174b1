// Package coap implements a libcoap-like CoAP server (RFC 7252 with
// RFC 7959 Block1/Block2 and RFC 9177 Q-Block1 blockwise transfers) used
// as the CoAP subject. Three seeded configuration-gated defects reproduce
// Table II rows 6–8; row 8 is the paper's Figure 5 case study — a NULL
// body_data dereference in the Q-Block1 reassembly path that is
// unreachable under the default configuration.
package coap

import (
	"errors"

	"cmfuzz/internal/wire"
)

// Message types (RFC 7252 §3).
const (
	typeCON = 0
	typeNON = 1
	typeACK = 2
	typeRST = 3
)

// Request method codes.
const (
	codeEmpty  = 0
	codeGET    = 1
	codePOST   = 2
	codePUT    = 3
	codeDELETE = 4
	codeFETCH  = 5
)

// Response codes (class<<5 | detail).
const (
	codeCreated    = 2<<5 | 1
	codeDeleted    = 2<<5 | 2
	codeContent    = 2<<5 | 5
	codeContinue   = 2<<5 | 31
	codeBadRequest = 4 << 5
	codeNotFound   = 4<<5 | 4
	codeBadOption  = 4<<5 | 2
	codeTooLarge   = 4<<5 | 13
	codeServerErr  = 5 << 5
)

// Option numbers.
const (
	optObserve       = 6
	optUriPath       = 11
	optContentFormat = 12
	optUriQuery      = 15
	optAccept        = 17
	optQBlock1       = 19
	optBlock2        = 23
	optBlock1        = 27
	optQBlock2       = 31
	optSize1         = 60
)

var errMalformed = errors.New("coap: malformed message")
var errBadOption = errors.New("coap: bad option encoding")

// errTruncatedExt marks an extended option nibble whose extension bytes
// run past the end of the datagram — the shape that overreads the stack
// buffer in CoapPDU::getOptionDelta (Table II bug #7).
var errTruncatedExt = errors.New("coap: truncated extended option field")

// option is one decoded CoAP option.
type option struct {
	Number int
	Value  []byte
}

// message is one decoded CoAP message. A server decodes every datagram
// into the same message, reusing its Options.
type message struct {
	Type      byte
	Code      byte
	MessageID uint16
	Token     []byte
	Options   []option
	Payload   []byte
}

// decode parses a CoAP datagram into m, whose slices alias data.
func decode(data []byte, m *message) error {
	*m = message{Options: m.Options[:0]}
	r := wire.NewReader(data)
	first := r.U8()
	if r.Err() != nil {
		return errMalformed
	}
	if first>>6 != 1 { // version must be 1
		return errMalformed
	}
	m.Type = (first >> 4) & 0x03
	tkl := int(first & 0x0f)
	m.Code = r.U8()
	m.MessageID = r.U16()
	if tkl > 8 {
		return errMalformed
	}
	m.Token = r.Bytes(tkl)
	if r.Err() != nil {
		return errMalformed
	}

	// Option parsing (delta encoding).
	number := 0
	for !r.Empty() {
		b := r.U8()
		if b == 0xff { // payload marker
			m.Payload = r.Rest()
			if len(m.Payload) == 0 {
				return errMalformed // marker with empty payload is invalid
			}
			break
		}
		delta := int(b >> 4)
		length := int(b & 0x0f)
		var err error
		delta, err = extendField(r, delta)
		if err != nil {
			return err
		}
		length, err = extendField(r, length)
		if err != nil {
			return err
		}
		number += delta
		val := r.Bytes(length)
		if r.Err() != nil {
			return errBadOption
		}
		m.Options = append(m.Options, option{Number: number, Value: val})
		if len(m.Options) > 32 {
			return errBadOption
		}
	}
	if r.Err() != nil {
		return errMalformed
	}
	return nil
}

// extendField resolves the 13/14/15 extended nibble encodings
// (RFC 7252 §3.1).
func extendField(r *wire.Reader, v int) (int, error) {
	switch v {
	case 13:
		if r.Remaining() < 1 {
			return 0, errTruncatedExt
		}
		return 13 + int(r.U8()), nil
	case 14:
		if r.Remaining() < 2 {
			return 0, errTruncatedExt
		}
		return 269 + int(r.U16()), nil
	case 15:
		return 0, errBadOption // reserved
	default:
		return v, nil
	}
}

// appendMessage renders a CoAP message.
func appendMessage(w *wire.Writer, m *message) {
	w.U8(1<<6 | m.Type<<4 | byte(len(m.Token)&0x0f))
	w.U8(m.Code)
	w.U16(m.MessageID)
	w.Raw(m.Token)
	prev := 0
	for _, o := range m.Options {
		appendOption(w, o.Number-prev, o.Value)
		prev = o.Number
	}
	if len(m.Payload) > 0 {
		w.U8(0xff)
		w.Raw(m.Payload)
	}
}

func appendOption(w *wire.Writer, delta int, val []byte) {
	dn := nibble(delta)
	ln := nibble(len(val))
	w.U8(byte(dn)<<4 | byte(ln))
	appendExt(w, dn, delta)
	appendExt(w, ln, len(val))
	w.Raw(val)
}

// nibble is the 4-bit field that encodes v: v itself below 13, else the
// marker of a one- (13) or two-byte (14) extension.
func nibble(v int) int {
	switch {
	case v < 13:
		return v
	case v < 269:
		return 13
	default:
		return 14
	}
}

// appendExt writes v's extension bytes for nibble n.
func appendExt(w *wire.Writer, n, v int) {
	switch n {
	case 13:
		w.U8(byte(v - 13))
	case 14:
		w.U16(uint16(v - 269))
	}
}

// blockOpt decodes a Block1/Block2/Q-Block option value (RFC 7959 §2.2):
// NUM (4..20 bits), M flag, SZX exponent.
type blockOpt struct {
	Num  int
	More bool
	SZX  int
}

func decodeBlockOpt(val []byte) (blockOpt, bool) {
	if len(val) > 3 {
		return blockOpt{}, false
	}
	v := 0
	for _, b := range val {
		v = v<<8 | int(b)
	}
	return blockOpt{Num: v >> 4, More: v&0x08 != 0, SZX: v & 0x07}, true
}

// appendBlockOpt appends b's option value, in as few bytes as hold it.
func appendBlockOpt(dst []byte, b blockOpt) []byte {
	v := b.Num<<4 | b.SZX
	if b.More {
		v |= 0x08
	}
	switch {
	case v < 1<<8:
		return append(dst, byte(v))
	case v < 1<<16:
		return append(dst, byte(v>>8), byte(v))
	default:
		return append(dst, byte(v>>16), byte(v>>8), byte(v))
	}
}

// findOption returns the first option with the given number.
func (m *message) findOption(number int) ([]byte, bool) {
	for _, o := range m.Options {
		if o.Number == number {
			return o.Value, true
		}
	}
	return nil, false
}

// appendURIPath appends the Uri-Path options to dst, joined with '/'.
func (m *message) appendURIPath(dst []byte) []byte {
	start := len(dst)
	for _, o := range m.Options {
		if o.Number == optUriPath {
			if len(dst) > start {
				dst = append(dst, '/')
			}
			dst = append(dst, o.Value...)
		}
	}
	return dst
}
