// Package dns implements a Dnsmasq-like DNS forwarder used as the DNS
// subject. It parses RFC 1035 messages (including name compression),
// serves local and cached answers, simulates upstream forwarding, and
// carries the DHCP/TFTP/auth-zone/DNSSEC feature surface of dnsmasq's
// configuration. Five seeded configuration-gated defects reproduce
// Table II rows 10–14.
package dns

import (
	"bytes"
	"errors"

	"cmfuzz/internal/wire"
)

// Query/record types used by the subject.
const (
	typeA     = 1
	typeNS    = 2
	typeCNAME = 5
	typeSOA   = 6
	typePTR   = 12
	typeMX    = 15
	typeTXT   = 16
	typeAAAA  = 28
	typeSRV   = 33
	typeOPT   = 41
	typeANY   = 255
)

// Header flag masks.
const (
	flagQR = 1 << 15
	flagAA = 1 << 10
	flagTC = 1 << 9
	flagRD = 1 << 8
	flagRA = 1 << 7
	flagCD = 1 << 4
)

// Response codes.
const (
	rcodeOK       = 0
	rcodeFormErr  = 1
	rcodeServFail = 2
	rcodeNXDomain = 3
	rcodeRefused  = 5
)

var (
	errMalformed = errors.New("dns: malformed message")
	// errTruncated16 marks a 16-bit field read running past the packet —
	// the get16bits overread of Table II bug #10.
	errTruncated16 = errors.New("dns: truncated 16-bit field")
	// errPointerOut marks a compression pointer beyond the packet — the
	// question-parse overread of Table II bug #11.
	errPointerOut  = errors.New("dns: compression pointer out of range")
	errPointerLoop = errors.New("dns: compression pointer loop")
)

// header is the fixed 12-byte DNS header.
type header struct {
	ID      uint16
	Flags   uint16
	QDCount uint16
	ANCount uint16
	NSCount uint16
	ARCount uint16
}

// question is one entry of the question section. A decoded Name aliases
// the decoder's name buffer.
type question struct {
	Name  []byte
	Type  uint16
	Class uint16
}

// record is one resource record (answers and the OPT pseudo-record).
type record struct {
	Name  []byte
	Type  uint16
	Class uint16 // UDP payload size for OPT
	TTL   uint32
	Data  []byte
}

// queryMsg is a decoded DNS request. It is reused from message to
// message: decodeQuery refills its slices and its names buffer, which
// every decoded name aliases.
type queryMsg struct {
	Header     header
	Questions  []question
	Additional []record
	names      []byte
}

func read16(r *wire.Reader) (uint16, error) {
	if r.Remaining() < 2 {
		return 0, errTruncated16
	}
	return r.U16(), nil
}

// decodeHeader parses the fixed header.
func decodeHeader(r *wire.Reader) (header, error) {
	var h header
	var err error
	fields := []*uint16{&h.ID, &h.Flags, &h.QDCount, &h.ANCount, &h.NSCount, &h.ARCount}
	for _, f := range fields {
		if *f, err = read16(r); err != nil {
			return h, err
		}
	}
	return h, nil
}

// decodeName reads a possibly compressed domain name starting at the
// reader's cursor and appends it to dst, its labels joined with dots.
// full is the entire packet, needed to chase pointers.
func decodeName(r *wire.Reader, full, dst []byte) ([]byte, error) {
	labels := 0
	jumps := 0
	pos := -1 // -1: reading from r; otherwise reading from full at pos
	readByte := func() (byte, error) {
		if pos < 0 {
			if r.Remaining() < 1 {
				return 0, errMalformed
			}
			return r.U8(), nil
		}
		if pos >= len(full) {
			return 0, errPointerOut
		}
		b := full[pos]
		pos++
		return b, nil
	}
	for {
		b, err := readByte()
		if err != nil {
			return dst, err
		}
		switch {
		case b == 0:
			return dst, nil
		case b&0xc0 == 0xc0:
			low, err := readByte()
			if err != nil {
				return dst, err
			}
			target := int(b&0x3f)<<8 | int(low)
			if target >= len(full) {
				return dst, errPointerOut
			}
			jumps++
			if jumps > 8 {
				return dst, errPointerLoop
			}
			pos = target
		case b&0xc0 != 0:
			return dst, errMalformed // reserved label types
		default:
			if labels > 0 {
				dst = append(dst, '.')
			}
			for i := 0; i < int(b); i++ {
				c, err := readByte()
				if err != nil {
					return dst, err
				}
				dst = append(dst, c)
			}
			labels++
			if labels > 32 {
				return dst, errMalformed
			}
		}
	}
}

// decodeQuery parses a request into q: header, questions, and any
// additional records (for EDNS OPT).
func decodeQuery(data []byte, q *queryMsg) error {
	r := wire.NewReader(data)
	q.Questions = q.Questions[:0]
	q.Additional = q.Additional[:0]
	q.names = q.names[:0]
	var err error
	if q.Header, err = decodeHeader(r); err != nil {
		return err
	}
	if q.Header.QDCount > 16 {
		return errMalformed
	}
	for i := 0; i < int(q.Header.QDCount); i++ {
		var qu question
		start := len(q.names)
		if q.names, err = decodeName(r, data, q.names); err != nil {
			return err
		}
		qu.Name = q.names[start:len(q.names):len(q.names)]
		if qu.Type, err = read16(r); err != nil {
			return err
		}
		if qu.Class, err = read16(r); err != nil {
			return err
		}
		q.Questions = append(q.Questions, qu)
	}
	// Skip answer/authority sections (unusual in queries, tolerated).
	for i := 0; i < int(q.Header.ANCount)+int(q.Header.NSCount); i++ {
		if _, err := q.decodeRecord(r, data); err != nil {
			return err
		}
	}
	for i := 0; i < int(q.Header.ARCount); i++ {
		rec, err := q.decodeRecord(r, data)
		if err != nil {
			return err
		}
		q.Additional = append(q.Additional, rec)
	}
	return nil
}

func (q *queryMsg) decodeRecord(r *wire.Reader, full []byte) (record, error) {
	var rec record
	var err error
	start := len(q.names)
	if q.names, err = decodeName(r, full, q.names); err != nil {
		return rec, err
	}
	rec.Name = q.names[start:len(q.names):len(q.names)]
	if rec.Type, err = read16(r); err != nil {
		return rec, err
	}
	if rec.Class, err = read16(r); err != nil {
		return rec, err
	}
	if r.Remaining() < 4 {
		return rec, errMalformed
	}
	rec.TTL = r.U32()
	rdlen, err := read16(r)
	if err != nil {
		return rec, err
	}
	if int(rdlen) > r.Remaining() {
		return rec, errTruncated16
	}
	rec.Data = r.Bytes(int(rdlen))
	return rec, nil
}

// appendName renders an uncompressed domain name, one label per
// dot-separated part.
func appendName(w *wire.Writer, name []byte) {
	if len(name) > 0 {
		for {
			label, rest, more := bytes.Cut(name, dot)
			if len(label) > 63 {
				label = label[:63]
			}
			w.U8(byte(len(label)))
			w.Raw(label)
			if !more {
				break
			}
			name = rest
		}
	}
	w.U8(0)
}

var dot = []byte{'.'}

// appendMessage renders a message: a response carries answers, a query
// (built by the tests and the Pit seeds) additional records.
func appendMessage(w *wire.Writer, id, flags uint16, questions []question, answers, additional []record) {
	w.U16(id)
	w.U16(flags)
	w.U16(uint16(len(questions)))
	w.U16(uint16(len(answers)))
	w.U16(0)
	w.U16(uint16(len(additional)))
	for _, q := range questions {
		appendName(w, q.Name)
		w.U16(q.Type)
		w.U16(q.Class)
	}
	for _, recs := range [2][]record{answers, additional} {
		for _, a := range recs {
			appendName(w, a.Name)
			w.U16(a.Type)
			w.U16(a.Class)
			w.U32(a.TTL)
			w.U16(uint16(len(a.Data)))
			w.Raw(a.Data)
		}
	}
}
