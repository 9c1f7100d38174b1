// Package amqp implements a Qpid-like AMQP 1.0 broker used as the AMQP
// subject: frame parsing, a compact AMQP type decoder, performative
// handling (open/begin/attach/flow/transfer/disposition/detach/end/close),
// and the qpidd configuration surface. One seeded configuration-gated
// defect reproduces Table II row 9. The paper reports modest gains here
// ("AMQP's predefined structure limits exploration"), so the
// configuration-gated region is comparatively small.
package amqp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/core/configspec"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/protocols/probes"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/wire"
)

// Performative descriptor codes (AMQP 1.0 §2.7).
const (
	perfOpen        = 0x10
	perfBegin       = 0x11
	perfAttach      = 0x12
	perfFlow        = 0x13
	perfTransfer    = 0x14
	perfDisposition = 0x15
	perfDetach      = 0x16
	perfEnd         = 0x17
	perfClose       = 0x18
)

var errMalformed = errors.New("amqp: malformed frame")

// protoHeader is the AMQP 1.0 protocol handshake header.
var protoHeader = []byte{'A', 'M', 'Q', 'P', 0, 1, 0, 0}

// value is one decoded AMQP primitive. A decoded B aliases the frame.
type value struct {
	Kind byte // constructor byte
	U    uint64
	B    []byte
}

// frame is one decoded AMQP frame. A broker decodes every segment into
// the same frame, reusing its Fields.
type frame struct {
	Type    byte
	Channel uint16
	Code    byte // performative code
	Fields  []value
	Payload []byte
}

// decodeFrame parses one AMQP frame (after the protocol header phase)
// into f, whose slices alias data.
func decodeFrame(data []byte, f *frame) error {
	*f = frame{Fields: f.Fields[:0]}
	r := wire.NewReader(data)
	size := r.U32()
	doff := r.U8()
	f.Type = r.U8()
	f.Channel = r.U16()
	if r.Err() != nil || int(size) != len(data) || doff < 2 {
		return errMalformed
	}
	r.Skip(int(doff)*4 - 8)
	if r.Err() != nil {
		return errMalformed
	}
	// Described performative: 0x00 descriptor-constructor code.
	if r.U8() != 0x00 {
		return errMalformed
	}
	desc, err := decodeValue(r)
	if err != nil {
		return err
	}
	f.Code = byte(desc.U)
	// Field list.
	if f.Fields, err = decodeList(r, f.Fields); err != nil {
		return err
	}
	f.Payload = r.Rest()
	return nil
}

// decodeValue parses one primitive. An unsupported constructor is
// malformed.
func decodeValue(r *wire.Reader) (value, error) {
	c := r.U8()
	if r.Err() != nil {
		return value{}, errMalformed
	}
	v := value{Kind: c}
	switch c {
	case 0x40, 0x41, 0x42, 0x43, 0x44: // null, true, false, uint0, ulong0
		if c == 0x41 {
			v.U = 1
		}
	case 0x50, 0x52, 0x53: // ubyte, smalluint, smallulong
		v.U = uint64(r.U8())
	case 0x60: // ushort
		v.U = uint64(r.U16())
	case 0x70: // uint
		v.U = uint64(r.U32())
	case 0x80: // ulong
		v.U = r.U64()
	case 0xa0, 0xa1: // vbin8, str8
		n := int(r.U8())
		v.B = r.Bytes(n)
	case 0xb0, 0xb1: // vbin32, str32
		n := int(r.U32())
		if n > 1<<20 {
			return v, errMalformed
		}
		v.B = r.Bytes(n)
	default:
		return v, errMalformed
	}
	if r.Err() != nil {
		return v, errMalformed
	}
	return v, nil
}

// decodeList parses a list8/list32/list0 of primitives, appending them to
// dst.
func decodeList(r *wire.Reader, dst []value) ([]value, error) {
	c := r.U8()
	if r.Err() != nil {
		return dst, errMalformed
	}
	var count int
	switch c {
	case 0x45: // list0
		return dst, nil
	case 0xc0: // list8
		r.U8() // size
		count = int(r.U8())
	case 0xd0: // list32
		r.U32()
		count = int(r.U32())
	default:
		return dst, errMalformed
	}
	if r.Err() != nil || count > 64 {
		return dst, errMalformed
	}
	for i := 0; i < count; i++ {
		v, err := decodeValue(r)
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// appendFrame renders a performative frame, patching the list and frame
// sizes in place once the fields are written.
func appendFrame(w *wire.Writer, channel uint16, code byte, fields []value, payload []byte) {
	start := w.Len()
	w.U32(0) // frame size, patched below
	w.U8(2)  // doff
	w.U8(0)  // type AMQP
	w.U16(channel)
	w.U8(0x00)
	w.U8(0x53) // smallulong descriptor
	w.U8(code)
	// list8
	w.U8(0xc0)
	sizeAt := w.Len()
	w.U8(0) // list size, patched below
	w.U8(byte(len(fields)))
	for _, v := range fields {
		appendValue(w, v)
	}
	w.Bytes()[sizeAt] = byte(w.Len() - sizeAt - 1)
	w.Raw(payload)
	binary.BigEndian.PutUint32(w.Bytes()[start:], uint32(w.Len()-start))
}

func appendValue(w *wire.Writer, v value) {
	switch v.Kind {
	case 0x40, 0x41, 0x42, 0x43, 0x44:
		w.U8(v.Kind)
	case 0x50, 0x52, 0x53:
		w.U8(v.Kind)
		w.U8(byte(v.U))
	case 0x60:
		w.U8(v.Kind)
		w.U16(uint16(v.U))
	case 0x70:
		w.U8(v.Kind)
		w.U32(uint32(v.U))
	case 0xa1, 0xa0:
		w.U8(v.Kind)
		b := v.B
		if len(b) > 255 {
			b = b[:255]
		}
		w.U8(byte(len(b)))
		w.Raw(b)
	default:
		w.U8(0x40)
	}
}

// qpidd.conf-style configuration file.
const confFile = `# Qpid-style broker configuration
port=5672
max-connections=500
worker-threads=4
max-frame-size=65536
max-sessions=256
queue-limit=104857600
link-maintenance-interval=2
auth=no
# sasl-mechanisms=PLAIN
# acl-file=/etc/qpid/acl
# durable=true
# store-dir=/var/lib/qpidd
# mgmt-enable=yes
# federation-tag=site-a
`

type settings struct {
	port         int
	maxConns     int
	workers      int
	maxFrame     int
	maxSessions  int
	queueLimit   int
	linkInterval int
	auth         bool
	sasl         string
	aclFile      string
	durable      bool
	storeDir     string
	mgmt         bool
	federation   string
}

func parseSettings(cfg map[string]string) settings {
	return settings{
		port:         probes.Int(cfg, "port", 5672),
		maxConns:     probes.Int(cfg, "max-connections", 500),
		workers:      probes.Int(cfg, "worker-threads", 4),
		maxFrame:     probes.Int(cfg, "max-frame-size", 65536),
		maxSessions:  probes.Int(cfg, "max-sessions", 256),
		queueLimit:   probes.Int(cfg, "queue-limit", 104857600),
		linkInterval: probes.Int(cfg, "link-maintenance-interval", 2),
		auth:         probes.Bool(cfg, "auth", false),
		sasl:         probes.Str(cfg, "sasl-mechanisms", ""),
		aclFile:      probes.Str(cfg, "acl-file", ""),
		durable:      probes.Bool(cfg, "durable", false),
		storeDir:     probes.Str(cfg, "store-dir", ""),
		mgmt:         probes.Bool(cfg, "mgmt-enable", false),
		federation:   probes.Str(cfg, "federation-tag", ""),
	}
}

func (s settings) validate() error {
	if s.auth && s.sasl == "" {
		return fmt.Errorf("amqp: auth=yes requires sasl-mechanisms")
	}
	if s.durable && s.storeDir == "" {
		return fmt.Errorf("amqp: durable requires store-dir")
	}
	if s.maxFrame != 0 && s.maxFrame < 512 {
		return fmt.Errorf("amqp: max-frame-size below the AMQP minimum of 512")
	}
	if s.workers < 0 {
		return fmt.Errorf("amqp: worker-threads must be non-negative")
	}
	if s.maxSessions < 1 {
		return fmt.Errorf("amqp: max-sessions must be positive")
	}
	return nil
}

// Startup sites.
const (
	sBoot      = 100
	sWorkers   = 101
	sAuthInit  = 102
	sACL       = 103
	sStore     = 104
	sMgmt      = 105
	sFed       = 106
	sSynAuthA  = 110
	sSynStoreQ = 111
	sSynFedMg  = 112
)

func (s settings) startupCoverage(tr *coverage.Trace) {
	for i := uint64(0); i < 10; i++ {
		tr.Edge(sBoot, i)
	}
	tr.Edge(sBoot, 16+probes.Bucket(s.port))
	tr.Edge(sBoot, 32+probes.Bucket(s.maxConns))
	tr.Edge(sBoot, 48+probes.Bucket(s.maxFrame))
	tr.Edge(sBoot, 64+probes.Bucket(s.maxSessions))
	tr.Edge(sBoot, 80+probes.Bucket(s.queueLimit))
	tr.Edge(sBoot, 96+uint64(s.linkInterval%16))
	tr.Edge(sWorkers, probes.Bucket(s.workers))
	if s.workers == 0 {
		// Synchronous mode: connections are served by inline workers, a
		// distinct initialization path.
		for i := uint64(0); i < 4; i++ {
			tr.Edge(sWorkers, 16+i)
		}
	}

	if s.auth {
		for i := uint64(0); i < 7; i++ {
			tr.Edge(sAuthInit, i)
		}
		tr.Edge(sAuthInit, 16+probes.Hash(s.sasl)%8)
		if s.aclFile != "" {
			for i := uint64(0); i < 4; i++ {
				tr.Edge(sSynAuthA, i)
			}
		}
	}
	if s.aclFile != "" {
		for i := uint64(0); i < 5; i++ {
			tr.Edge(sACL, i)
		}
	}
	if s.durable {
		for i := uint64(0); i < 8; i++ {
			tr.Edge(sStore, i)
		}
		tr.Edge(sSynStoreQ, probes.Bucket(s.queueLimit))
	}
	if s.mgmt {
		for i := uint64(0); i < 6; i++ {
			tr.Edge(sMgmt, i)
		}
		if s.federation != "" {
			for i := uint64(0); i < 4; i++ {
				tr.Edge(sSynFedMg, i)
			}
		}
	}
	if s.federation != "" {
		for i := uint64(0); i < 6; i++ {
			tr.Edge(sFed, i)
		}
	}
}

// Message sites.
const (
	mProto    = 200
	mFrameErr = 201
	mFrame    = 202
	mPerf     = 210
	mOpen     = 220
	mBegin    = 230
	mAttach   = 240
	mFlow     = 250
	mTransfer = 260
	mDispo    = 270
	mDetach   = 280
	mSASL     = 290
	mMgmtOp   = 300
	mStoreOp  = 310
	mFedOp    = 320
)

const hashSpace = 2048

// transferSpace bounds the transfer-payload content family, the broker's
// widest region (Qpid's message-handling core).
const transferSpace = 1536

// Broker is the Qpid-like AMQP subject instance.
type Broker struct {
	cfg        settings
	tr         *coverage.Trace
	headerSeen bool
	opened     bool
	sessions   map[uint16]bool
	links      map[string]bool
	queues     map[string]int

	// Per-message scratch, reused by every Message: the decoded frame
	// and the response frames.
	frame frame
	resp  wire.Frames
}

// NewBroker returns an unstarted AMQP broker.
func NewBroker() *Broker {
	return &Broker{
		sessions: make(map[uint16]bool),
		links:    make(map[string]bool),
		queues:   make(map[string]int),
	}
}

// Start implements subject.Instance.
func (b *Broker) Start(cfg map[string]string, tr *coverage.Trace) error {
	st := parseSettings(cfg)
	if err := st.validate(); err != nil {
		return err
	}
	b.cfg = st
	b.tr = tr
	st.startupCoverage(tr)
	return nil
}

// SetTrace implements subject.Instance.
func (b *Broker) SetTrace(tr *coverage.Trace) { b.tr = tr }

// NewSession implements subject.Instance: a fresh TCP connection.
func (b *Broker) NewSession() {
	b.headerSeen = false
	b.opened = false
	clear(b.sessions)
	clear(b.links)
}

// Close implements subject.Instance.
func (b *Broker) Close() {}

// reply appends one performative frame to the response.
func (b *Broker) reply(channel uint16, code byte, fields ...value) [][]byte {
	appendFrame(&b.resp.W, channel, code, fields, nil)
	b.resp.End()
	return b.resp.Out()
}

// Message handles one client segment.
func (b *Broker) Message(data []byte) [][]byte {
	b.resp.Reset()
	// Protocol header exchange.
	if !b.headerSeen {
		if len(data) >= 8 && string(data[:4]) == "AMQP" {
			b.tr.Edge(mProto, uint64(data[4])<<8|uint64(data[5]))
			b.headerSeen = true
			if data[4] == 3 { // SASL header
				b.tr.Edge(mSASL, probes.B(b.cfg.auth))
				if b.cfg.auth {
					b.tr.Edge(mSASL, 2+probes.Hash(b.cfg.sasl)%16)
				}
			}
			b.resp.W.Raw(protoHeader)
			b.resp.End()
			return b.resp.Out()
		}
		b.tr.Edge(mProto, 0xffff)
		// Fall through: tolerate clients that skip the header.
		b.headerSeen = true
	}

	if b.cfg.maxFrame != 0 && len(data) > b.cfg.maxFrame {
		b.tr.Edge(mFrameErr, probes.Bucket(len(data)))
		return nil
	}
	f := &b.frame
	if err := decodeFrame(data, f); err != nil {
		b.tr.Edge(mFrameErr, 64+probes.Bucket(len(data)))
		return nil
	}
	b.tr.Edge(mFrame, uint64(f.Type)<<8|uint64(f.Channel%64))
	b.tr.Edge(mPerf, uint64(f.Code))
	b.tr.Edge(mPerf, 256+uint64(len(f.Fields)%16))
	for i, v := range f.Fields {
		if i >= 16 {
			break
		}
		b.tr.Edge(mPerf, 1024+uint64(i)<<8|uint64(v.Kind))
		if len(v.B) > 0 {
			b.tr.Edge(mPerf, 8192+probes.HashBytes(v.B)%192)
		}
	}

	switch f.Code {
	case perfOpen:
		return b.handleOpen(f)
	case perfBegin:
		return b.handleBegin(f)
	case perfAttach:
		return b.handleAttach(f)
	case perfFlow:
		b.tr.Edge(mFlow, probes.B(b.sessions[f.Channel]))
		if len(f.Fields) > 2 {
			b.tr.Edge(mFlow, 2+uint64(f.Fields[2].U%32))
			b.tr.Edge(mFlow, 64+(f.Fields[0].U%8)<<6|(f.Fields[1].U%8)<<3|(f.Fields[2].U%8))
		}
		return nil
	case perfTransfer:
		return b.handleTransfer(f)
	case perfDisposition:
		b.tr.Edge(mDispo, probes.B(b.sessions[f.Channel]))
		if len(f.Fields) > 1 {
			b.tr.Edge(mDispo, 2+probes.Bucket(int(f.Fields[1].U)))
			b.tr.Edge(mDispo, 64+(f.Fields[0].U%16)<<5|(f.Fields[1].U%32))
		}
		return nil
	case perfDetach:
		b.tr.Edge(mDetach, probes.B(len(b.links) > 0))
		return b.reply(f.Channel, perfDetach, value{Kind: 0x43})
	case perfEnd:
		_, had := b.sessions[f.Channel]
		b.tr.Edge(mDetach, 16+probes.B(had))
		delete(b.sessions, f.Channel)
		return b.reply(f.Channel, perfEnd)
	case perfClose:
		b.tr.Edge(mDetach, 32+probes.B(b.opened))
		b.opened = false
		return b.reply(0, perfClose)
	default:
		b.tr.Edge(mPerf, 512+uint64(f.Code))
		return nil
	}
}

// brokerID is the container-id the broker opens with.
var brokerID = []byte("qpid-broker")

func (b *Broker) handleOpen(f *frame) [][]byte {
	b.tr.Edge(mOpen, probes.B(b.opened))
	b.opened = true
	if len(f.Fields) > 0 {
		b.tr.Edge(mOpen, 2+probes.HashBytes(f.Fields[0].B)%256) // container-id
		if b.cfg.auth {
			b.tr.Edge(mSASL, 32+probes.HashBytes(f.Fields[0].B)%256) // identity check
		}
	}
	if len(f.Fields) > 2 {
		b.tr.Edge(mOpen, 128+probes.Bucket(int(f.Fields[2].U))) // max-frame-size
	}
	return b.reply(0, perfOpen, value{Kind: 0xa1, B: brokerID})
}

func (b *Broker) handleBegin(f *frame) [][]byte {
	b.tr.Edge(mBegin, probes.B(b.opened)<<1|probes.B(b.sessions[f.Channel]))
	if !b.opened {
		return nil
	}
	if len(b.sessions) >= b.cfg.maxSessions {
		b.tr.Edge(mBegin, 16)
		return nil
	}
	b.sessions[f.Channel] = true
	if len(f.Fields) > 1 {
		b.tr.Edge(mBegin, 32+probes.Bucket(int(f.Fields[1].U)))
	}
	return b.reply(f.Channel, perfBegin, value{Kind: 0x60, U: uint64(f.Channel)})
}

func (b *Broker) handleAttach(f *frame) [][]byte {
	b.tr.Edge(mAttach, probes.B(b.sessions[f.Channel]))
	if !b.sessions[f.Channel] {
		return nil
	}
	var name []byte
	if len(f.Fields) > 0 {
		name = f.Fields[0].B
	}
	nameHash := probes.HashBytes(name)
	b.tr.Edge(mAttach, 2+nameHash%hashSpace)
	b.tr.Edge(mAttach, hashSpace+8+probes.Bucket(len(name)))
	// Bug #9: with worker-threads=0 the broker spawns an inline worker
	// per link; the thread attributes are built in a fixed stack buffer
	// that an overlong link name overflows.
	if b.cfg.workers == 0 && len(name) > 128 {
		bugs.Trigger("AMQP", bugs.StackBufferOverflow, "pthread_create",
			"overlong link name overflows inline worker thread attributes")
	}
	role := uint64(0)
	if len(f.Fields) > 2 {
		role = f.Fields[2].U
		b.tr.Edge(mAttach, hashSpace+64+role%4)
	}
	if !b.links[string(name)] {
		b.links[string(name)] = true
	}
	if b.cfg.mgmt && string(name) == "$management" {
		b.tr.Edge(mMgmtOp, nameHash%32)
		b.tr.Edge(mMgmtOp, 1024+nameHash%64)
	}
	if b.cfg.federation != "" && len(name) > 0 && name[0] == '@' {
		b.tr.Edge(mFedOp, nameHash%64)
	}
	return b.reply(f.Channel, perfAttach, value{Kind: 0xa1, B: name}, value{Kind: 0x52, U: role ^ 1})
}

func (b *Broker) handleTransfer(f *frame) [][]byte {
	b.tr.Edge(mTransfer, probes.B(b.sessions[f.Channel])<<1|probes.B(len(b.links) > 0))
	if !b.sessions[f.Channel] {
		return nil
	}
	payloadHash := probes.HashBytes(f.Payload)
	b.tr.Edge(mTransfer, 4+payloadHash%transferSpace)
	b.tr.Edge(mTransfer, transferSpace+16+probes.Bucket(len(f.Payload)))
	if len(f.Fields) > 1 {
		b.tr.Edge(mTransfer, transferSpace+64+probes.Bucket(int(f.Fields[1].U))) // delivery-id
	}
	if len(f.Payload) >= 4 {
		// Message-section sniffing (header/properties/body descriptors).
		b.tr.Edge(mTransfer, transferSpace+128+uint64(f.Payload[0])<<2|uint64(f.Payload[2]%4))
	}
	queue := "default"
	b.queues[queue] += len(f.Payload)
	if b.cfg.queueLimit > 0 && b.queues[queue] > b.cfg.queueLimit {
		b.tr.Edge(mTransfer, transferSpace+8000)
		b.queues[queue] = 0
	}
	if b.cfg.durable {
		b.tr.Edge(mStoreOp, payloadHash%2048)
		b.tr.Edge(mStoreOp, 1536+probes.Bucket(len(f.Payload)))
	}
	if b.cfg.mgmt {
		b.tr.Edge(mMgmtOp, 64+payloadHash%960) // stats accounting
	}
	if b.cfg.federation != "" {
		b.tr.Edge(mFedOp, 128+payloadHash%896) // route tagging
	}
	// Settled transfers get a disposition.
	return b.reply(f.Channel, perfDisposition, value{Kind: 0x41, U: 1})
}

// amqpSubject implements subject.Subject.
type amqpSubject struct{}

// Subject returns the AMQP evaluation subject.
func Subject() subject.Subject { return amqpSubject{} }

func (amqpSubject) Info() subject.Info {
	return subject.Info{
		Protocol:       "AMQP",
		Implementation: "Qpid",
		Transport:      subject.Stream,
		Port:           5672,
	}
}

func (amqpSubject) ConfigInput() configspec.Input {
	return configspec.Input{
		Files: []configspec.File{{Name: "qpidd.conf", Content: confFile}},
	}
}

func (amqpSubject) PitXML() string { return pitXML }

func (amqpSubject) NewInstance() subject.Instance { return NewBroker() }
