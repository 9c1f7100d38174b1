package mqtt

import (
	"bytes"
	"slices"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/protocols/probes"
	"cmfuzz/internal/wire"
)

// Message-handling coverage sites.
const (
	mFixedHdr   = 200
	mRemLen     = 201
	mBadPacket  = 202
	mNotConn    = 203
	mOversize   = 204
	mConnect    = 300
	mConnAuth   = 310
	mConnWill   = 320
	mPublish    = 400
	mTopicHash  = 410
	mPayload    = 415
	mPubErr     = 420
	mRoute      = 430
	mRetain     = 440
	mQoSFlow    = 450
	mSubscribe  = 500
	mSubFilter  = 510
	mSubShare   = 520
	mSubRetain  = 525
	mUnsub      = 530
	mPing       = 540
	mDisconnect = 550
	mBridgeFwd  = 600
	mPersistOp  = 620
	mWSFrame    = 640
	mTLSRecord  = 660
	mACLCheck   = 680
)

// hashSpace bounds the content-hash coverage families; it calibrates the
// subject's reachable branch scale against Table I.
const hashSpace = 1536

// routeSpace bounds the subscription-routing coverage family.
const routeSpace = 1024

// session is one client's broker-side state. Its maps are made on first
// write and cleared, not remade, when the session is reused.
type session struct {
	clientID   string
	connected  bool
	clean      bool
	will       bool // a last will is registered
	subs       map[string]byte
	inflightIn map[uint16]byte // QoS2 inbound: PUBREC sent, awaiting PUBREL
	// refs counts the Broker.sessions entries naming this session: a
	// session named by none is free for the next connection.
	refs int
}

// reset empties the session for a new connection.
func (s *session) reset() {
	s.clientID = ""
	s.connected, s.clean, s.will = false, false, false
	clear(s.subs)
	clear(s.inflightIn)
}

// retainedMsg is one retained message, encoded once when it is retained:
// its PUBLISH frame as delivered at the QoS it was published with, retain
// flag set, with its own copy of the payload.
type retainedMsg struct {
	topic string
	frame wire.Writer
	qos   byte
	dup   bool
	// idAt is the frame offset of the packet id (when qos > 0) and bodyAt
	// that of the variable header.
	idAt, bodyAt int
	// edge is the topic's retained-delivery coverage state.
	edge uint64
}

// store encodes p as the retained message.
func (m *retainedMsg) store(p publishPacket) {
	p.Retain = true
	m.frame.Reset()
	appendPublish(&m.frame, p)
	m.qos, m.dup = p.QoS, p.Dup
	m.bodyAt = m.frame.Len() - (2 + len(p.Topic) + len(p.Payload))
	if p.QoS > 0 {
		m.bodyAt -= 2
	}
	m.idAt = m.bodyAt + 2 + len(p.Topic)
}

// deliver appends the message as delivered at qos <= m.qos: the stored
// frame itself at the same QoS, else a copy with the QoS flags patched
// and, at QoS 0, no packet id.
func (m *retainedMsg) deliver(f *wire.Frames, qos byte) {
	frame := m.frame.Bytes()
	switch {
	case qos == m.qos:
		f.Add(frame)
		return
	case qos > 0:
		f.W.U8(frame[0]&^0x06 | qos<<1)
		f.W.Raw(frame[1:])
	default:
		flags := byte(0x01)
		if m.dup {
			flags |= 0x08
		}
		appendHeader(&f.W, typePublish, flags, len(frame)-m.bodyAt-2)
		f.W.Raw(frame[m.bodyAt:m.idAt])
		f.W.Raw(frame[m.idAt+2:])
	}
	f.End()
}

// Broker is the Mosquitto-like MQTT subject instance.
type Broker struct {
	cfg      settings
	tr       *coverage.Trace
	cur      *session
	sessions map[string]*session
	retained map[string]*retainedMsg
	// retainedOrder lists retained's topics oldest first (an overwrite
	// keeps its place), maintained at publish time so that subscribe's
	// bounded scan picks the same topics every run — ranging over the map
	// made a broker holding more than 256 depend on Go's map order.
	retainedOrder []string
	connects      int
	// spare is a session left free by a connection that resumed a
	// stored one, kept for the next connection.
	spare *session

	// Per-message scratch, reused by every Message: decoded subscription
	// lists, a hashing key buffer and the response frames.
	subs    []subscription
	filters [][]byte
	key     []byte
	resp    wire.Frames
}

// NewBroker returns an unstarted broker instance.
func NewBroker() *Broker {
	return &Broker{
		sessions: make(map[string]*session),
		retained: make(map[string]*retainedMsg),
	}
}

// Start implements subject.Instance.
func (b *Broker) Start(cfg map[string]string, tr *coverage.Trace) error {
	s := parseSettings(cfg)
	if err := s.validate(); err != nil {
		return err
	}
	b.cfg = s
	b.tr = tr
	s.startupCoverage(tr)
	return nil
}

// SetTrace implements subject.Instance.
func (b *Broker) SetTrace(tr *coverage.Trace) { b.tr = tr }

// NewSession implements subject.Instance: a fresh client connection. It
// reuses the current session unless the broker stores it.
func (b *Broker) NewSession() {
	switch {
	case b.cur != nil && b.cur.refs == 0:
	case b.spare != nil:
		b.cur, b.spare = b.spare, nil
	default:
		b.cur = &session{}
		return
	}
	b.cur.reset()
}

// Close implements subject.Instance.
func (b *Broker) Close() {}

// storeSession names the current session clientID in b.sessions.
func (b *Broker) storeSession(clientID []byte) {
	if old := b.sessions[string(clientID)]; old != nil {
		old.refs--
	}
	b.cur.clientID = string(clientID)
	b.sessions[b.cur.clientID] = b.cur
	b.cur.refs++
}

// dropSession removes clientID from b.sessions.
func (b *Broker) dropSession(clientID string) {
	if old := b.sessions[clientID]; old != nil {
		old.refs--
		delete(b.sessions, clientID)
	}
}

// reply appends one frame to the response once it is written.
func (b *Broker) reply() [][]byte {
	b.resp.End()
	return b.resp.Out()
}

// Message handles one client packet and returns broker responses.
func (b *Broker) Message(payload []byte) [][]byte {
	b.resp.Reset()
	if b.cur == nil {
		b.NewSession()
	}
	if b.cfg.maxPacketSize != 0 && len(payload) > b.cfg.maxPacketSize {
		// Oversized packet destruction path. Bug #3: with a small
		// non-default max_packet_size the teardown path frees the packet
		// and then touches it again.
		b.tr.Edge(mOversize, probes.Bucket(len(payload)))
		if b.cfg.maxPacketSize <= 2048 {
			bugs.Trigger("MQTT", bugs.HeapUseAfterFree, "mqtt_packet_destroy",
				"oversized packet freed twice during reject path")
		}
		return nil
	}
	if b.cfg.websockets || b.cfg.tls {
		h := probes.HashBytes(payload)
		if b.cfg.websockets {
			// Websocket framing wraps every packet: extra decode region.
			b.tr.Edge(mWSFrame, h%640)
			b.tr.Edge(mWSFrame, 1024+probes.Bucket(len(payload)))
		}
		if b.cfg.tls {
			// Record-layer processing region.
			b.tr.Edge(mTLSRecord, h%512)
		}
	}
	pkt, err := decodePacket(payload)
	if err != nil {
		b.tr.Edge(mBadPacket, probes.Bucket(len(payload)))
		return nil
	}
	b.tr.Edge(mFixedHdr, uint64(pkt.Type)<<4|uint64(pkt.Flags))
	b.tr.Edge(mRemLen, probes.Bucket(len(pkt.Body)))

	if !b.cur.connected && pkt.Type != typeConnect {
		b.tr.Edge(mNotConn, uint64(pkt.Type))
		return nil
	}

	switch pkt.Type {
	case typeConnect:
		return b.handleConnect(pkt.Body)
	case typePublish:
		return b.handlePublish(pkt.Flags, pkt.Body)
	case typePuback, typePubrec, typePubcomp:
		return b.handleOutboundAck(pkt.Type, pkt.Body)
	case typePubrel:
		return b.handlePubrel(pkt.Body)
	case typeSubscribe:
		return b.handleSubscribe(pkt.Body)
	case typeUnsubscribe:
		return b.handleUnsubscribe(pkt.Body)
	case typePingreq:
		b.tr.Hit(mPing)
		appendHeader(&b.resp.W, typePingresp, 0, 0)
		return b.reply()
	case typeDisconnect:
		return b.handleDisconnect()
	default:
		b.tr.Edge(mBadPacket, 64+uint64(pkt.Type))
		return nil
	}
}

func (b *Broker) connack(sessionPresent bool, code byte) [][]byte {
	appendConnack(&b.resp.W, sessionPresent, code)
	return b.reply()
}

func (b *Broker) handleConnect(body []byte) [][]byte {
	c, err := decodeConnect(body)
	if err != nil {
		b.tr.Edge(mConnect, 0)
		return nil
	}
	b.tr.Edge(mConnect, 1+probes.HashBytes(c.ProtoName)%8)
	b.tr.Edge(mConnect, 16+uint64(c.ProtoLevel))
	b.tr.Edge(mConnect, 300+uint64(c.Flags))
	b.tr.Edge(mConnect, 600+probes.Bucket(int(c.KeepAlive)))
	b.tr.Edge(mConnect, 650+probes.Bucket(len(c.ClientID)))
	b.tr.Edge(mConnect, 700+probes.HashBytes(c.ClientID)%128)

	if string(c.ProtoName) != "MQTT" && string(c.ProtoName) != "MQIsdp" {
		b.tr.Edge(mConnect, 2000)
		return b.connack(false, 1)
	}
	if c.ProtoLevel != 4 && c.ProtoLevel != 3 {
		b.tr.Edge(mConnect, 2001)
		return b.connack(false, 1)
	}

	// Authentication.
	if b.cfg.passwordFile != "" {
		b.tr.Edge(mConnAuth, probes.HashBytes(c.Username)%256)
		b.tr.Edge(mConnAuth, 600+probes.HashBytes(c.Password)%128)
		if len(c.Username) == 0 && !b.cfg.allowAnonymous {
			b.tr.Edge(mConnAuth, 300)
			return b.connack(false, 5)
		}
		if len(c.Username) != 0 {
			b.tr.Edge(mConnAuth, 301+probes.Bucket(len(c.Password)))
			if len(c.Password) == 0 {
				b.tr.Edge(mConnAuth, 330)
				return b.connack(false, 4)
			}
		}
	} else if !b.cfg.allowAnonymous {
		b.tr.Edge(mConnAuth, 340)
		return b.connack(false, 5)
	}

	b.connects++
	// Bug #4: with max_connections at the 0/1 boundary the accept loop
	// dereferences the freed listener slot on the second connection.
	if b.cfg.maxConnections <= 1 && b.connects >= 2 && !c.CleanSession {
		bugs.Trigger("MQTT", bugs.SEGV, "loop_accepted",
			"second connection with max_connections<=1 dereferences freed slot")
	}
	if len(b.sessions) >= b.cfg.maxConnections && b.sessions[string(c.ClientID)] == nil {
		b.tr.Edge(mConnect, 2002)
		return b.connack(false, 3)
	}

	sessionPresent := false
	if old, ok := b.sessions[string(c.ClientID)]; ok && !c.CleanSession {
		b.tr.Edge(mConnect, 2010)
		if b.cur.refs == 0 && b.cur != old {
			b.spare = b.cur
		}
		b.cur = old
		sessionPresent = true
	} else {
		b.storeSession(c.ClientID)
	}
	b.cur.connected = true
	b.cur.clean = c.CleanSession

	if c.Flags&0x04 != 0 {
		b.tr.Edge(mConnWill, uint64(c.WillQoS)<<1|probes.B(c.WillRetain))
		b.tr.Edge(mConnWill, 8+probes.HashBytes(c.WillTopic)%32)
		b.cur.will = true
	}
	return b.connack(sessionPresent, 0)
}

var (
	slash       = []byte{'/'}
	sysPrefix   = []byte("$SYS")
	sharePrefix = []byte("$share/")
)

func (b *Broker) handlePublish(flags byte, body []byte) [][]byte {
	p, err := decodePublish(flags, body)
	if err != nil {
		b.tr.Edge(mPubErr, 0)
		return nil
	}
	topicHash, payloadHash := probes.HashBytes(p.Topic), probes.HashBytes(p.Payload)
	b.tr.Edge(mPublish, uint64(p.QoS)<<2|probes.B(p.Retain)<<1|probes.B(p.Dup))
	b.tr.Edge(mTopicHash, topicHash%hashSpace)
	b.tr.Edge(mPayload, payloadHash%hashSpace)
	b.tr.Edge(mPublish, 16+probes.Bucket(len(p.Payload)))
	levels := bytes.Count(p.Topic, slash)
	b.tr.Edge(mPublish, 64+uint64(levels%32))

	switch {
	case len(p.Topic) == 0:
		b.tr.Edge(mPubErr, 1)
		return nil
	case bytes.ContainsAny(p.Topic, "#+"):
		b.tr.Edge(mPubErr, 2)
		return nil
	case b.cfg.msgSizeLimit > 0 && len(p.Payload) > b.cfg.msgSizeLimit:
		b.tr.Edge(mPubErr, 3+probes.Bucket(len(p.Payload)))
		return nil
	}

	qos := p.QoS
	if int(qos) > b.cfg.maxQoS {
		b.tr.Edge(mQoSFlow, 100+uint64(qos))
		qos = byte(b.cfg.maxQoS)
	}
	if b.cfg.upgradeQoS && int(qos) < b.cfg.maxQoS {
		b.tr.Edge(mQoSFlow, 110+uint64(qos))
		qos = byte(b.cfg.maxQoS)
	}

	// Retained message handling.
	if p.Retain {
		if !b.cfg.retainOK {
			b.tr.Edge(mRetain, 0)
		} else {
			m, overwrite := b.retained[string(p.Topic)]
			b.tr.Edge(mRetain, 1+probes.B(overwrite))
			b.tr.Edge(mRetain, 4+topicHash%128)
			// Bug #5: with persistence and QoS0 queueing enabled, the
			// overwritten retained message's persistence record is never
			// released.
			if overwrite && b.cfg.persistence && b.cfg.queueQoS0 && len(p.Payload) > 0 {
				bugs.Trigger("MQTT", bugs.MemoryLeak, "multiple functions",
					"retained message overwrite leaks persisted copy")
			}
			if len(p.Payload) == 0 {
				b.tr.Edge(mRetain, 200)
				if overwrite {
					delete(b.retained, m.topic)
					i := slices.Index(b.retainedOrder, m.topic)
					b.retainedOrder = slices.Delete(b.retainedOrder, i, i+1)
				}
			} else if len(b.retained) < 512 {
				if !overwrite {
					m = &retainedMsg{topic: string(p.Topic), edge: topicHash % 256}
					b.retained[m.topic] = m
					b.retainedOrder = append(b.retainedOrder, m.topic)
				}
				m.store(p)
			}
		}
	}

	// QoS acknowledgement flows.
	switch qos {
	case 1:
		b.tr.Edge(mQoSFlow, probes.Bucket(int(p.PacketID)))
		appendAck(&b.resp.W, typePuback, p.PacketID)
		b.resp.End()
	case 2:
		_, dupInflight := b.cur.inflightIn[p.PacketID]
		b.tr.Edge(mQoSFlow, 16+probes.B(dupInflight)<<1|probes.B(p.Dup))
		// Bug #1: in bridge mode, a duplicate QoS2 PUBLISH re-enqueues the
		// freed message object.
		if b.cfg.bridge && p.Dup && dupInflight {
			bugs.Trigger("MQTT", bugs.HeapUseAfterFree, "Connection::newMessage",
				"duplicate QoS2 publish re-enqueues freed bridge message")
		}
		if len(b.cur.inflightIn) < b.cfg.maxInflight {
			if b.cur.inflightIn == nil {
				b.cur.inflightIn = make(map[uint16]byte)
			}
			b.cur.inflightIn[p.PacketID] = 1
			b.tr.Edge(mQoSFlow, 32+probes.Bucket(len(b.cur.inflightIn)))
		} else {
			b.tr.Edge(mQoSFlow, 48)
		}
		appendAck(&b.resp.W, typePubrec, p.PacketID)
		b.resp.End()
	}

	// Routing to subscribers.
	matched := 0
	for filter, subQoS := range b.cur.subs {
		if topicMatches(filter, p.Topic) {
			matched++
			b.key = append(append(append(b.key[:0], filter...), 0), p.Topic...)
			b.tr.Edge(mRoute, probes.HashBytes(b.key)%routeSpace)
			fwd := p
			fwd.QoS = minQoS(qos, subQoS)
			fwd.Retain = false
			if fwd.QoS == 0 && !b.cfg.queueQoS0 {
				b.tr.Edge(mRoute, routeSpace+1)
			}
			appendPublish(&b.resp.W, fwd)
			b.resp.End()
		}
	}
	b.tr.Edge(mRoute, routeSpace+8+uint64(matched%16))

	// ACL enforcement region.
	if b.cfg.aclFile != "" {
		b.tr.Edge(mACLCheck, topicHash%384)
		if bytes.HasPrefix(p.Topic, sysPrefix) {
			b.tr.Edge(mACLCheck, 400)
			return b.resp.Out()
		}
	}

	// Bridge forwarding region.
	if b.cfg.bridge && topicMatches(b.cfg.bridgeTopic, p.Topic) {
		b.tr.Edge(mBridgeFwd, topicHash%512)
		b.tr.Edge(mBridgeFwd, 768+uint64(qos))
		b.tr.Edge(mBridgeFwd, 780+payloadHash%256)
		if b.cfg.bridgeProto == "mqttv50" {
			b.tr.Edge(mBridgeFwd, 1040+probes.Bucket(len(p.Payload)))
		}
		if b.cfg.persistence {
			b.tr.Edge(mBridgeFwd, 1072+topicHash%128)
		}
	}

	// Persistence region.
	if b.cfg.persistence && qos > 0 {
		b.tr.Edge(mPersistOp, topicHash%512)
		b.tr.Edge(mPersistOp, 512+probes.Bucket(len(p.Payload)))
		b.tr.Edge(mPersistOp, 544+payloadHash%192)
	}
	return b.resp.Out()
}

func (b *Broker) handleOutboundAck(ptype byte, body []byte) [][]byte {
	if _, err := decodePacketID(body); err != nil {
		b.tr.Edge(mQoSFlow, 200)
		return nil
	}
	// The broker records no outbound QoS 1/2 packet id, so every ack
	// names an unknown one.
	b.tr.Edge(mQoSFlow, 210+uint64(ptype)<<1)
	return nil
}

func (b *Broker) handlePubrel(body []byte) [][]byte {
	id, err := decodePacketID(body)
	if err != nil {
		b.tr.Edge(mQoSFlow, 300)
		return nil
	}
	_, pending := b.cur.inflightIn[id]
	b.tr.Edge(mQoSFlow, 310+probes.B(pending))
	if pending {
		// Deep QoS2 completion: requires the full PUBLISH/PUBREL sequence.
		b.tr.Edge(mQoSFlow, 320+probes.Bucket(int(id)))
		delete(b.cur.inflightIn, id)
	}
	appendAck(&b.resp.W, typePubcomp, id)
	return b.reply()
}

func (b *Broker) handleSubscribe(body []byte) [][]byte {
	id, subs, err := decodeSubscribe(body, b.subs[:0])
	b.subs = subs
	if err != nil {
		b.tr.Edge(mSubscribe, 0)
		return nil
	}
	b.tr.Edge(mSubscribe, 1+uint64(len(subs)%16))
	// The SUBACK leads the response: write it first with room for one
	// return code per subscription, filled in below.
	appendHeader(&b.resp.W, typeSuback, 0, 2+len(subs))
	b.resp.W.U16(id)
	for range subs {
		b.resp.W.U8(0)
	}
	suback := b.resp.End()
	codes := suback[len(suback)-len(subs):]
	for i, sub := range subs {
		filterHash := probes.HashBytes(sub.Filter)
		b.tr.Edge(mSubFilter, filterHash%hashSpace)
		b.tr.Edge(mSubFilter, hashSpace+uint64(bytes.Count(sub.Filter, slash)%32))
		if !validFilter(sub.Filter) {
			b.tr.Edge(mSubFilter, hashSpace+64)
			codes[i] = 0x80
			continue
		}
		if bytes.HasPrefix(sub.Filter, sharePrefix) {
			b.tr.Edge(mSubShare, filterHash%64)
			// Bug #2: the websocket listener's shared-subscription node
			// manager walks a freed address list.
			if b.cfg.websockets {
				bugs.Trigger("MQTT", bugs.HeapUseAfterFree, "neu_node_manager_get_addrs_all",
					"shared subscription over websockets walks freed node list")
			}
		}
		if bytes.HasPrefix(sub.Filter, sysPrefix) {
			b.tr.Edge(mSubShare, 128+filterHash%32)
		}
		granted := sub.QoS
		if granted > 2 {
			b.tr.Edge(mSubFilter, hashSpace+65)
			codes[i] = 0x80
			continue
		}
		if int(granted) > b.cfg.maxQoS {
			granted = byte(b.cfg.maxQoS)
			b.tr.Edge(mSubFilter, hashSpace+70+uint64(sub.QoS))
		}
		if len(b.cur.subs) >= 128 {
			// Per-session subscription quota (resource management).
			b.tr.Edge(mSubFilter, hashSpace+80)
			codes[i] = 0x80
			continue
		}
		if b.cur.subs == nil {
			b.cur.subs = make(map[string]byte)
		}
		b.cur.subs[string(sub.Filter)] = granted
		codes[i] = granted

		// Retained delivery on subscribe (scan bounded like a topic-trie
		// lookup would be): the 256 longest-retained topics.
		for _, topic := range b.retainedOrder[:min(len(b.retainedOrder), 256)] {
			if topicMatches(sub.Filter, topic) {
				m := b.retained[topic]
				b.tr.Edge(mSubRetain, m.edge)
				m.deliver(&b.resp, minQoS(m.qos, granted))
			}
		}
	}
	return b.resp.Out()
}

func (b *Broker) handleUnsubscribe(body []byte) [][]byte {
	id, filters, err := decodeUnsubscribe(body, b.filters[:0])
	b.filters = filters
	if err != nil {
		b.tr.Edge(mUnsub, 0)
		return nil
	}
	for _, f := range filters {
		_, had := b.cur.subs[string(f)]
		b.tr.Edge(mUnsub, 1+probes.B(had))
		b.tr.Edge(mUnsub, 4+probes.HashBytes(f)%64)
		delete(b.cur.subs, string(f))
	}
	appendAck(&b.resp.W, typeUnsuback, id)
	return b.reply()
}

func (b *Broker) handleDisconnect() [][]byte {
	b.tr.Edge(mDisconnect, probes.B(b.cur.will))
	b.cur.will = false // clean disconnect discards the will
	b.cur.connected = false
	if b.cur.clean {
		b.tr.Edge(mDisconnect, 2)
		b.dropSession(b.cur.clientID)
	}
	return nil
}

// topicMatches implements MQTT filter matching with + and # wildcards,
// allocation-free (it runs on the broker's hottest path).
func topicMatches[F, T string | []byte](filter F, topic T) bool {
	fi, ti := 0, 0
	for {
		fEnd := levelEnd(filter, fi)
		if fEnd-fi == 1 && filter[fi] == '#' {
			return true
		}
		tEnd := levelEnd(topic, ti)
		if !(fEnd-fi == 1 && filter[fi] == '+') && !sameLevel(filter[fi:fEnd], topic[ti:tEnd]) {
			return false
		}
		fLast, tLast := fEnd == len(filter), tEnd == len(topic)
		if fLast || tLast {
			// "sport/#" matches "sport": a trailing "/#" includes the
			// parent level (MQTT spec).
			if tLast && !fLast {
				return len(filter)-fEnd == 2 && filter[fEnd+1] == '#'
			}
			return fLast && tLast
		}
		fi = fEnd + 1
		ti = tEnd + 1
	}
}

// levelEnd returns the end of the topic level starting at i: the index of
// the next '/' or len(s).
func levelEnd[S string | []byte](s S, i int) int {
	for i < len(s) && s[i] != '/' {
		i++
	}
	return i
}

func sameLevel[A, B string | []byte](a A, b B) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// validFilter enforces MQTT wildcard placement: '#' only as the final
// level, '+' only as a whole level.
func validFilter(f []byte) bool {
	if len(f) == 0 {
		return false
	}
	for i := 0; ; {
		end := levelEnd(f, i)
		level := f[i:end]
		last := end == len(f)
		if bytes.IndexByte(level, '#') >= 0 && (len(level) != 1 || !last) {
			return false
		}
		if bytes.IndexByte(level, '+') >= 0 && len(level) != 1 {
			return false
		}
		if last {
			return true
		}
		i = end + 1
	}
}

func minQoS(a, b byte) byte {
	if a < b {
		return a
	}
	return b
}
