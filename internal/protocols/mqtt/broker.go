package mqtt

import (
	"slices"
	"strings"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/protocols/probes"
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

// willInfo is a session's last-will registration.
type willInfo struct {
	topic   string
	payload []byte
	qos     byte
	retain  bool
}

// session is one client's broker-side state.
type session struct {
	clientID    string
	connected   bool
	clean       bool
	authed      bool
	subs        map[string]byte
	inflightIn  map[uint16]byte // QoS2 inbound: PUBREC sent, awaiting PUBREL
	inflightOut map[uint16]byte
	will        *willInfo
}

func newSession() *session {
	return &session{
		subs:        make(map[string]byte),
		inflightIn:  make(map[uint16]byte),
		inflightOut: make(map[uint16]byte),
	}
}

// Broker is the Mosquitto-like MQTT subject instance.
type Broker struct {
	cfg      settings
	tr       *coverage.Trace
	cur      *session
	sessions map[string]*session
	retained map[string]publishPacket
	// retainedOrder lists retained's topics oldest first (an overwrite
	// keeps its place), maintained at publish time so that subscribe's
	// bounded scan picks the same topics every run — ranging over the map
	// made a broker holding more than 256 depend on Go's map order.
	retainedOrder []string
	connects      int
}

// NewBroker returns an unstarted broker instance.
func NewBroker() *Broker {
	return &Broker{
		sessions: make(map[string]*session),
		retained: make(map[string]publishPacket),
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

// NewSession implements subject.Instance: a fresh client connection.
func (b *Broker) NewSession() { b.cur = newSession() }

// Close implements subject.Instance.
func (b *Broker) Close() {}

// Message handles one client packet and returns broker responses.
func (b *Broker) Message(payload []byte) [][]byte {
	if b.cur == nil {
		b.cur = newSession()
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
	if b.cfg.websockets {
		// Websocket framing wraps every packet: extra decode region.
		b.tr.Edge(mWSFrame, probes.HashBytes(payload)%640)
		b.tr.Edge(mWSFrame, 1024+probes.Bucket(len(payload)))
	}
	if b.cfg.tls {
		// Record-layer processing region.
		b.tr.Edge(mTLSRecord, probes.HashBytes(payload)%512)
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
		return [][]byte{encode(typePingresp, 0, nil)}
	case typeDisconnect:
		return b.handleDisconnect()
	default:
		b.tr.Edge(mBadPacket, 64+uint64(pkt.Type))
		return nil
	}
}

func (b *Broker) handleConnect(body []byte) [][]byte {
	c, err := decodeConnect(body)
	if err != nil {
		b.tr.Edge(mConnect, 0)
		return nil
	}
	b.tr.Edge(mConnect, 1+probes.Hash(c.ProtoName)%8)
	b.tr.Edge(mConnect, 16+uint64(c.ProtoLevel))
	b.tr.Edge(mConnect, 300+uint64(c.Flags))
	b.tr.Edge(mConnect, 600+probes.Bucket(int(c.KeepAlive)))
	b.tr.Edge(mConnect, 650+probes.Bucket(len(c.ClientID)))
	b.tr.Edge(mConnect, 700+probes.Hash(c.ClientID)%128)

	if c.ProtoName != "MQTT" && c.ProtoName != "MQIsdp" {
		b.tr.Edge(mConnect, 2000)
		return [][]byte{encodeConnack(false, 1)}
	}
	if c.ProtoLevel != 4 && c.ProtoLevel != 3 {
		b.tr.Edge(mConnect, 2001)
		return [][]byte{encodeConnack(false, 1)}
	}

	// Authentication.
	if b.cfg.passwordFile != "" {
		b.tr.Edge(mConnAuth, probes.Hash(c.Username)%256)
		b.tr.Edge(mConnAuth, 600+probes.HashBytes(c.Password)%128)
		if c.Username == "" && !b.cfg.allowAnonymous {
			b.tr.Edge(mConnAuth, 300)
			return [][]byte{encodeConnack(false, 5)}
		}
		if c.Username != "" {
			b.tr.Edge(mConnAuth, 301+probes.Bucket(len(c.Password)))
			if len(c.Password) == 0 {
				b.tr.Edge(mConnAuth, 330)
				return [][]byte{encodeConnack(false, 4)}
			}
		}
	} else if !b.cfg.allowAnonymous {
		b.tr.Edge(mConnAuth, 340)
		return [][]byte{encodeConnack(false, 5)}
	}

	b.connects++
	// Bug #4: with max_connections at the 0/1 boundary the accept loop
	// dereferences the freed listener slot on the second connection.
	if b.cfg.maxConnections <= 1 && b.connects >= 2 && !c.CleanSession {
		bugs.Trigger("MQTT", bugs.SEGV, "loop_accepted",
			"second connection with max_connections<=1 dereferences freed slot")
	}
	if len(b.sessions) >= b.cfg.maxConnections && b.sessions[c.ClientID] == nil {
		b.tr.Edge(mConnect, 2002)
		return [][]byte{encodeConnack(false, 3)}
	}

	sessionPresent := false
	if old, ok := b.sessions[c.ClientID]; ok && !c.CleanSession {
		b.tr.Edge(mConnect, 2010)
		b.cur = old
		sessionPresent = true
	} else {
		b.cur.clientID = c.ClientID
		b.sessions[c.ClientID] = b.cur
	}
	b.cur.connected = true
	b.cur.clean = c.CleanSession
	b.cur.authed = c.Username != ""

	if c.Flags&0x04 != 0 {
		b.tr.Edge(mConnWill, uint64(c.WillQoS)<<1|probes.B(c.WillRetain))
		b.tr.Edge(mConnWill, 8+probes.Hash(c.WillTopic)%32)
		b.cur.will = &willInfo{topic: c.WillTopic, payload: c.WillMessage, qos: c.WillQoS, retain: c.WillRetain}
	}
	return [][]byte{encodeConnack(sessionPresent, 0)}
}

func (b *Broker) handlePublish(flags byte, body []byte) [][]byte {
	p, err := decodePublish(flags, body)
	if err != nil {
		b.tr.Edge(mPubErr, 0)
		return nil
	}
	b.tr.Edge(mPublish, uint64(p.QoS)<<2|probes.B(p.Retain)<<1|probes.B(p.Dup))
	b.tr.Edge(mTopicHash, probes.Hash(p.Topic)%hashSpace)
	b.tr.Edge(mPayload, probes.HashBytes(p.Payload)%hashSpace)
	b.tr.Edge(mPublish, 16+probes.Bucket(len(p.Payload)))
	levels := strings.Count(p.Topic, "/")
	b.tr.Edge(mPublish, 64+uint64(levels%32))

	switch {
	case p.Topic == "":
		b.tr.Edge(mPubErr, 1)
		return nil
	case strings.ContainsAny(p.Topic, "#+"):
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

	var out [][]byte
	// Retained message handling.
	if p.Retain {
		if !b.cfg.retainOK {
			b.tr.Edge(mRetain, 0)
		} else {
			_, overwrite := b.retained[p.Topic]
			b.tr.Edge(mRetain, 1+probes.B(overwrite))
			b.tr.Edge(mRetain, 4+probes.Hash(p.Topic)%128)
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
					delete(b.retained, p.Topic)
					i := slices.Index(b.retainedOrder, p.Topic)
					b.retainedOrder = slices.Delete(b.retainedOrder, i, i+1)
				}
			} else if len(b.retained) < 512 {
				if !overwrite {
					b.retainedOrder = append(b.retainedOrder, p.Topic)
				}
				b.retained[p.Topic] = p
			}
		}
	}

	// QoS acknowledgement flows.
	switch qos {
	case 1:
		b.tr.Edge(mQoSFlow, probes.Bucket(int(p.PacketID)))
		out = append(out, encodeAck(typePuback, p.PacketID))
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
			b.cur.inflightIn[p.PacketID] = 1
			b.tr.Edge(mQoSFlow, 32+probes.Bucket(len(b.cur.inflightIn)))
		} else {
			b.tr.Edge(mQoSFlow, 48)
		}
		out = append(out, encodeAck(typePubrec, p.PacketID))
	}

	// Routing to subscribers.
	matched := 0
	for filter, subQoS := range b.cur.subs {
		if topicMatches(filter, p.Topic) {
			matched++
			b.tr.Edge(mRoute, probes.Hash(filter+"\x00"+p.Topic)%routeSpace)
			fwd := p
			fwd.QoS = minQoS(qos, subQoS)
			fwd.Retain = false
			if fwd.QoS == 0 && !b.cfg.queueQoS0 {
				b.tr.Edge(mRoute, routeSpace+1)
			}
			out = append(out, encodePublish(fwd))
		}
	}
	b.tr.Edge(mRoute, routeSpace+8+uint64(matched%16))

	// ACL enforcement region.
	if b.cfg.aclFile != "" {
		b.tr.Edge(mACLCheck, probes.Hash(p.Topic)%384)
		if strings.HasPrefix(p.Topic, "$SYS") {
			b.tr.Edge(mACLCheck, 400)
			return out
		}
	}

	// Bridge forwarding region.
	if b.cfg.bridge && topicMatches(b.cfg.bridgeTopic, p.Topic) {
		b.tr.Edge(mBridgeFwd, probes.Hash(p.Topic)%512)
		b.tr.Edge(mBridgeFwd, 768+uint64(qos))
		b.tr.Edge(mBridgeFwd, 780+probes.HashBytes(p.Payload)%256)
		if b.cfg.bridgeProto == "mqttv50" {
			b.tr.Edge(mBridgeFwd, 1040+probes.Bucket(len(p.Payload)))
		}
		if b.cfg.persistence {
			b.tr.Edge(mBridgeFwd, 1072+probes.Hash(p.Topic)%128)
		}
	}

	// Persistence region.
	if b.cfg.persistence && qos > 0 {
		b.tr.Edge(mPersistOp, probes.Hash(p.Topic)%512)
		b.tr.Edge(mPersistOp, 512+probes.Bucket(len(p.Payload)))
		b.tr.Edge(mPersistOp, 544+probes.HashBytes(p.Payload)%192)
	}
	return out
}

func (b *Broker) handleOutboundAck(ptype byte, body []byte) [][]byte {
	id, err := decodePacketID(body)
	if err != nil {
		b.tr.Edge(mQoSFlow, 200)
		return nil
	}
	_, known := b.cur.inflightOut[id]
	b.tr.Edge(mQoSFlow, 210+uint64(ptype)<<1|probes.B(known))
	if known {
		if ptype == typePubrec {
			return [][]byte{encodeAck(typePubrel, id)}
		}
		delete(b.cur.inflightOut, id)
	}
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
	return [][]byte{encodeAck(typePubcomp, id)}
}

func (b *Broker) handleSubscribe(body []byte) [][]byte {
	id, subs, err := decodeSubscribe(body)
	if err != nil {
		b.tr.Edge(mSubscribe, 0)
		return nil
	}
	b.tr.Edge(mSubscribe, 1+uint64(len(subs)%16))
	codes := make([]byte, 0, len(subs))
	var out [][]byte
	for _, sub := range subs {
		b.tr.Edge(mSubFilter, probes.Hash(sub.Filter)%hashSpace)
		b.tr.Edge(mSubFilter, hashSpace+uint64(strings.Count(sub.Filter, "/")%32))
		if !validFilter(sub.Filter) {
			b.tr.Edge(mSubFilter, hashSpace+64)
			codes = append(codes, 0x80)
			continue
		}
		if strings.HasPrefix(sub.Filter, "$share/") {
			b.tr.Edge(mSubShare, probes.Hash(sub.Filter)%64)
			// Bug #2: the websocket listener's shared-subscription node
			// manager walks a freed address list.
			if b.cfg.websockets {
				bugs.Trigger("MQTT", bugs.HeapUseAfterFree, "neu_node_manager_get_addrs_all",
					"shared subscription over websockets walks freed node list")
			}
		}
		if strings.HasPrefix(sub.Filter, "$SYS") {
			b.tr.Edge(mSubShare, 128+probes.Hash(sub.Filter)%32)
		}
		granted := sub.QoS
		if granted > 2 {
			b.tr.Edge(mSubFilter, hashSpace+65)
			codes = append(codes, 0x80)
			continue
		}
		if int(granted) > b.cfg.maxQoS {
			granted = byte(b.cfg.maxQoS)
			b.tr.Edge(mSubFilter, hashSpace+70+uint64(sub.QoS))
		}
		if len(b.cur.subs) >= 128 {
			// Per-session subscription quota (resource management).
			b.tr.Edge(mSubFilter, hashSpace+80)
			codes = append(codes, 0x80)
			continue
		}
		b.cur.subs[sub.Filter] = granted
		codes = append(codes, granted)

		// Retained delivery on subscribe (scan bounded like a topic-trie
		// lookup would be): the 256 longest-retained topics.
		for _, topic := range b.retainedOrder[:min(len(b.retainedOrder), 256)] {
			if topicMatches(sub.Filter, topic) {
				b.tr.Edge(mSubRetain, probes.Hash(topic)%256)
				fwd := b.retained[topic]
				fwd.QoS = minQoS(fwd.QoS, granted)
				fwd.Retain = true
				out = append(out, encodePublish(fwd))
			}
		}
	}
	out = append([][]byte{encodeSuback(id, codes)}, out...)
	return out
}

func (b *Broker) handleUnsubscribe(body []byte) [][]byte {
	id, filters, err := decodeUnsubscribe(body)
	if err != nil {
		b.tr.Edge(mUnsub, 0)
		return nil
	}
	for _, f := range filters {
		_, had := b.cur.subs[f]
		b.tr.Edge(mUnsub, 1+probes.B(had))
		b.tr.Edge(mUnsub, 4+probes.Hash(f)%64)
		delete(b.cur.subs, f)
	}
	return [][]byte{encodeAck(typeUnsuback, id)}
}

func (b *Broker) handleDisconnect() [][]byte {
	b.tr.Edge(mDisconnect, probes.B(b.cur.will != nil))
	b.cur.will = nil // clean disconnect discards the will
	b.cur.connected = false
	if b.cur.clean {
		b.tr.Edge(mDisconnect, 2)
		delete(b.sessions, b.cur.clientID)
	}
	return nil
}

// topicMatches implements MQTT filter matching with + and # wildcards,
// allocation-free (it runs on the broker's hottest path).
func topicMatches(filter, topic string) bool {
	fi, ti := 0, 0
	for {
		fEnd := strings.IndexByte(filter[fi:], '/')
		var fLevel string
		if fEnd < 0 {
			fLevel = filter[fi:]
		} else {
			fLevel = filter[fi : fi+fEnd]
		}
		if fLevel == "#" {
			return true
		}
		tEnd := strings.IndexByte(topic[ti:], '/')
		var tLevel string
		if tEnd < 0 {
			tLevel = topic[ti:]
		} else {
			tLevel = topic[ti : ti+tEnd]
		}
		if fLevel != "+" && fLevel != tLevel {
			return false
		}
		if fEnd < 0 || tEnd < 0 {
			// "sport/#" matches "sport": a trailing "/#" includes the
			// parent level (MQTT spec).
			if tEnd < 0 && fEnd >= 0 {
				return filter[fi+fEnd:] == "/#"
			}
			return fEnd < 0 && tEnd < 0
		}
		fi += fEnd + 1
		ti += tEnd + 1
	}
}

// validFilter enforces MQTT wildcard placement: '#' only as the final
// level, '+' only as a whole level.
func validFilter(f string) bool {
	if f == "" {
		return false
	}
	levels := strings.Split(f, "/")
	for i, l := range levels {
		if strings.Contains(l, "#") && (l != "#" || i != len(levels)-1) {
			return false
		}
		if strings.Contains(l, "+") && l != "+" {
			return false
		}
	}
	return true
}

func minQoS(a, b byte) byte {
	if a < b {
		return a
	}
	return b
}
