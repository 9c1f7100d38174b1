// Package mqtt implements a Mosquitto-like MQTT 3.1.1 broker used as the
// MQTT subject in the CMFuzz evaluation. The broker parses the real MQTT
// wire format, maintains sessions, subscriptions, retained messages, QoS
// 1/2 flows and optional bridge/persistence/websocket/TLS/auth features,
// all gated by a Mosquitto-style configuration surface. Five seeded,
// configuration-gated defects reproduce Table II rows 1–5.
package mqtt

import (
	"errors"

	"cmfuzz/internal/protocols/probes"
	"cmfuzz/internal/wire"
)

// Control packet types (MQTT 3.1.1 §2.2.1).
const (
	typeConnect     = 1
	typeConnack     = 2
	typePublish     = 3
	typePuback      = 4
	typePubrec      = 5
	typePubrel      = 6
	typePubcomp     = 7
	typeSubscribe   = 8
	typeSuback      = 9
	typeUnsubscribe = 10
	typeUnsuback    = 11
	typePingreq     = 12
	typePingresp    = 13
	typeDisconnect  = 14
)

var errMalformed = errors.New("mqtt: malformed packet")

// packet is one decoded control packet.
type packet struct {
	Type  byte
	Flags byte // lower nibble of the fixed header
	Body  []byte
}

// decodePacket splits the fixed header from the body.
func decodePacket(data []byte) (packet, error) {
	r := wire.NewReader(data)
	first := r.U8()
	remlen := r.Varint()
	body := r.Bytes(int(remlen))
	if r.Err() != nil {
		return packet{}, errMalformed
	}
	return packet{Type: first >> 4, Flags: first & 0x0f, Body: body}, nil
}

// connectPacket is a decoded CONNECT. Its slices alias the packet.
type connectPacket struct {
	ProtoName    []byte
	ProtoLevel   byte
	Flags        byte
	KeepAlive    uint16
	ClientID     []byte
	WillTopic    []byte
	Username     []byte
	Password     []byte
	CleanSession bool
	WillQoS      byte
	WillRetain   bool
}

func decodeConnect(body []byte) (connectPacket, error) {
	r := wire.NewReader(body)
	var c connectPacket
	c.ProtoName = r.Bytes16()
	c.ProtoLevel = r.U8()
	c.Flags = r.U8()
	c.KeepAlive = r.U16()
	c.ClientID = r.Bytes16()
	c.CleanSession = c.Flags&0x02 != 0
	c.WillQoS = (c.Flags >> 3) & 0x03
	c.WillRetain = c.Flags&0x20 != 0
	if c.Flags&0x04 != 0 { // will flag
		c.WillTopic = r.Bytes16()
		r.Bytes16() // the will message, which the broker does not keep
	}
	if c.Flags&0x80 != 0 { // username
		c.Username = r.Bytes16()
	}
	if c.Flags&0x40 != 0 { // password
		c.Password = r.Bytes16()
	}
	if r.Err() != nil {
		return c, errMalformed
	}
	return c, nil
}

// publishPacket is a decoded PUBLISH. Its slices alias the packet.
type publishPacket struct {
	Topic    []byte
	PacketID uint16
	Payload  []byte
	QoS      byte
	Retain   bool
	Dup      bool
}

func decodePublish(flags byte, body []byte) (publishPacket, error) {
	r := wire.NewReader(body)
	var p publishPacket
	p.QoS = (flags >> 1) & 0x03
	p.Retain = flags&0x01 != 0
	p.Dup = flags&0x08 != 0
	p.Topic = r.Bytes16()
	if p.QoS > 0 {
		p.PacketID = r.U16()
	}
	p.Payload = r.Rest()
	if r.Err() != nil || p.QoS == 3 {
		return p, errMalformed
	}
	return p, nil
}

// subscription is one topic filter request inside SUBSCRIBE. Filter
// aliases the packet.
type subscription struct {
	Filter []byte
	QoS    byte
}

// decodeSubscribe appends the packet's subscriptions to dst.
func decodeSubscribe(body []byte, dst []subscription) (uint16, []subscription, error) {
	r := wire.NewReader(body)
	id := r.U16()
	subs := dst
	for !r.Empty() {
		f := r.Bytes16()
		q := r.U8()
		if r.Err() != nil {
			return id, subs, errMalformed
		}
		subs = append(subs, subscription{Filter: f, QoS: q})
	}
	if r.Err() != nil || len(subs) == len(dst) {
		return id, subs, errMalformed
	}
	return id, subs, nil
}

// decodeUnsubscribe appends the packet's topic filters to dst.
func decodeUnsubscribe(body []byte, dst [][]byte) (uint16, [][]byte, error) {
	r := wire.NewReader(body)
	id := r.U16()
	filters := dst
	for !r.Empty() {
		filters = append(filters, r.Bytes16())
	}
	if r.Err() != nil || len(filters) == len(dst) {
		return id, filters, errMalformed
	}
	return id, filters, nil
}

func decodePacketID(body []byte) (uint16, error) {
	r := wire.NewReader(body)
	id := r.U16()
	if r.Err() != nil {
		return 0, errMalformed
	}
	return id, nil
}

// appendHeader appends a fixed header for a body of n bytes.
func appendHeader(w *wire.Writer, ptype, flags byte, n int) {
	w.U8(ptype<<4 | flags&0x0f)
	w.Varint(uint32(n))
}

func appendConnack(w *wire.Writer, sessionPresent bool, code byte) {
	appendHeader(w, typeConnack, 0, 2)
	w.U8(byte(probes.B(sessionPresent)))
	w.U8(code)
}

func appendAck(w *wire.Writer, ptype byte, id uint16) {
	flags := byte(0)
	if ptype == typePubrel {
		flags = 0x02
	}
	appendHeader(w, ptype, flags, 2)
	w.U16(id)
}

func appendPublish(w *wire.Writer, p publishPacket) {
	topic := p.Topic
	if len(topic) > 0xffff {
		topic = topic[:0xffff]
	}
	n := 2 + len(topic) + len(p.Payload)
	if p.QoS > 0 {
		n += 2
	}
	flags := p.QoS << 1
	if p.Retain {
		flags |= 0x01
	}
	if p.Dup {
		flags |= 0x08
	}
	appendHeader(w, typePublish, flags, n)
	w.Bytes16(topic)
	if p.QoS > 0 {
		w.U16(p.PacketID)
	}
	w.Raw(p.Payload)
}
