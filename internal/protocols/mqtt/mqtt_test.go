package mqtt

import (
	"testing"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/wire"
)

// startBroker boots a broker with cfg overlaid on an empty assignment.
func startBroker(t *testing.T, cfg map[string]string) (*Broker, *coverage.Trace) {
	t.Helper()
	b := NewBroker()
	tr := coverage.NewTrace()
	if err := b.Start(cfg, tr); err != nil {
		t.Fatalf("Start: %v", err)
	}
	b.NewSession()
	return b, tr
}

// packetBytes builds a packet with the fixed-header encoder the broker
// answers with.
func packetBytes(ptype, flags byte, body []byte) []byte {
	w := wire.NewWriter(2 + len(body))
	appendHeader(w, ptype, flags, len(body))
	w.Raw(body)
	return w.Bytes()
}

// ackBytes builds a packet-id-only acknowledgement.
func ackBytes(ptype byte, id uint16) []byte {
	w := wire.NewWriter(4)
	appendAck(w, ptype, id)
	return w.Bytes()
}

// connectPacketBytes builds a valid CONNECT for client id.
func connectPacketBytes(clientID string, flags byte) []byte {
	w := wire.NewWriter(32)
	w.String16("MQTT")
	w.U8(4)
	w.U8(flags)
	w.U16(60)
	w.String16(clientID)
	return packetBytes(typeConnect, 0, w.Bytes())
}

func publishBytes(topic string, qos byte, retain, dup bool, id uint16, payload []byte) []byte {
	w := wire.NewWriter(32)
	appendPublish(w, publishPacket{Topic: []byte(topic), QoS: qos, Retain: retain, Dup: dup, PacketID: id, Payload: payload})
	return w.Bytes()
}

func subscribeBytes(id uint16, filter string, qos byte) []byte {
	w := wire.NewWriter(16)
	w.U16(id)
	w.String16(filter)
	w.U8(qos)
	return packetBytes(typeSubscribe, 2, w.Bytes())
}

func connect(t *testing.T, b *Broker) {
	t.Helper()
	resp := b.Message(connectPacketBytes("tester", 0x02))
	if len(resp) != 1 || resp[0][0]>>4 != typeConnack || resp[0][3] != 0 {
		t.Fatalf("connect response = %x", resp)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	p := publishPacket{Topic: []byte("a/b"), QoS: 2, Retain: true, Dup: true, PacketID: 99, Payload: []byte("hi")}
	w := wire.NewWriter(16)
	appendPublish(w, p)
	raw := w.Bytes()
	pkt, err := decodePacket(raw)
	if err != nil || pkt.Type != typePublish {
		t.Fatalf("decodePacket: %v %+v", err, pkt)
	}
	got, err := decodePublish(pkt.Flags, pkt.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Topic) != string(p.Topic) || got.QoS != 2 || !got.Retain || !got.Dup || got.PacketID != 99 || string(got.Payload) != "hi" {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestDecodeConnectVariants(t *testing.T) {
	w := wire.NewWriter(64)
	w.String16("MQTT")
	w.U8(4)
	w.U8(0xC2 | 0x04 | 0x08 | 0x20) // clean, will qos1 retain, user+pass
	w.U16(30)
	w.String16("cid")
	w.String16("will/t")
	w.Bytes16([]byte("bye"))
	w.String16("user")
	w.Bytes16([]byte("pw"))
	c, err := decodeConnect(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if string(c.ClientID) != "cid" || string(c.WillTopic) != "will/t" || string(c.Username) != "user" ||
		string(c.Password) != "pw" || c.WillQoS != 1 || !c.WillRetain || !c.CleanSession {
		t.Fatalf("connect = %+v", c)
	}
}

func TestDecodeMalformed(t *testing.T) {
	if _, err := decodePacket([]byte{0x30}); err == nil {
		t.Error("truncated packet accepted")
	}
	if _, err := decodePacket([]byte{0x30, 0x05, 0x01}); err == nil {
		t.Error("short body accepted")
	}
	if _, err := decodeConnect([]byte{0x00}); err == nil {
		t.Error("truncated connect accepted")
	}
	if _, err := decodePublish(0x06, []byte{0x00}); err == nil {
		t.Error("qos3 publish accepted")
	}
	if _, _, err := decodeSubscribe([]byte{0x00, 0x01}, nil); err == nil {
		t.Error("empty subscribe accepted")
	}
}

func TestTopicMatches(t *testing.T) {
	cases := []struct {
		filter, topic string
		want          bool
	}{
		{"a/b", "a/b", true},
		{"a/b", "a/c", false},
		{"a/+", "a/b", true},
		{"a/+", "a/b/c", false},
		{"a/#", "a/b/c", true},
		{"#", "anything/at/all", true},
		{"+/b", "a/b", true},
		{"a/b/#", "a/b", true}, // '#' includes the parent level (MQTT spec)
		{"a/b/#", "a/c", false},
	}
	for _, c := range cases {
		if got := topicMatches(c.filter, c.topic); got != c.want {
			t.Errorf("topicMatches(%q,%q) = %v", c.filter, c.topic, got)
		}
		// The broker matches stored filters against packet topics and
		// packet filters against stored topics.
		if topicMatches(c.filter, []byte(c.topic)) != c.want || topicMatches([]byte(c.filter), c.topic) != c.want {
			t.Errorf("topicMatches(%q,%q) depends on the argument types", c.filter, c.topic)
		}
	}
}

func TestValidFilter(t *testing.T) {
	valid := []string{"a/b", "a/+/c", "a/#", "#", "+"}
	invalid := []string{"", "a/#/b", "a#", "a/b+", "+a/b"}
	for _, f := range valid {
		if !validFilter([]byte(f)) {
			t.Errorf("validFilter(%q) = false", f)
		}
	}
	for _, f := range invalid {
		if validFilter([]byte(f)) {
			t.Errorf("validFilter(%q) = true", f)
		}
	}
}

func TestConfigConflicts(t *testing.T) {
	conflicts := []map[string]string{
		{"allow-anonymous": "false"},
		{"bridge": "true"},
		{"tls": "true"},
		{"require-certificate": "true"},
		{"websockets": "true", "tls": "true", "certfile": "/c", "keyfile": "/k"},
		{"max-packet-size": "100", "message-size-limit": "200"},
		{"max-qos": "7"},
	}
	for i, cfg := range conflicts {
		b := NewBroker()
		if err := b.Start(cfg, coverage.NewTrace()); err == nil {
			t.Errorf("conflict %d accepted: %v", i, cfg)
		}
	}
	// And the resolutions start fine.
	oks := []map[string]string{
		{"allow-anonymous": "false", "password-file": "/etc/pw"},
		{"bridge": "true", "bridge-address": "10.0.0.2:1883"},
		{"tls": "true", "certfile": "/c.crt"}, // keyfile derived from certfile
	}
	for i, cfg := range oks {
		b := NewBroker()
		if err := b.Start(cfg, coverage.NewTrace()); err != nil {
			t.Errorf("valid config %d rejected: %v", i, err)
		}
	}
}

func TestStartupCoverageGrowsWithFeatures(t *testing.T) {
	base := coverage.NewTrace()
	b := NewBroker()
	if err := b.Start(nil, base); err != nil {
		t.Fatal(err)
	}
	rich := coverage.NewTrace()
	b2 := NewBroker()
	err := b2.Start(map[string]string{
		"persistence":    "true",
		"bridge":         "true",
		"bridge-address": "10.0.0.2:1883",
		"websockets":     "true",
		"password-file":  "/etc/pw",
		"acl-file":       "/etc/acl",
	}, rich)
	if err != nil {
		t.Fatal(err)
	}
	if rich.Count() <= base.Count() {
		t.Fatalf("feature-rich startup coverage %d <= base %d", rich.Count(), base.Count())
	}
}

func TestStartupSynergyEdges(t *testing.T) {
	count := func(cfg map[string]string) int {
		tr := coverage.NewTrace()
		b := NewBroker()
		if err := b.Start(cfg, tr); err != nil {
			t.Fatalf("Start(%v): %v", cfg, err)
		}
		return tr.Count()
	}
	bridgeOnly := count(map[string]string{"bridge": "true", "bridge-address": "x:1"})
	persistOnly := count(map[string]string{"persistence": "true", "autosave-interval": "0"})
	both := count(map[string]string{
		"bridge": "true", "bridge-address": "x:1",
		"persistence": "true", "autosave-interval": "0",
	})
	base := count(nil)
	// Synergy: both together exceed the sum of individual gains.
	if both-base <= (bridgeOnly-base)+(persistOnly-base) {
		t.Fatalf("no synergy edges: base=%d bridge=%d persist=%d both=%d",
			base, bridgeOnly, persistOnly, both)
	}
}

func TestConnectPublishSubscribeFlow(t *testing.T) {
	b, tr := startBroker(t, nil)
	connect(t, b)

	// Subscribe, then a matching publish must be routed back.
	resp := b.Message(subscribeBytes(5, "sensors/#", 1))
	if len(resp) != 1 || resp[0][0]>>4 != typeSuback {
		t.Fatalf("suback = %x", resp)
	}
	resp = b.Message(publishBytes("sensors/temp", 0, false, false, 0, []byte("21C")))
	if len(resp) != 1 || resp[0][0]>>4 != typePublish {
		t.Fatalf("routed publish = %x", resp)
	}
	if tr.Count() == 0 {
		t.Fatal("no coverage recorded")
	}
}

func TestQoS2Flow(t *testing.T) {
	b, _ := startBroker(t, nil)
	connect(t, b)
	resp := b.Message(publishBytes("a/b", 2, false, false, 42, []byte("x")))
	if len(resp) != 1 || resp[0][0]>>4 != typePubrec {
		t.Fatalf("pubrec = %x", resp)
	}
	resp = b.Message(ackBytes(typePubrel, 42))
	if len(resp) != 1 || resp[0][0]>>4 != typePubcomp {
		t.Fatalf("pubcomp = %x", resp)
	}
}

func TestRetainedDeliveryOnSubscribe(t *testing.T) {
	b, _ := startBroker(t, nil)
	connect(t, b)
	b.Message(publishBytes("state/x", 0, true, false, 0, []byte("on")))
	resp := b.Message(subscribeBytes(6, "state/#", 0))
	if len(resp) != 2 {
		t.Fatalf("expected suback + retained publish, got %d packets", len(resp))
	}
	if resp[1][0]>>4 != typePublish || resp[1][0]&0x01 != 1 {
		t.Fatalf("retained publish = %x", resp[1])
	}
}

func TestUnconnectedPacketsDropped(t *testing.T) {
	b, _ := startBroker(t, nil)
	if resp := b.Message(publishBytes("a", 0, false, false, 0, nil)); resp != nil {
		t.Fatalf("unconnected publish answered: %x", resp)
	}
}

func TestAuthRequired(t *testing.T) {
	b, _ := startBroker(t, map[string]string{
		"allow-anonymous": "false",
		"password-file":   "/etc/pw",
	})
	resp := b.Message(connectPacketBytes("anon", 0x02))
	if len(resp) != 1 || resp[0][3] != 5 {
		t.Fatalf("anonymous connect not refused: %x", resp)
	}
}

func TestBug1BridgeDupQoS2(t *testing.T) {
	b, _ := startBroker(t, map[string]string{
		"bridge": "true", "bridge-address": "peer:1883",
	})
	connect(t, b)
	b.Message(publishBytes("sensors/t", 2, false, false, 9, []byte("v")))
	crash := bugs.Capture(func() {
		b.Message(publishBytes("sensors/t", 2, false, true, 9, []byte("v")))
	})
	if crash == nil || crash.Function != "Connection::newMessage" {
		t.Fatalf("crash = %+v, want bug #1", crash)
	}
	if k, ok := bugs.LookupKnown(crash); !ok || k.No != 1 {
		t.Fatalf("not Table II row 1: %+v", k)
	}
}

func TestBug1NotWithoutBridge(t *testing.T) {
	b, _ := startBroker(t, nil)
	connect(t, b)
	b.Message(publishBytes("sensors/t", 2, false, false, 9, []byte("v")))
	crash := bugs.Capture(func() {
		b.Message(publishBytes("sensors/t", 2, false, true, 9, []byte("v")))
	})
	if crash != nil {
		t.Fatalf("bug #1 fired under default config: %v", crash)
	}
}

func TestBug2SharedSubOverWebsockets(t *testing.T) {
	b, _ := startBroker(t, map[string]string{"websockets": "true"})
	connect(t, b)
	crash := bugs.Capture(func() {
		b.Message(subscribeBytes(3, "$share/grp/sensors/#", 1))
	})
	if crash == nil || crash.Function != "neu_node_manager_get_addrs_all" {
		t.Fatalf("crash = %+v, want bug #2", crash)
	}
	// Default config: same input, no crash.
	b2, _ := startBroker(t, nil)
	connect(t, b2)
	if c := bugs.Capture(func() { b2.Message(subscribeBytes(3, "$share/grp/sensors/#", 1)) }); c != nil {
		t.Fatalf("bug #2 fired under default config: %v", c)
	}
}

func TestBug3SmallMaxPacketSize(t *testing.T) {
	b, _ := startBroker(t, map[string]string{"max-packet-size": "16"})
	connect0 := connectPacketBytes("tester", 0x02) // 16 < len
	if len(connect0) <= 16 {
		t.Fatal("test packet too small")
	}
	crash := bugs.Capture(func() { b.Message(connect0) })
	if crash == nil || crash.Function != "mqtt_packet_destroy" {
		t.Fatalf("crash = %+v, want bug #3", crash)
	}
}

func TestBug4ConnectionBoundary(t *testing.T) {
	b, _ := startBroker(t, map[string]string{"max-connections": "1"})
	b.NewSession()
	b.Message(connectPacketBytes("c1", 0x00))
	b.NewSession()
	crash := bugs.Capture(func() { b.Message(connectPacketBytes("c2", 0x00)) })
	if crash == nil || crash.Function != "loop_accepted" {
		t.Fatalf("crash = %+v, want bug #4", crash)
	}
}

func TestBug5RetainedOverwriteLeak(t *testing.T) {
	b, _ := startBroker(t, map[string]string{
		"persistence": "true", "queue-qos0-messages": "true",
	})
	connect(t, b)
	b.Message(publishBytes("state/x", 0, true, false, 0, []byte("a")))
	crash := bugs.Capture(func() {
		b.Message(publishBytes("state/x", 0, true, false, 0, []byte("b")))
	})
	if crash == nil || crash.Kind != bugs.MemoryLeak {
		t.Fatalf("crash = %+v, want bug #5", crash)
	}
}

func TestNoBugsUnderDefaultConfig(t *testing.T) {
	b, _ := startBroker(t, nil)
	connect(t, b)
	inputs := [][]byte{
		publishBytes("state/x", 0, true, false, 0, []byte("a")),
		publishBytes("state/x", 0, true, false, 0, []byte("b")),
		publishBytes("t", 2, false, true, 9, []byte("v")),
		publishBytes("t", 2, false, true, 9, []byte("v")),
		subscribeBytes(3, "$share/grp/x", 1),
		connectPacketBytes("big-client-name-here", 0x02),
	}
	for _, in := range inputs {
		if c := bugs.Capture(func() { b.Message(in) }); c != nil {
			t.Fatalf("default config crashed on %x: %v", in, c)
		}
	}
}

func TestPitParsesAndDrivesBroker(t *testing.T) {
	sub := Subject()
	if sub.Info().Protocol != "MQTT" {
		t.Fatal("wrong info")
	}
	if sub.PitXML() == "" {
		t.Fatal("empty pit")
	}
}

func TestMessageCoverageDiversity(t *testing.T) {
	b, tr := startBroker(t, nil)
	connect(t, b)
	before := tr.Count()
	topics := []string{"a/b", "a/c", "x/y/z", "sensors/1", "sensors/2"}
	for _, tp := range topics {
		b.Message(publishBytes(tp, 1, false, false, 3, []byte(tp)))
	}
	if tr.Count()-before < len(topics) {
		t.Fatalf("topic diversity added only %d edges", tr.Count()-before)
	}
}

func TestSessionResumption(t *testing.T) {
	b, _ := startBroker(t, nil)
	b.NewSession()
	b.Message(connectPacketBytes("sticky", 0x00)) // persistent session
	b.Message(subscribeBytes(4, "a/#", 1))
	b.NewSession()
	resp := b.Message(connectPacketBytes("sticky", 0x00))
	if len(resp) != 1 || resp[0][2] != 1 {
		t.Fatalf("session-present flag not set: %x", resp)
	}
	// Old subscription still routes.
	resp = b.Message(publishBytes("a/x", 0, false, false, 0, []byte("1")))
	if len(resp) != 1 || resp[0][0]>>4 != typePublish {
		t.Fatalf("resumed session lost subscription: %x", resp)
	}
}
