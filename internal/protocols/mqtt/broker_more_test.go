package mqtt

import (
	"bytes"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"

	"cmfuzz/internal/coverage"
	"cmfuzz/internal/wire"
)

func TestWillRegistrationAndCleanDisconnect(t *testing.T) {
	b, _ := startBroker(t, nil)
	// Connect with a will (flags: will=0x04, qos1=0x08, retain=0x20, clean=0x02).
	w := wire.NewWriter(64)
	w.String16("MQTT")
	w.U8(4)
	w.U8(0x2E)
	w.U16(30)
	w.String16("willful")
	w.String16("state/offline")
	w.Bytes16([]byte("gone"))
	resp := b.Message(packetBytes(typeConnect, 0, w.Bytes()))
	if len(resp) != 1 || resp[0][3] != 0 {
		t.Fatalf("will connect refused: %x", resp)
	}
	if !b.cur.will {
		t.Fatal("will not registered")
	}
	// Clean DISCONNECT discards the will.
	b.Message(packetBytes(typeDisconnect, 0, nil))
	if b.cur.will {
		t.Fatal("will survived clean disconnect")
	}
}

func TestMaxQoSDowngrade(t *testing.T) {
	b, _ := startBroker(t, map[string]string{"max-qos": "1"})
	connect(t, b)
	// A QoS2 publish is downgraded to QoS1: PUBACK, not PUBREC.
	resp := b.Message(publishBytes("a/b", 2, false, false, 5, []byte("x")))
	if len(resp) != 1 || resp[0][0]>>4 != typePuback {
		t.Fatalf("downgraded publish ack = %x", resp)
	}
	// Subscription grants are capped too.
	resp = b.Message(subscribeBytes(6, "a/#", 2))
	if resp[0][4] != 1 {
		t.Fatalf("granted qos = %d, want capped 1", resp[0][4])
	}
}

func TestMessageSizeLimitRejects(t *testing.T) {
	b, _ := startBroker(t, map[string]string{"message-size-limit": "4"})
	connect(t, b)
	if resp := b.Message(publishBytes("t", 0, false, false, 0, []byte("too large"))); resp != nil {
		t.Fatalf("oversized payload accepted: %x", resp)
	}
	// Within the limit passes.
	b2, _ := startBroker(t, map[string]string{"message-size-limit": "100"})
	connect(t, b2)
	b2.Message(subscribeBytes(1, "t", 0))
	if resp := b2.Message(publishBytes("t", 0, false, false, 0, []byte("ok"))); len(resp) != 1 {
		t.Fatal("in-limit payload dropped")
	}
}

func TestSubscriptionQuota(t *testing.T) {
	b, _ := startBroker(t, nil)
	connect(t, b)
	refused := false
	for i := 0; i < 200; i++ {
		resp := b.Message(subscribeBytes(uint16(i+1), "topic/"+string(rune('a'+i%26))+string(rune('0'+i/26)), 0))
		if len(resp) > 0 && resp[0][0]>>4 == typeSuback && resp[0][4] == 0x80 {
			refused = true
			break
		}
	}
	if !refused {
		t.Fatal("per-session subscription quota never enforced")
	}
}

func TestOutboundAckFlow(t *testing.T) {
	b, _ := startBroker(t, nil)
	connect(t, b)
	// The broker records no outbound QoS 1/2 packet id, so every
	// outbound ack names an unknown one and is tolerated unanswered.
	for _, ptype := range []byte{typePuback, typePubrec, typePubcomp} {
		if resp := b.Message(ackBytes(ptype, 77)); resp != nil {
			t.Fatalf("ack type %d for an unknown id answered: %x", ptype, resp)
		}
	}
}

func TestRetainDisabled(t *testing.T) {
	b, _ := startBroker(t, map[string]string{"retain-available": "false"})
	connect(t, b)
	b.Message(publishBytes("state/x", 0, true, false, 0, []byte("v")))
	if len(b.retained) != 0 {
		t.Fatal("retained message stored despite retain-available=false")
	}
}

func TestEmptyRetainedPayloadDeletes(t *testing.T) {
	b, _ := startBroker(t, nil)
	connect(t, b)
	b.Message(publishBytes("state/x", 0, true, false, 0, []byte("v")))
	if len(b.retained) != 1 {
		t.Fatal("retained not stored")
	}
	b.Message(publishBytes("state/x", 0, true, false, 0, nil))
	if len(b.retained) != 0 {
		t.Fatal("empty retained publish did not delete")
	}
}

func TestConnectionLimitConnack(t *testing.T) {
	b, _ := startBroker(t, map[string]string{"max-connections": "2"})
	for i, id := range []string{"c1", "c2"} {
		b.NewSession()
		resp := b.Message(connectPacketBytes(id, 0x02))
		if resp[0][3] != 0 {
			t.Fatalf("client %d refused early", i)
		}
	}
	b.NewSession()
	resp := b.Message(connectPacketBytes("c3", 0x02))
	if resp[0][3] != 3 {
		t.Fatalf("over-limit connack code = %d, want 3 (server unavailable)", resp[0][3])
	}
}

func TestUnsubscribeStopsRouting(t *testing.T) {
	b, _ := startBroker(t, nil)
	connect(t, b)
	b.Message(subscribeBytes(1, "a/#", 0))
	w := wire.NewWriter(16)
	w.U16(2)
	w.String16("a/#")
	b.Message(packetBytes(typeUnsubscribe, 2, w.Bytes()))
	if resp := b.Message(publishBytes("a/b", 0, false, false, 0, []byte("x"))); resp != nil {
		t.Fatalf("unsubscribed filter still routed: %x", resp)
	}
}

// Property: any CONNECT the encoder can produce round-trips through the
// broker without untyped panics, and the broker always answers with a
// single CONNACK or nothing.
func TestQuickConnectTotal(t *testing.T) {
	f := func(proto string, level, flags byte, keepalive uint16, cid string) bool {
		if len(proto) > 100 || len(cid) > 100 {
			return true
		}
		b := NewBroker()
		if err := b.Start(nil, newTrace()); err != nil {
			return false
		}
		b.NewSession()
		w := wire.NewWriter(64)
		w.String16(proto)
		w.U8(level)
		w.U8(flags &^ 0xC4) // avoid will/user/pass so the body stays valid
		w.U16(keepalive)
		w.String16(cid)
		resp := b.Message(packetBytes(typeConnect, 0, w.Bytes()))
		if resp == nil {
			return true
		}
		return len(resp) == 1 && resp[0][0]>>4 == typeConnack
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func newTrace() *coverage.Trace { return coverage.NewTrace() }

// TestRetainedScanDeterministicPast256 is the regression test for the
// defect the benchmark's digest gate found: subscribe delivers at most
// 256 retained messages, and choosing them by ranging over a Go map
// made every MQTT campaign whose broker held more depend on map order.
// Two brokers fed the same packets must answer and cover identically,
// and the 256 scanned are the longest-retained topics.
func TestRetainedScanDeterministicPast256(t *testing.T) {
	topic := func(i int) string { return "t/" + strconv.Itoa(i) }
	run := func() (responses [][]byte, edges []coverage.Index, b *Broker) {
		b, tr := startBroker(t, nil)
		connect(t, b)
		for i := 0; i < 300; i++ {
			b.Message(publishBytes(topic(i), 0, true, false, 0, []byte("v")))
		}
		b.Message(publishBytes(topic(7), 0, true, false, 0, []byte("overwritten in place")))
		b.Message(publishBytes(topic(3), 0, true, false, 0, nil))
		b.Message(publishBytes("never/retained", 0, true, false, 0, nil))
		responses = b.Message(subscribeBytes(6, "t/#", 0))
		return responses, tr.Map().Indices(), b
	}
	respA, edgesA, b := run()
	respB, edgesB, _ := run()
	if !reflect.DeepEqual(respA, respB) {
		t.Fatal("two brokers fed the same packets answered a subscribe differently")
	}
	if !reflect.DeepEqual(edgesA, edgesB) {
		t.Fatal("two brokers fed the same packets covered different edges")
	}

	// t/3 is gone, t/7 kept its place, so the scan covers t/0..t/256
	// less t/3, in that order.
	if len(b.retained) != 299 || len(b.retainedOrder) != 299 {
		t.Fatalf("retained = %d topics, order lists %d; want 299 both", len(b.retained), len(b.retainedOrder))
	}
	if len(respA) != 1+256 {
		t.Fatalf("subscribe returned %d packets, want suback + 256 retained", len(respA))
	}
	want := 0
	for _, raw := range respA[1:] {
		if want == 3 {
			want++
		}
		if got := publishBytes(topic(want), 0, true, false, 0, []byte("v")); want != 7 && !reflect.DeepEqual(raw, got) {
			t.Fatalf("retained delivery out of order: got %x, want %s", raw, topic(want))
		}
		want++
	}
	if want != 257 {
		t.Fatalf("scan ended at t/%d, want t/256", want-1)
	}
}

// TestRetainedPayloadOwned is the regression test for a retained message
// that aliased the PUBLISH it arrived in: the fuzzing engine reuses its
// message buffers, so a subscriber was handed whatever the buffer held
// next. The broker must keep its own copy.
func TestRetainedPayloadOwned(t *testing.T) {
	b, _ := startBroker(t, nil)
	connect(t, b)
	msg := publishBytes("state/lamp", 0, true, false, 0, []byte("on-on-on"))
	b.Message(msg)
	copy(msg[len(msg)-8:], "ZZZZZZZZ")
	resp := b.Message(subscribeBytes(1, "state/#", 0))
	want := publishBytes("state/lamp", 0, true, false, 0, []byte("on-on-on"))
	if len(resp) != 2 || !bytes.Equal(resp[1], want) {
		t.Fatalf("retained delivery = %q, want %q", resp, want)
	}
}

// TestRetainedDeliveryQoS checks a retained message delivered below the
// QoS it was published with: the flags change and, at QoS 0, the packet
// id goes.
func TestRetainedDeliveryQoS(t *testing.T) {
	b, _ := startBroker(t, nil)
	connect(t, b)
	b.Message(publishBytes("state/lamp", 2, true, true, 9, []byte("on")))
	for granted := byte(0); granted <= 2; granted++ {
		resp := b.Message(subscribeBytes(1, "state/lamp", granted))
		want := publishBytes("state/lamp", granted, true, true, 9, []byte("on"))
		if len(resp) != 2 || !bytes.Equal(resp[1], want) {
			t.Fatalf("granted QoS %d: delivery = %x, want %x", granted, resp, want)
		}
	}
}
