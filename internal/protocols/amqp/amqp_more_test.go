package amqp

import (
	"testing"
	"testing/quick"

	"cmfuzz/internal/coverage"
)

func TestMaxSessionsLimit(t *testing.T) {
	b := startBroker(t, map[string]string{"max-sessions": "2"})
	greet(t, b)
	for ch := uint16(1); ch <= 2; ch++ {
		if resp := b.Message(frameBytes(ch, perfBegin, []value{{Kind: 0x40}}, nil)); len(resp) != 1 {
			t.Fatalf("begin %d refused early", ch)
		}
	}
	if resp := b.Message(frameBytes(3, perfBegin, []value{{Kind: 0x40}}, nil)); resp != nil {
		t.Fatal("over-limit begin accepted")
	}
}

func TestList32Decoding(t *testing.T) {
	// Hand-build a frame with a list32 field list.
	body := []byte{
		0x00, 0x53, perfOpen, // descriptor
		0xd0,                   // list32
		0x00, 0x00, 0x00, 0x09, // size
		0x00, 0x00, 0x00, 0x02, // count
		0x41,       // true
		0x52, 0x07, // smalluint 7
	}
	raw := append([]byte{0, 0, 0, byte(8 + len(body)), 2, 0, 0, 0}, body...)
	f, err := parseFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Fields) != 2 || f.Fields[0].U != 1 || f.Fields[1].U != 7 {
		t.Fatalf("fields = %+v", f.Fields)
	}
}

func TestList0Performative(t *testing.T) {
	body := []byte{0x00, 0x53, perfClose, 0x45} // list0
	raw := append([]byte{0, 0, 0, byte(8 + len(body)), 2, 0, 0, 0}, body...)
	f, err := parseFrame(raw)
	if err != nil || f.Code != perfClose || len(f.Fields) != 0 {
		t.Fatalf("frame = %+v (%v)", f, err)
	}
}

func TestCloseThenReopen(t *testing.T) {
	b := startBroker(t, nil)
	greet(t, b)
	resp := b.Message(frameBytes(0, perfClose, nil, nil))
	if cf, _ := parseFrame(resp[0]); cf.Code != perfClose {
		t.Fatal("no close echo")
	}
	// Begin after close is refused (connection not open).
	if resp := b.Message(frameBytes(1, perfBegin, []value{{Kind: 0x40}}, nil)); resp != nil {
		t.Fatal("begin after close accepted")
	}
	// A new open works.
	if resp := b.Message(frameBytes(0, perfOpen, []value{{Kind: 0xa1, B: []byte("c")}}, nil)); len(resp) != 1 {
		t.Fatal("reopen refused")
	}
}

func TestQueueLimitResets(t *testing.T) {
	b := startBroker(t, map[string]string{"queue-limit": "32"})
	greet(t, b)
	b.Message(frameBytes(1, perfBegin, []value{{Kind: 0x40}}, nil))
	for i := 0; i < 5; i++ {
		b.Message(frameBytes(1, perfTransfer, []value{{Kind: 0x52, U: 0}, {Kind: 0x52, U: uint64(i)}}, make([]byte, 16)))
	}
	if b.queues["default"] > 32 {
		t.Fatalf("queue depth %d exceeds limit", b.queues["default"])
	}
}

func TestSkippedProtoHeaderTolerated(t *testing.T) {
	b := startBroker(t, nil)
	// First segment is a frame, not the AMQP header: tolerated.
	resp := b.Message(frameBytes(0, perfOpen, []value{{Kind: 0xa1, B: []byte("c")}}, nil))
	if len(resp) != 1 {
		t.Fatal("headerless open refused")
	}
}

func TestDetachEchoed(t *testing.T) {
	b := startBroker(t, nil)
	greet(t, b)
	b.Message(frameBytes(1, perfBegin, []value{{Kind: 0x40}}, nil))
	b.Message(attachFrame(1, "q"))
	resp := b.Message(frameBytes(1, perfDetach, []value{{Kind: 0x52, U: 0}}, nil))
	if df, _ := parseFrame(resp[0]); df.Code != perfDetach {
		t.Fatalf("detach echo = %+v", df)
	}
}

// Property: decodeFrame never panics and respects the field-count guard.
func TestQuickDecodeFrameRobust(t *testing.T) {
	f := func(data []byte) bool {
		fr, err := parseFrame(data)
		if err != nil {
			return true
		}
		return len(fr.Fields) <= 64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: encodeFrame/decodeFrame round trip for arbitrary small uints
// and strings.
func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(ch uint16, a uint8, s string) bool {
		if len(s) > 200 {
			s = s[:200]
		}
		fields := []value{
			{Kind: 0x52, U: uint64(a)},
			{Kind: 0xa1, B: []byte(s)},
		}
		fr, err := parseFrame(frameBytes(ch, perfFlow, fields, nil))
		if err != nil {
			return false
		}
		return fr.Channel == ch && fr.Code == perfFlow &&
			fr.Fields[0].U == uint64(a) && string(fr.Fields[1].B) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStartupWorkersZeroDistinct(t *testing.T) {
	cov := func(workers string) int {
		tr := coverage.NewTrace()
		b := NewBroker()
		if err := b.Start(map[string]string{"worker-threads": workers}, tr); err != nil {
			t.Fatal(err)
		}
		return tr.Count()
	}
	if cov("0") <= cov("4") {
		t.Fatal("inline-worker mode has no distinct init region")
	}
}
