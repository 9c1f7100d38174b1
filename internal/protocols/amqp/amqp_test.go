package amqp

import (
	"math/rand"
	"strings"
	"testing"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/fuzz"
	"cmfuzz/internal/wire"
)

// frameBytes renders a frame with the encoder the broker replies with.
func frameBytes(channel uint16, code byte, fields []value, payload []byte) []byte {
	w := wire.NewWriter(64)
	appendFrame(w, channel, code, fields, payload)
	return w.Bytes()
}

// parseFrame decodes data into a fresh frame.
func parseFrame(data []byte) (frame, error) {
	var f frame
	err := decodeFrame(data, &f)
	return f, err
}

func startBroker(t *testing.T, cfg map[string]string) *Broker {
	t.Helper()
	b := NewBroker()
	if err := b.Start(cfg, coverage.NewTrace()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	b.SetTrace(coverage.NewTrace())
	b.NewSession()
	return b
}

func greet(t *testing.T, b *Broker) {
	t.Helper()
	if resp := b.Message(protoHeader); len(resp) != 1 {
		t.Fatal("no protocol header response")
	}
	open := frameBytes(0, perfOpen, []value{{Kind: 0xa1, B: []byte("c1")}}, nil)
	if resp := b.Message(open); len(resp) != 1 {
		t.Fatal("no open response")
	}
}

func attachFrame(channel uint16, name string) []byte {
	return frameBytes(channel, perfAttach, []value{
		{Kind: 0xa1, B: []byte(name)},
		{Kind: 0x52, U: 0},
		{Kind: 0x52, U: 0},
	}, nil)
}

func TestFrameRoundTrip(t *testing.T) {
	raw := frameBytes(3, perfBegin, []value{
		{Kind: 0x40},
		{Kind: 0x52, U: 100},
		{Kind: 0xa1, B: []byte("sess")},
	}, []byte("extra"))
	f, err := parseFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if f.Channel != 3 || f.Code != perfBegin || len(f.Fields) != 3 {
		t.Fatalf("frame = %+v", f)
	}
	if f.Fields[1].U != 100 || string(f.Fields[2].B) != "sess" {
		t.Fatalf("fields = %+v", f.Fields)
	}
	if string(f.Payload) != "extra" {
		t.Fatalf("payload = %q", f.Payload)
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{0, 0, 0, 4},
		// size mismatch
		append([]byte{0, 0, 0, 99, 2, 0, 0, 0}, 0x00, 0x53, 0x10, 0x45),
		// doff < 2
		{0, 0, 0, 12, 1, 0, 0, 0, 0x00, 0x53, 0x10, 0x45},
		// missing descriptor marker
		{0, 0, 0, 12, 2, 0, 0, 0, 0x53, 0x10, 0x45, 0x00},
	}
	for i, c := range cases {
		if _, err := parseFrame(c); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestValueDecoding(t *testing.T) {
	raw := frameBytes(0, perfOpen, []value{
		{Kind: 0x41},         // true
		{Kind: 0x43},         // uint0
		{Kind: 0x60, U: 515}, // ushort
		{Kind: 0x70, U: 1 << 20},
		{Kind: 0xa0, B: []byte{1, 2}},
	}, nil)
	f, err := parseFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if f.Fields[0].U != 1 || f.Fields[2].U != 515 || f.Fields[3].U != 1<<20 {
		t.Fatalf("fields = %+v", f.Fields)
	}
	if string(f.Fields[4].B) != "\x01\x02" {
		t.Fatalf("vbin = %x", f.Fields[4].B)
	}
}

func TestConfigConflicts(t *testing.T) {
	bad := []map[string]string{
		{"auth": "yes"},
		{"durable": "true"},
		{"max-frame-size": "100"},
		{"worker-threads": "-1"},
		{"max-sessions": "0"},
	}
	for i, cfg := range bad {
		if err := NewBroker().Start(cfg, coverage.NewTrace()); err == nil {
			t.Errorf("conflict %d accepted: %v", i, cfg)
		}
	}
	good := []map[string]string{
		nil,
		{"auth": "yes", "sasl-mechanisms": "PLAIN"},
		{"durable": "true", "store-dir": "/var/lib/qpidd"},
		{"worker-threads": "0"},
	}
	for i, cfg := range good {
		if err := NewBroker().Start(cfg, coverage.NewTrace()); err != nil {
			t.Errorf("valid config %d rejected: %v", i, err)
		}
	}
}

func TestConnectionLadder(t *testing.T) {
	b := startBroker(t, nil)
	greet(t, b)

	if resp := b.Message(frameBytes(1, perfBegin, []value{{Kind: 0x40}, {Kind: 0x52, U: 10}}, nil)); len(resp) != 1 {
		t.Fatal("no begin response")
	}
	resp := b.Message(attachFrame(1, "orders"))
	if len(resp) != 1 {
		t.Fatal("no attach response")
	}
	af, err := parseFrame(resp[0])
	if err != nil || af.Code != perfAttach || string(af.Fields[0].B) != "orders" {
		t.Fatalf("attach echo = %+v (%v)", af, err)
	}
	resp = b.Message(frameBytes(1, perfTransfer, []value{{Kind: 0x52, U: 0}, {Kind: 0x52, U: 1}}, []byte("payload")))
	df, err := parseFrame(resp[0])
	if err != nil || df.Code != perfDisposition {
		t.Fatalf("transfer response = %+v (%v)", df, err)
	}
	resp = b.Message(frameBytes(1, perfEnd, nil, nil))
	if ef, _ := parseFrame(resp[0]); ef.Code != perfEnd {
		t.Fatal("no end echo")
	}
}

func TestBeginRequiresOpen(t *testing.T) {
	b := startBroker(t, nil)
	b.Message(protoHeader)
	if resp := b.Message(frameBytes(1, perfBegin, nil, nil)); resp != nil {
		t.Fatal("begin without open answered")
	}
}

func TestAttachRequiresSession(t *testing.T) {
	b := startBroker(t, nil)
	greet(t, b)
	if resp := b.Message(attachFrame(9, "x")); resp != nil {
		t.Fatal("attach without begin answered")
	}
}

func TestBug9WorkerThreadsZero(t *testing.T) {
	b := startBroker(t, map[string]string{"worker-threads": "0"})
	greet(t, b)
	b.Message(frameBytes(1, perfBegin, []value{{Kind: 0x40}}, nil))
	long := strings.Repeat("L", 200)
	crash := bugs.Capture(func() { b.Message(attachFrame(1, long)) })
	if crash == nil || crash.Function != "pthread_create" {
		t.Fatalf("crash = %+v, want bug #9", crash)
	}
	if k, ok := bugs.LookupKnown(crash); !ok || k.No != 9 {
		t.Fatalf("not Table II row 9: %+v", k)
	}
	// Default worker pool: same input, no crash.
	b2 := startBroker(t, nil)
	greet(t, b2)
	b2.Message(frameBytes(1, perfBegin, []value{{Kind: 0x40}}, nil))
	if c := bugs.Capture(func() { b2.Message(attachFrame(1, long)) }); c != nil {
		t.Fatalf("bug #9 fired under default config: %v", c)
	}
}

func TestFrameSizeLimit(t *testing.T) {
	b := startBroker(t, map[string]string{"max-frame-size": "512"})
	greet(t, b)
	big := frameBytes(1, perfTransfer, nil, make([]byte, 600))
	if resp := b.Message(big); resp != nil {
		t.Fatal("oversized frame processed")
	}
}

func TestSASLHeaderUnderAuth(t *testing.T) {
	b := startBroker(t, map[string]string{"auth": "yes", "sasl-mechanisms": "PLAIN"})
	sasl := []byte{'A', 'M', 'Q', 'P', 3, 1, 0, 0}
	if resp := b.Message(sasl); len(resp) != 1 {
		t.Fatal("no SASL header response")
	}
}

func TestDurableGatesStoreRegion(t *testing.T) {
	run := func(cfg map[string]string) int {
		b := startBroker(t, cfg)
		tr := coverage.NewTrace()
		b.SetTrace(tr)
		greet(t, b)
		b.Message(frameBytes(1, perfBegin, []value{{Kind: 0x40}}, nil))
		b.Message(attachFrame(1, "q"))
		b.Message(frameBytes(1, perfTransfer, []value{{Kind: 0x52, U: 0}, {Kind: 0x52, U: 1}}, []byte("data")))
		return tr.Count()
	}
	plain := run(nil)
	durable := run(map[string]string{"durable": "true", "store-dir": "/var/lib/q"})
	if durable <= plain {
		t.Fatalf("durable region not gated: plain=%d durable=%d", plain, durable)
	}
}

func TestPitParsesAndDrivesBroker(t *testing.T) {
	pit, err := fuzz.ParsePit(Subject().PitXML())
	if err != nil {
		t.Fatal(err)
	}
	b := startBroker(t, nil)
	r := rand.New(rand.NewSource(2))
	sm := pit.StateModels["AMQPConnection"]
	answered := 0
	for _, name := range sm.Walk(r, 10) {
		dm := pit.DataModels[name]
		if dm == nil {
			t.Fatalf("walk names unknown model %q", name)
		}
		if resp := b.Message(dm.NewMessage(r).Serialize()); resp != nil {
			answered++
		}
	}
	if answered < 3 {
		t.Fatalf("pit walk produced only %d answered frames", answered)
	}
}
