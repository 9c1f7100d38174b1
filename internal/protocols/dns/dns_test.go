package dns

import (
	"errors"
	"strings"
	"testing"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/fuzz"
	"cmfuzz/internal/wire"
)

func startServer(t *testing.T, cfg map[string]string) *Server {
	t.Helper()
	s := NewServer()
	if err := s.Start(cfg, coverage.NewTrace()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return s
}

// query builds a request with the encoder the server answers with.
func query(id, flags uint16, questions []question, additional []record) []byte {
	w := wire.NewWriter(64)
	appendMessage(w, id, flags, questions, nil, additional)
	return w.Bytes()
}

// decode parses a request into a fresh queryMsg.
func decode(data []byte) (queryMsg, error) {
	var q queryMsg
	err := decodeQuery(data, &q)
	return q, err
}

func simpleQuery(name string, qtype uint16) []byte {
	return query(0x1234, flagRD, []question{{Name: []byte(name), Type: qtype, Class: 1}}, nil)
}

func decodeAnswer(t *testing.T, resp []byte) (header, []record) {
	t.Helper()
	r := wire.NewReader(resp)
	h, err := decodeHeader(r)
	if err != nil {
		t.Fatalf("response header: %v", err)
	}
	for i := 0; i < int(h.QDCount); i++ {
		if _, err := decodeName(r, resp, nil); err != nil {
			t.Fatalf("question name: %v", err)
		}
		r.Skip(4)
	}
	var answers []record
	for i := 0; i < int(h.ANCount); i++ {
		rec, err := new(queryMsg).decodeRecord(r, resp)
		if err != nil {
			t.Fatalf("answer %d: %v", i, err)
		}
		answers = append(answers, rec)
	}
	return h, answers
}

func TestNameRoundTrip(t *testing.T) {
	for _, name := range []string{"", "com", "www.example.com", "a.b.c.d.e"} {
		w := wire.NewWriter(32)
		appendName(w, []byte(name))
		got, err := decodeName(wire.NewReader(w.Bytes()), w.Bytes(), nil)
		if err != nil || string(got) != name {
			t.Errorf("name %q round-tripped to %q (%v)", name, got, err)
		}
	}
}

func TestNameCompression(t *testing.T) {
	// Packet: header-less buffer with "example.com" at 0, then a pointer.
	w := wire.NewWriter(32)
	appendName(w, []byte("example.com"))
	ptrOff := w.Len()
	w.U8(0x03)
	w.Raw([]byte("www"))
	w.U8(0xc0)
	w.U8(0x00) // pointer to offset 0
	full := w.Bytes()
	r := wire.NewReader(full[ptrOff:])
	got, err := decodeName(r, full, nil)
	if err != nil || string(got) != "www.example.com" {
		t.Fatalf("compressed name = %q (%v)", got, err)
	}
}

func TestNamePointerErrors(t *testing.T) {
	// Pointer beyond the packet.
	data := []byte{0xc0, 0x7f}
	if _, err := decodeName(wire.NewReader(data), data, nil); !errors.Is(err, errPointerOut) {
		t.Fatalf("out-of-range pointer err = %v", err)
	}
	// Pointer loop.
	loop := []byte{0xc0, 0x00}
	if _, err := decodeName(wire.NewReader(loop), loop, nil); !errors.Is(err, errPointerLoop) {
		t.Fatalf("pointer loop err = %v", err)
	}
	// Reserved label type.
	bad := []byte{0x80, 0x00}
	if _, err := decodeName(wire.NewReader(bad), bad, nil); err == nil {
		t.Fatal("reserved label accepted")
	}
}

func TestQueryRoundTrip(t *testing.T) {
	raw := query(7, flagRD, []question{
		{Name: []byte("a.example.com"), Type: typeA, Class: 1},
		{Name: []byte("b.example.com"), Type: typeAAAA, Class: 1},
	}, []record{{Name: nil, Type: typeOPT, Class: 4096}})
	q, err := decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if q.Header.ID != 7 || len(q.Questions) != 2 || len(q.Additional) != 1 {
		t.Fatalf("decoded = %+v", q)
	}
	if string(q.Questions[1].Name) != "b.example.com" || q.Questions[1].Type != typeAAAA {
		t.Fatalf("question = %+v", q.Questions[1])
	}
	if q.Additional[0].Type != typeOPT || q.Additional[0].Class != 4096 {
		t.Fatalf("opt = %+v", q.Additional[0])
	}
}

func TestConfigConflicts(t *testing.T) {
	bad := []map[string]string{
		{"dnssec": "true"},
		{"no-resolv": "true", "server": ""},
		{"auth-zone": "example.org", "stop-dns-rebind": "true"},
		{"expand-hosts": "true"},
		{"cache-size": "-5"},
	}
	for i, cfg := range bad {
		if cfg["server"] == "" && cfg["no-resolv"] != "true" {
			cfg["server"] = "8.8.8.8"
		}
		if err := NewServer().Start(cfg, coverage.NewTrace()); err == nil {
			t.Errorf("conflict %d accepted: %v", i, cfg)
		}
	}
	good := []map[string]string{
		{"server": "8.8.8.8"},
		{"dnssec": "true", "trust-anchor": "x", "server": "1.1.1.1"},
		{"expand-hosts": "true", "domain": "lan", "server": "1.1.1.1"},
	}
	for i, cfg := range good {
		if err := NewServer().Start(cfg, coverage.NewTrace()); err != nil {
			t.Errorf("valid config %d rejected: %v", i, err)
		}
	}
}

func TestForwardedAnswerAndCache(t *testing.T) {
	s := startServer(t, map[string]string{"server": "8.8.8.8"})
	tr := coverage.NewTrace()
	s.SetTrace(tr)
	resp := s.Message(simpleQuery("www.example.com", typeA))
	if len(resp) != 1 {
		t.Fatal("no response")
	}
	h, answers := decodeAnswer(t, resp[0])
	if h.Flags&flagQR == 0 || len(answers) != 1 || answers[0].Type != typeA {
		t.Fatalf("response = %+v %+v", h, answers)
	}
	first := answers[0].Data

	// Second identical query must be served from cache with the same data.
	resp2 := s.Message(simpleQuery("www.example.com", typeA))
	_, answers2 := decodeAnswer(t, resp2[0])
	if string(answers2[0].Data) != string(first) {
		t.Fatal("cache served different answer")
	}
}

func TestLocalHosts(t *testing.T) {
	s := startServer(t, map[string]string{"server": "8.8.8.8"})
	s.SetTrace(coverage.NewTrace())
	_, answers := decodeAnswer(t, s.Message(simpleQuery("router.lan", typeA))[0])
	if len(answers) != 1 || string(answers[0].Data) != string([]byte{192, 168, 0, 1}) {
		t.Fatalf("hosts answer = %+v", answers)
	}
}

func TestFilters(t *testing.T) {
	s := startServer(t, map[string]string{
		"server": "8.8.8.8", "domain-needed": "true", "bogus-priv": "true", "filterwin2k": "true",
	})
	s.SetTrace(coverage.NewTrace())

	h, ans := decodeAnswer(t, s.Message(simpleQuery("plainhost", typeA))[0])
	if h.Flags&0x0f != rcodeRefused || len(ans) != 0 {
		t.Fatalf("domain-needed: rcode %d", h.Flags&0x0f)
	}
	h, _ = decodeAnswer(t, s.Message(simpleQuery("9.0.168.192.in-addr.arpa", typePTR))[0])
	if h.Flags&0x0f != rcodeNXDomain {
		t.Fatalf("bogus-priv: rcode %d", h.Flags&0x0f)
	}
	h, _ = decodeAnswer(t, s.Message(simpleQuery("_ldap.tcp.example.com", typeSRV))[0])
	if h.Flags&0x0f != rcodeNXDomain {
		t.Fatalf("filterwin2k: rcode %d", h.Flags&0x0f)
	}
}

func TestAddressInterception(t *testing.T) {
	s := startServer(t, map[string]string{
		"server": "8.8.8.8", "address": "/blocked.example/127.0.0.1",
	})
	s.SetTrace(coverage.NewTrace())
	_, ans := decodeAnswer(t, s.Message(simpleQuery("ads.blocked.example", typeA))[0])
	if len(ans) != 1 || string(ans[0].Data) != string([]byte{127, 0, 0, 1}) {
		t.Fatalf("interception = %+v", ans)
	}
}

func TestBug10DNSSECTruncated(t *testing.T) {
	// Valid header claiming one additional record, body truncated.
	w := wire.NewWriter(16)
	w.U16(1)
	w.U16(0)
	w.U16(0)
	w.U16(0)
	w.U16(0)
	w.U16(1)                             // ARCOUNT=1 but nothing follows — name decodes as truncated
	data := append(w.Bytes(), 0x03, 'a') // truncated label
	s := startServer(t, map[string]string{"server": "8.8.8.8", "dnssec": "true", "trust-anchor": "x"})
	s.SetTrace(coverage.NewTrace())
	// Need a truncated 16-bit field specifically: name then cut qtype.
	data2 := append(w.Bytes(), 0x01, 'a', 0x00, 0x00) // name "a", then half of TYPE
	crash := bugs.Capture(func() { s.Message(data2) })
	if crash == nil || crash.Function != "get16bits" {
		// try the first variant
		crash = bugs.Capture(func() { s.Message(data) })
	}
	if crash == nil || crash.Function != "get16bits" {
		t.Fatalf("crash = %+v, want bug #10", crash)
	}
	// Without dnssec: no crash.
	s2 := startServer(t, map[string]string{"server": "8.8.8.8"})
	s2.SetTrace(coverage.NewTrace())
	if c := bugs.Capture(func() { s2.Message(data2) }); c != nil {
		t.Fatalf("bug #10 fired without dnssec: %v", c)
	}
}

func TestBug11PointerPastEnd(t *testing.T) {
	w := wire.NewWriter(16)
	w.U16(2)
	w.U16(0)
	w.U16(1)
	w.U16(0)
	w.U16(0)
	w.U16(0)
	w.U8(0xc1)
	w.U8(0xff) // pointer to 511: past end
	w.U16(typeA)
	w.U16(1)
	data := w.Bytes()
	s := startServer(t, map[string]string{"server": "8.8.8.8", "stop-dns-rebind": "true"})
	s.SetTrace(coverage.NewTrace())
	crash := bugs.Capture(func() { s.Message(data) })
	if crash == nil || crash.Kind != bugs.HeapBufferOverflow {
		t.Fatalf("crash = %+v, want bug #11", crash)
	}
	s2 := startServer(t, map[string]string{"server": "8.8.8.8"})
	s2.SetTrace(coverage.NewTrace())
	if c := bugs.Capture(func() { s2.Message(data) }); c != nil {
		t.Fatalf("bug #11 fired without stop-dns-rebind: %v", c)
	}
}

func TestBug12HugeEDNS(t *testing.T) {
	q := query(3, flagRD, []question{{Name: []byte("x.com"), Type: typeA, Class: 1}},
		[]record{{Name: nil, Type: typeOPT, Class: 0x8000}})
	s := startServer(t, map[string]string{"server": "8.8.8.8", "edns-packet-max": "0"})
	s.SetTrace(coverage.NewTrace())
	crash := bugs.Capture(func() { s.Message(q) })
	if crash == nil || crash.Kind != bugs.AllocationSizeTooBig {
		t.Fatalf("crash = %+v, want bug #12", crash)
	}
	s2 := startServer(t, map[string]string{"server": "8.8.8.8"}) // default 4096
	s2.SetTrace(coverage.NewTrace())
	if c := bugs.Capture(func() { s2.Message(q) }); c != nil {
		t.Fatalf("bug #12 fired with default edns-packet-max: %v", c)
	}
}

func TestBug13FormatString(t *testing.T) {
	q := simpleQuery("p%n.example.com", typeA)
	s := startServer(t, map[string]string{"server": "8.8.8.8", "log-queries": "true"})
	s.SetTrace(coverage.NewTrace())
	crash := bugs.Capture(func() { s.Message(q) })
	if crash == nil || crash.Function != "printf_common" {
		t.Fatalf("crash = %+v, want bug #13", crash)
	}
	s2 := startServer(t, map[string]string{"server": "8.8.8.8"})
	s2.SetTrace(coverage.NewTrace())
	if c := bugs.Capture(func() { s2.Message(q) }); c != nil {
		t.Fatalf("bug #13 fired without log-queries: %v", c)
	}
}

func TestBug14OverlongNameWithHosts(t *testing.T) {
	long := strings.Repeat("a", 80) + ".example.com"
	q := simpleQuery(long, typeA)
	s := startServer(t, map[string]string{"server": "8.8.8.8", "addn-hosts": "/etc/hosts.extra"})
	s.SetTrace(coverage.NewTrace())
	crash := bugs.Capture(func() { s.Message(q) })
	if crash == nil || crash.Function != "config_parse" {
		t.Fatalf("crash = %+v, want bug #14", crash)
	}
	s2 := startServer(t, map[string]string{"server": "8.8.8.8"})
	s2.SetTrace(coverage.NewTrace())
	if c := bugs.Capture(func() { s2.Message(q) }); c != nil {
		t.Fatalf("bug #14 fired without addn-hosts: %v", c)
	}
}

func TestStartupSynergies(t *testing.T) {
	count := func(cfg map[string]string) int {
		tr := coverage.NewTrace()
		if err := NewServer().Start(cfg, tr); err != nil {
			t.Fatalf("Start(%v): %v", cfg, err)
		}
		return tr.Count()
	}
	base := count(map[string]string{"server": "8.8.8.8"})
	dhcp := count(map[string]string{"server": "8.8.8.8", "dhcp-range": "192.168.0.50,150"})
	dom := count(map[string]string{"server": "8.8.8.8", "domain": "lan"})
	both := count(map[string]string{"server": "8.8.8.8", "dhcp-range": "192.168.0.50,150", "domain": "lan"})
	if both-base <= (dhcp-base)+(dom-base) {
		t.Fatalf("no dhcp/domain synergy: base=%d dhcp=%d dom=%d both=%d", base, dhcp, dom, both)
	}
}

func TestPitParses(t *testing.T) {
	pit, err := fuzz.ParsePit(Subject().PitXML())
	if err != nil {
		t.Fatal(err)
	}
	if len(pit.DataModels) != 5 || len(pit.StateModels) != 1 {
		t.Fatalf("pit models = %d/%d", len(pit.DataModels), len(pit.StateModels))
	}
}

func TestMalformedGetsFormErr(t *testing.T) {
	s := startServer(t, map[string]string{"server": "8.8.8.8"})
	s.SetTrace(coverage.NewTrace())
	// Valid header, truncated question.
	w := wire.NewWriter(16)
	w.U16(9)
	w.U16(0)
	w.U16(1)
	w.U16(0)
	w.U16(0)
	w.U16(0)
	data := append(w.Bytes(), 0x05, 'a')
	resp := s.Message(data)
	if len(resp) != 1 {
		t.Fatal("no FORMERR response")
	}
	h, _ := decodeAnswer(t, resp[0])
	if h.Flags&0x0f != rcodeFormErr {
		t.Fatalf("rcode = %d", h.Flags&0x0f)
	}
}
