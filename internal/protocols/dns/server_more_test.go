package dns

import (
	"testing"
	"testing/quick"

	"cmfuzz/internal/coverage"
)

func TestAAAAAnswer(t *testing.T) {
	s := startServer(t, map[string]string{"server": "8.8.8.8"})
	s.SetTrace(coverage.NewTrace())
	_, ans := decodeAnswer(t, s.Message(simpleQuery("v6.example.com", typeAAAA))[0])
	if len(ans) != 1 || ans[0].Type != typeAAAA || len(ans[0].Data) != 16 {
		t.Fatalf("AAAA answer = %+v", ans)
	}
}

func TestMultipleQuestions(t *testing.T) {
	s := startServer(t, map[string]string{"server": "8.8.8.8"})
	s.SetTrace(coverage.NewTrace())
	q := query(5, flagRD, []question{
		{Name: []byte("a.example.com"), Type: typeA, Class: 1},
		{Name: []byte("router.lan"), Type: typeA, Class: 1},
	}, nil)
	h, ans := decodeAnswer(t, s.Message(q)[0])
	if h.QDCount != 2 || len(ans) != 2 {
		t.Fatalf("qd=%d answers=%d", h.QDCount, len(ans))
	}
}

func TestUnsolicitedResponseDropped(t *testing.T) {
	s := startServer(t, map[string]string{"server": "8.8.8.8"})
	s.SetTrace(coverage.NewTrace())
	q := query(5, flagQR, []question{{Name: []byte("x.com"), Type: typeA, Class: 1}}, nil)
	if resp := s.Message(q); resp != nil {
		t.Fatalf("QR=1 message answered: %x", resp)
	}
}

func TestNoUpstreamServfail(t *testing.T) {
	s := startServer(t, nil) // no server=
	s.SetTrace(coverage.NewTrace())
	h, _ := decodeAnswer(t, s.Message(simpleQuery("x.example.com", typeA))[0])
	if h.Flags&0x0f != rcodeServFail {
		t.Fatalf("rcode = %d, want SERVFAIL", h.Flags&0x0f)
	}
}

func TestLocalZoneAuthoritativeNXDomain(t *testing.T) {
	s := startServer(t, map[string]string{"server": "8.8.8.8", "local": "/lan/"})
	s.SetTrace(coverage.NewTrace())
	h, _ := decodeAnswer(t, s.Message(simpleQuery("ghost.lan", typeA))[0])
	if h.Flags&0x0f != rcodeNXDomain {
		t.Fatalf("local zone rcode = %d, want NXDOMAIN", h.Flags&0x0f)
	}
}

func TestAuthZoneSOA(t *testing.T) {
	s := startServer(t, map[string]string{"server": "8.8.8.8", "auth-zone": "example.org"})
	s.SetTrace(coverage.NewTrace())
	_, ans := decodeAnswer(t, s.Message(simpleQuery("www.example.org", typeNS))[0])
	if len(ans) != 1 || ans[0].Type != typeSOA {
		t.Fatalf("auth answer = %+v", ans)
	}
}

func TestExpandHosts(t *testing.T) {
	s := startServer(t, map[string]string{"server": "8.8.8.8", "expand-hosts": "true", "domain": "lan"})
	s.SetTrace(coverage.NewTrace())
	_, ans := decodeAnswer(t, s.Message(simpleQuery("printer", typeA))[0])
	if len(ans) != 1 || string(ans[0].Data) != string([]byte{192, 168, 0, 9}) {
		t.Fatalf("expanded host answer = %+v", ans)
	}
}

func TestCacheBounded(t *testing.T) {
	s := startServer(t, map[string]string{"server": "8.8.8.8", "cache-size": "10"})
	s.SetTrace(coverage.NewTrace())
	for i := 0; i < 50; i++ {
		name := "h" + string(rune('a'+i%26)) + string(rune('a'+i/26)) + ".example.com"
		s.Message(simpleQuery(name, typeA))
	}
	if len(s.cache) > 10 {
		t.Fatalf("cache grew to %d, limit 10", len(s.cache))
	}
}

// Property: decodeQuery never panics and never accepts a packet whose
// question count exceeds the guard.
func TestQuickDecodeQueryRobust(t *testing.T) {
	f := func(data []byte) bool {
		q, err := decode(data)
		if err != nil {
			return true
		}
		return len(q.Questions) <= 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: encode/decode round trip for arbitrary simple questions.
func TestQuickQueryRoundTrip(t *testing.T) {
	f := func(id uint16, qtype uint16, labels [3]string) bool {
		name := ""
		for _, l := range labels {
			clean := ""
			for _, r := range l {
				if r > ' ' && r != '.' && r < 127 {
					clean += string(r)
				}
			}
			if clean == "" {
				clean = "x"
			}
			if len(clean) > 63 {
				clean = clean[:63]
			}
			if name != "" {
				name += "."
			}
			name += clean
		}
		raw := query(id, flagRD, []question{{Name: []byte(name), Type: qtype, Class: 1}}, nil)
		q, err := decode(raw)
		if err != nil {
			return false
		}
		return q.Header.ID == id && len(q.Questions) == 1 &&
			string(q.Questions[0].Name) == name && q.Questions[0].Type == qtype
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
