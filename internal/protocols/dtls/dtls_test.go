package dtls

import (
	"testing"

	"cmfuzz/internal/coverage"
	"cmfuzz/internal/fuzz"
	"cmfuzz/internal/wire"
)

// record renders a record with the encoder the server answers with.
func record(ct byte, body []byte) []byte {
	w := wire.NewWriter(64)
	appendRecord(w, ct, body)
	return w.Bytes()
}

// handshakeRecord renders a handshake record carrying one message.
func handshakeRecord(msgType byte, body []byte) []byte {
	w := wire.NewWriter(64)
	appendHandshake(w, msgType, body)
	return w.Bytes()
}

func startServer(t *testing.T, cfg map[string]string) *Server {
	t.Helper()
	s := NewServer()
	if err := s.Start(cfg, coverage.NewTrace()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	s.SetTrace(coverage.NewTrace())
	s.NewSession()
	return s
}

// clientHello builds a valid ClientHello record with the given cookie.
func clientHello(cookie []byte) []byte {
	body := []byte{0xfe, 0xfd}
	body = append(body, make([]byte, 32)...) // random
	body = append(body, 0)                   // sid len
	body = append(body, byte(len(cookie)))
	body = append(body, cookie...)
	suites := []byte{0x00, 0x2f, 0x00, 0x9d, 0xcc, 0xa8, 0x00, 0x8c}
	body = append(body, byte(len(suites)>>8), byte(len(suites)))
	body = append(body, suites...)
	body = append(body, 1, 0) // compression methods
	return handshakeRecord(hsClientHello, body)
}

func msgTypeOf(t *testing.T, rec []byte) (ct byte, hsType byte) {
	t.Helper()
	if len(rec) < 13 {
		t.Fatalf("short record %x", rec)
	}
	ct = rec[0]
	if ct == ctHandshake && len(rec) > 13 {
		hsType = rec[13]
	}
	return ct, hsType
}

func TestConfigValidation(t *testing.T) {
	bad := []map[string]string{
		{"cipher": "EXPORT-RC4"},
		{"cipher": "PSK-AES128"},
		{"compression": "true", "cipher": "AES256-GCM"},
		{"mtu": "64"},
		{"min-version": "sslv3"},
		{"timeout": "0"},
	}
	for i, cfg := range bad {
		if err := NewServer().Start(cfg, coverage.NewTrace()); err == nil {
			t.Errorf("conflict %d accepted: %v", i, cfg)
		}
	}
	good := []map[string]string{
		nil,
		{"cipher": "PSK-AES128", "psk": "aa55"},
		{"compression": "true", "cipher": "AES128-SHA"},
		{"no-cookie": "true", "session-tickets": "true", "renegotiation": "true"},
	}
	for i, cfg := range good {
		if err := NewServer().Start(cfg, coverage.NewTrace()); err != nil {
			t.Errorf("valid config %d rejected: %v", i, err)
		}
	}
}

func TestCookieExchange(t *testing.T) {
	s := startServer(t, nil)
	resp := s.Message(clientHello(nil))
	if len(resp) != 1 {
		t.Fatalf("responses = %d", len(resp))
	}
	if _, hs := msgTypeOf(t, resp[0]); hs != hsHelloVerifyRequest {
		t.Fatalf("expected HelloVerifyRequest, got hs type %d", hs)
	}
	// The HVR carries the cookie at body offset 3 (ver(2) + count(1)).
	cookie := resp[0][13+12+3]
	resp = s.Message(clientHello([]byte{cookie}))
	foundSH := false
	for _, r := range resp {
		if _, hs := msgTypeOf(t, r); hs == hsServerHello {
			foundSH = true
		}
	}
	if !foundSH {
		t.Fatalf("no ServerHello after valid cookie: %d records", len(resp))
	}
}

func TestNoCookieSkipsVerify(t *testing.T) {
	s := startServer(t, map[string]string{"no-cookie": "true"})
	resp := s.Message(clientHello(nil))
	if len(resp) < 2 {
		t.Fatalf("expected immediate ServerHello flight, got %d records", len(resp))
	}
	if _, hs := msgTypeOf(t, resp[0]); hs != hsServerHello {
		t.Fatalf("first record hs type %d", hs)
	}
}

func TestFullHandshakeAndAppData(t *testing.T) {
	s := startServer(t, map[string]string{"no-cookie": "true"})
	s.Message(clientHello(nil))
	s.Message(handshakeRecord(hsClientKeyExchange, []byte("keydata")))
	s.Message(record(ctChangeCipherSpec, []byte{1}))
	resp := s.Message(handshakeRecord(hsFinished, []byte("verify")))
	if len(resp) < 2 {
		t.Fatalf("finished flight = %d records", len(resp))
	}
	echo := s.Message(record(ctApplicationData, []byte("hello")))
	if len(echo) != 1 || echo[0][0] != ctApplicationData {
		t.Fatalf("appdata echo = %v", echo)
	}
}

func TestAppDataBeforeHandshakeIgnored(t *testing.T) {
	s := startServer(t, nil)
	if resp := s.Message(record(ctApplicationData, []byte("early"))); resp != nil {
		t.Fatalf("early appdata answered: %v", resp)
	}
}

func TestSessionTicketsIssued(t *testing.T) {
	s := startServer(t, map[string]string{"no-cookie": "true", "session-tickets": "true"})
	s.Message(clientHello(nil))
	s.Message(handshakeRecord(hsClientKeyExchange, []byte("k")))
	s.Message(record(ctChangeCipherSpec, []byte{1}))
	resp := s.Message(handshakeRecord(hsFinished, []byte("v")))
	if len(resp) != 3 {
		t.Fatalf("expected CCS+Finished+Ticket, got %d records", len(resp))
	}
}

func TestRenegotiationPolicy(t *testing.T) {
	complete := func(cfg map[string]string) *Server {
		s := startServer(t, cfg)
		s.Message(clientHello(nil))
		s.Message(handshakeRecord(hsClientKeyExchange, []byte("k")))
		s.Message(record(ctChangeCipherSpec, []byte{1}))
		s.Message(handshakeRecord(hsFinished, []byte("v")))
		return s
	}
	// Denied by default: fatal alert.
	s := complete(map[string]string{"no-cookie": "true"})
	resp := s.Message(clientHello(nil))
	if len(resp) != 1 || resp[0][0] != ctAlert {
		t.Fatalf("renegotiation not refused: %v", resp)
	}
	// Allowed when configured.
	s2 := complete(map[string]string{"no-cookie": "true", "renegotiation": "true"})
	resp = s2.Message(clientHello(nil))
	if len(resp) == 0 || resp[0][0] == ctAlert {
		t.Fatalf("renegotiation refused despite config: %v", resp)
	}
}

func TestCipherMismatch(t *testing.T) {
	s := startServer(t, map[string]string{"no-cookie": "true", "cipher": "CHACHA20"})
	// Offer only AES128-SHA.
	body := []byte{0xfe, 0xfd}
	body = append(body, make([]byte, 32)...)
	body = append(body, 0, 0)
	body = append(body, 0, 2, 0x00, 0x2f)
	body = append(body, 1, 0)
	resp := s.Message(handshakeRecord(hsClientHello, body))
	if len(resp) != 1 || resp[0][0] != ctAlert {
		t.Fatalf("cipher mismatch not alerted: %v", resp)
	}
}

func TestMalformedRecordsSafe(t *testing.T) {
	s := startServer(t, nil)
	inputs := [][]byte{
		nil,
		{22},
		{22, 0xfe, 0xfd, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff},
		{99, 0xfe, 0xfd, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		record(ctHandshake, []byte{1, 2}),
		record(ctAlert, []byte{5}),
	}
	for _, in := range inputs {
		s.Message(in) // must not panic
	}
}

func TestStartupCoverageGatedRegions(t *testing.T) {
	count := func(cfg map[string]string) int {
		tr := coverage.NewTrace()
		if err := NewServer().Start(cfg, tr); err != nil {
			t.Fatalf("Start(%v): %v", cfg, err)
		}
		return tr.Count()
	}
	base := count(nil)
	rich := count(map[string]string{
		"session-tickets": "true", "renegotiation": "true",
		"verify-peer": "true", "psk": "aa55",
	})
	if rich <= base {
		t.Fatalf("gated startup regions missing: base=%d rich=%d", base, rich)
	}
	// DTLS's gated space is deliberately modest (paper: fixed crypto
	// settings limit flexibility).
	if rich > base*3 {
		t.Fatalf("DTLS gated region too large: base=%d rich=%d", base, rich)
	}
}

func TestPitParsesAndHandshakes(t *testing.T) {
	pit, err := fuzz.ParsePit(Subject().PitXML())
	if err != nil {
		t.Fatal(err)
	}
	if len(pit.DataModels) != 6 {
		t.Fatalf("pit data models = %d", len(pit.DataModels))
	}
	sm := pit.StateModels["DTLSHandshake"]
	if sm == nil {
		t.Fatal("state model missing")
	}
	if len(sm.Paths(12, 64)) < 3 {
		t.Fatal("too few distinct handshake paths")
	}
}
