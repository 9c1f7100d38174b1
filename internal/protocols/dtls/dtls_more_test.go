package dtls

import (
	"testing"
	"testing/quick"

	"cmfuzz/internal/coverage"
)

func TestMTUDropsOversizedRecordBody(t *testing.T) {
	s := startServer(t, map[string]string{"mtu": "256"})
	big := record(ctHandshake, make([]byte, 512))
	if resp := s.Message(big); resp != nil {
		t.Fatalf("oversized record processed: %d responses", len(resp))
	}
}

func TestMultipleRecordsPerDatagram(t *testing.T) {
	s := startServer(t, map[string]string{"no-cookie": "true"})
	// ClientHello + ClientKeyExchange coalesced into one datagram.
	datagram := append(clientHello(nil), handshakeRecord(hsClientKeyExchange, []byte("k"))...)
	resp := s.Message(datagram)
	if len(resp) < 2 {
		t.Fatalf("coalesced records produced %d responses", len(resp))
	}
	if s.state != stateKeyExchanged {
		t.Fatalf("state = %d, want key-exchanged", s.state)
	}
}

func TestWrongVersionRecordSkipped(t *testing.T) {
	s := startServer(t, nil)
	bad := handshakeRecord(hsClientHello, []byte{0xfe, 0xfd})
	bad[1], bad[2] = 0x03, 0x03 // TLS 1.2 version in a DTLS record
	if resp := s.Message(bad); resp != nil {
		t.Fatalf("wrong-version record answered: %v", resp)
	}
}

func TestFinishedRequiresCCS(t *testing.T) {
	s := startServer(t, map[string]string{"no-cookie": "true"})
	s.Message(clientHello(nil))
	s.Message(handshakeRecord(hsClientKeyExchange, []byte("k")))
	// Finished without ChangeCipherSpec: epoch still 0 → rejected.
	if resp := s.Message(handshakeRecord(hsFinished, []byte("v"))); resp != nil {
		t.Fatal("finished accepted before CCS")
	}
	if s.state == stateFinished {
		t.Fatal("handshake completed without CCS")
	}
}

func TestKeyExchangeRequiresHelloDone(t *testing.T) {
	s := startServer(t, nil)
	s.Message(handshakeRecord(hsClientKeyExchange, []byte("k")))
	if s.state != stateInit {
		t.Fatal("key exchange advanced state without hello")
	}
}

func TestNewSessionResetsHandshake(t *testing.T) {
	s := startServer(t, map[string]string{"no-cookie": "true"})
	s.Message(clientHello(nil))
	s.Message(handshakeRecord(hsClientKeyExchange, []byte("k")))
	s.Message(record(ctChangeCipherSpec, []byte{1}))
	s.Message(handshakeRecord(hsFinished, []byte("v")))
	if s.state != stateFinished {
		t.Fatal("handshake did not complete")
	}
	s.NewSession()
	if s.state != stateInit || s.epoch != 0 {
		t.Fatal("NewSession did not reset handshake state")
	}
}

func TestCookieDependsOnConfig(t *testing.T) {
	a := startServer(t, map[string]string{"cipher": "AES128-SHA"})
	b := startServer(t, map[string]string{"cipher": "CHACHA20"})
	if a.cookie == b.cookie {
		t.Fatal("cookie not bound to configuration")
	}
}

// Property: Message never panics on arbitrary datagrams (DTLS has no
// seeded bugs, so no typed crashes either).
func TestQuickMessageTotal(t *testing.T) {
	s := startServer(t, map[string]string{"no-cookie": "true", "session-tickets": "true"})
	s.SetTrace(coverage.NewTrace())
	f := func(data []byte) bool {
		s.Message(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
		t.Fatal(err)
	}
}

func TestCipherIDs(t *testing.T) {
	names := []string{"AES128-SHA", "AES256-GCM", "CHACHA20", "PSK-AES128"}
	seen := map[uint16]bool{}
	for _, n := range names {
		id := cipherID(n)
		if id == 0 || seen[id] {
			t.Fatalf("cipherID(%s) = %#x invalid or duplicate", n, id)
		}
		seen[id] = true
	}
	if cipherID("NULL") != 0 {
		t.Fatal("unknown cipher has nonzero id")
	}
}
