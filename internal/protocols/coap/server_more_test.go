package coap

import (
	"testing"
	"testing/quick"

	"cmfuzz/internal/coverage"
)

func TestPostCreatesResource(t *testing.T) {
	s := startServer(t, nil)
	opts := append(pathOpts("queue"), option{Number: optContentFormat, Value: []byte{50}})
	resp := s.Message(request(typeCON, codePOST, 1, []byte{1}, opts, []byte(`{}`)))
	rm, _ := parse(resp[0])
	if rm.Code != codeCreated {
		t.Fatalf("POST code = %d", rm.Code)
	}
	if _, ok := s.resources["queue/new"]; !ok {
		t.Fatal("POST did not create the resource")
	}
}

func TestDeleteRemovesResourceAndObservers(t *testing.T) {
	s := startServer(t, map[string]string{"observe": "true"})
	// Register an observer, then delete the resource.
	s.Message(request(typeCON, codeGET, 1, []byte{1},
		append([]option{{Number: optObserve, Value: nil}}, pathOpts("sensors", "temp")...), nil))
	if n := s.resources["sensors/temp"].observers; n != 1 {
		t.Fatalf("observers = %d", n)
	}
	resp := s.Message(request(typeCON, codeDELETE, 2, []byte{1}, pathOpts("sensors", "temp"), nil))
	rm, _ := parse(resp[0])
	if rm.Code != codeDeleted {
		t.Fatalf("DELETE code = %d", rm.Code)
	}
	if _, ok := s.resources["sensors/temp"]; ok {
		t.Fatal("resource and its observers survived DELETE")
	}
}

func TestObserveDeregistration(t *testing.T) {
	s := startServer(t, map[string]string{"observe": "true"})
	reg := append([]option{{Number: optObserve, Value: []byte{0}}}, pathOpts("sensors", "temp")...)
	s.Message(request(typeCON, codeGET, 1, []byte{1}, reg, nil))
	dereg := append([]option{{Number: optObserve, Value: []byte{1}}}, pathOpts("sensors", "temp")...)
	s.Message(request(typeCON, codeGET, 2, []byte{1}, dereg, nil))
	if n := s.resources["sensors/temp"].observers; n != 0 {
		t.Fatalf("observer not deregistered: %d", n)
	}
}

func TestMaxPayloadRejects(t *testing.T) {
	s := startServer(t, map[string]string{"max-payload": "8"})
	resp := s.Message(request(typeCON, codePUT, 1, []byte{1}, pathOpts("x"), make([]byte, 64)))
	rm, _ := parse(resp[0])
	if rm.Code != codeTooLarge {
		t.Fatalf("code = %d, want 4.13", rm.Code)
	}
}

func TestFetchBehavesLikeGet(t *testing.T) {
	s := startServer(t, nil)
	resp := s.Message(request(typeCON, codeFETCH, 1, []byte{1}, pathOpts("sensors", "temp"), nil))
	rm, _ := parse(resp[0])
	if rm.Code != codeContent {
		t.Fatalf("FETCH code = %d", rm.Code)
	}
}

func TestSessionResetDropsUploads(t *testing.T) {
	s := startServer(t, nil)
	opts := append(pathOpts("fw"), option{Number: optBlock1, Value: appendBlockOpt(nil, blockOpt{Num: 0, More: true, SZX: 2})})
	s.Message(request(typeCON, codePUT, 1, []byte{2}, opts, []byte("AAAA")))
	if len(s.uploads) != 1 {
		t.Fatal("upload state missing")
	}
	s.NewSession()
	if len(s.uploads) != 0 {
		t.Fatal("upload state survived session reset")
	}
}

func TestUnknownMethodBadRequest(t *testing.T) {
	s := startServer(t, nil)
	resp := s.Message(request(typeCON, 31, 1, []byte{1}, pathOpts("x"), nil))
	rm, _ := parse(resp[0])
	if rm.Code != codeBadRequest {
		t.Fatalf("code = %d", rm.Code)
	}
}

// Property: every message the encoder can produce decodes back to the
// same header fields (codec round-trip on structured inputs).
func TestQuickMessageRoundTrip(t *testing.T) {
	f := func(mtype, code byte, mid uint16, tok []byte, payload []byte) bool {
		if len(tok) > 8 {
			tok = tok[:8]
		}
		if len(payload) > 512 {
			payload = payload[:512]
		}
		m := message{
			Type:      mtype & 0x03,
			Code:      code,
			MessageID: mid,
			Token:     tok,
			Options:   []option{{Number: optUriPath, Value: []byte("x")}},
			Payload:   payload,
		}
		if m.Code == 0 {
			m.Code = 1
		}
		got, err := parse(encode(m))
		if err != nil {
			// The only legal failure: empty payload after a marker never
			// happens because encode omits the marker for empty payloads.
			return false
		}
		return got.Type == m.Type && got.Code == m.Code && got.MessageID == mid &&
			string(got.Token) == string(tok) && string(got.Payload) == string(payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestResourceStoreCap(t *testing.T) {
	s := startServer(t, nil)
	s.SetTrace(coverage.NewTrace())
	for i := 0; i < 3000; i++ {
		path := "r/" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26))
		s.setResource([]byte(path), []byte("v"), false)
	}
	if len(s.resources) > 2048 {
		t.Fatalf("resource store unbounded: %d", len(s.resources))
	}
}

// TestResourceBodyOwned: a stored representation must not alias the
// request it arrived in, whose buffer the fuzzing engine reuses.
func TestResourceBodyOwned(t *testing.T) {
	s := startServer(t, nil)
	s.SetTrace(coverage.NewTrace())
	put := request(typeCON, codePUT, 1, []byte{1}, pathOpts("lamp"), []byte("on-on-on"))
	s.Message(put)
	copy(put[len(put)-8:], "ZZZZZZZZ")
	rm, _ := parse(s.Message(request(typeCON, codeGET, 2, []byte{1}, pathOpts("lamp"), nil))[0])
	if string(rm.Payload) != "on-on-on" {
		t.Fatalf("GET payload = %q, want %q", rm.Payload, "on-on-on")
	}
}
