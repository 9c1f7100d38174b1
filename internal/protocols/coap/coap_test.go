package coap

import (
	"errors"
	"math/rand"
	"testing"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/fuzz"
	"cmfuzz/internal/wire"
)

// encode renders m with the encoder the server replies with.
func encode(m message) []byte {
	w := wire.NewWriter(64)
	appendMessage(w, &m)
	return w.Bytes()
}

// parse decodes data into a fresh message.
func parse(data []byte) (message, error) {
	var m message
	err := decode(data, &m)
	return m, err
}

func startServer(t *testing.T, cfg map[string]string) *Server {
	t.Helper()
	s := NewServer()
	if err := s.Start(cfg, coverage.NewTrace()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	s.NewSession()
	return s
}

// request builds a CoAP request datagram.
func request(typ, code byte, mid uint16, token []byte, opts []option, payload []byte) []byte {
	return encode(message{Type: typ, Code: code, MessageID: mid, Token: token, Options: opts, Payload: payload})
}

func pathOpts(segments ...string) []option {
	var opts []option
	for _, s := range segments {
		opts = append(opts, option{Number: optUriPath, Value: []byte(s)})
	}
	return opts
}

func TestCodecRoundTrip(t *testing.T) {
	m := message{
		Type:      typeCON,
		Code:      codeGET,
		MessageID: 0x1234,
		Token:     []byte{1, 2, 3},
		Options: []option{
			{Number: optObserve, Value: nil},
			{Number: optUriPath, Value: []byte("sensors")},
			{Number: optUriPath, Value: []byte("temp")},
			{Number: optBlock2, Value: []byte{0x12}},
			{Number: optSize1, Value: []byte{0x01, 0x00}},
		},
		Payload: []byte("data"),
	}
	got, err := parse(encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != m.Type || got.Code != m.Code || got.MessageID != m.MessageID {
		t.Fatalf("header mismatch: %+v", got)
	}
	if string(got.Token) != string(m.Token) {
		t.Fatalf("token = %x", got.Token)
	}
	if len(got.Options) != len(m.Options) {
		t.Fatalf("options = %d", len(got.Options))
	}
	for i := range m.Options {
		if got.Options[i].Number != m.Options[i].Number ||
			string(got.Options[i].Value) != string(m.Options[i].Value) {
			t.Fatalf("option %d = %+v, want %+v", i, got.Options[i], m.Options[i])
		}
	}
	if string(got.Payload) != "data" {
		t.Fatalf("payload = %q", got.Payload)
	}
	if string(got.appendURIPath(nil)) != "sensors/temp" {
		t.Fatalf("uriPath = %q", string(got.appendURIPath(nil)))
	}
}

func TestDecodeRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"wrong version", []byte{0x00, 0x01, 0x00, 0x01}},
		{"tkl too large", []byte{0x49, 0x01, 0x00, 0x01, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
		{"truncated token", []byte{0x44, 0x01, 0x00, 0x01, 1, 2}},
		{"reserved delta 15", []byte{0x40, 0x01, 0x00, 0x01, 0xf1, 0x00}},
		{"marker no payload", []byte{0x40, 0x01, 0x00, 0x01, 0xff}},
		{"option past end", []byte{0x40, 0x01, 0x00, 0x01, 0xb7, 0x41}},
	}
	for _, c := range cases {
		if _, err := parse(c.data); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestDecodeTruncatedExtendedDelta(t *testing.T) {
	// delta nibble 14 requires two extension bytes; give one.
	data := []byte{0x40, 0x01, 0x00, 0x01, 0xe1, 0x02}
	_, err := parse(data)
	if !errors.Is(err, errTruncatedExt) {
		t.Fatalf("err = %v, want errTruncatedExt", err)
	}
}

func TestBlockOptRoundTrip(t *testing.T) {
	for _, b := range []blockOpt{
		{Num: 0, More: false, SZX: 2},
		{Num: 1, More: true, SZX: 6},
		{Num: 300, More: false, SZX: 0},
		{Num: 70000, More: true, SZX: 7},
	} {
		got, ok := decodeBlockOpt(appendBlockOpt(nil, b))
		if !ok || got != b {
			t.Errorf("block round trip %+v -> %+v (%v)", b, got, ok)
		}
	}
	if _, ok := decodeBlockOpt([]byte{1, 2, 3, 4}); ok {
		t.Error("4-byte block option accepted")
	}
}

func TestConfigConflicts(t *testing.T) {
	bad := []map[string]string{
		{"dtls": "true"},
		{"dtls": "true", "psk-key": "k", "multicast": "true"},
		{"block-size": "4"},
		{"block-size": "9999"},
		{"q-block": "true", "block-size": "16"},
		{"ack-timeout": "0"},
	}
	for i, cfg := range bad {
		if err := NewServer().Start(cfg, coverage.NewTrace()); err == nil {
			t.Errorf("conflict %d accepted: %v", i, cfg)
		}
	}
	good := []map[string]string{
		nil,
		{"dtls": "true", "psk-key": "hunter2"},
		{"q-block": "true"},
		{"observe": "true", "q-block": "true"},
	}
	for i, cfg := range good {
		if err := NewServer().Start(cfg, coverage.NewTrace()); err != nil {
			t.Errorf("valid config %d rejected: %v", i, err)
		}
	}
}

func TestGetAndPut(t *testing.T) {
	s := startServer(t, nil)
	resp := s.Message(request(typeCON, codeGET, 1, []byte{9}, pathOpts("sensors", "temp"), nil))
	if len(resp) != 1 {
		t.Fatal("no response")
	}
	rm, err := parse(resp[0])
	if err != nil || rm.Code != codeContent || rm.Type != typeACK {
		t.Fatalf("GET response = %+v (%v)", rm, err)
	}
	if string(rm.Payload) != "21.5" {
		t.Fatalf("payload = %q", rm.Payload)
	}

	resp = s.Message(request(typeNON, codePUT, 2, []byte{9}, pathOpts("new", "thing"), []byte("v")))
	rm, _ = parse(resp[0])
	if rm.Code != codeCreated || rm.Type != typeNON {
		t.Fatalf("PUT response = %+v", rm)
	}
	resp = s.Message(request(typeCON, codeGET, 3, []byte{9}, pathOpts("new", "thing"), nil))
	rm, _ = parse(resp[0])
	if string(rm.Payload) != "v" {
		t.Fatalf("stored payload = %q", rm.Payload)
	}
}

func TestGetNotFound(t *testing.T) {
	s := startServer(t, nil)
	resp := s.Message(request(typeCON, codeGET, 1, nil, pathOpts("ghost"), nil))
	rm, _ := parse(resp[0])
	if rm.Code != codeNotFound {
		t.Fatalf("code = %d", rm.Code)
	}
}

func TestBlock2Download(t *testing.T) {
	s := startServer(t, nil)
	long := make([]byte, 200)
	for i := range long {
		long[i] = byte('a' + i%26)
	}
	s.Message(request(typeCON, codePUT, 1, []byte{1}, pathOpts("big"), long))

	// SZX 2 = 64-byte blocks.
	get := func(num int) message {
		opts := append(pathOpts("big"), option{Number: optBlock2, Value: appendBlockOpt(nil, blockOpt{Num: num, SZX: 2})})
		resp := s.Message(request(typeCON, codeGET, uint16(10+num), []byte{1}, opts, nil))
		rm, err := parse(resp[0])
		if err != nil {
			t.Fatal(err)
		}
		return rm
	}
	b0 := get(0)
	if len(b0.Payload) != 64 {
		t.Fatalf("block 0 len = %d", len(b0.Payload))
	}
	bv, _ := b0.findOption(optBlock2)
	blk, _ := decodeBlockOpt(bv)
	if !blk.More || blk.Num != 0 {
		t.Fatalf("block 0 opt = %+v", blk)
	}
	b3 := get(3)
	if len(b3.Payload) != 200-192 {
		t.Fatalf("last block len = %d", len(b3.Payload))
	}
	bv, _ = b3.findOption(optBlock2)
	blk, _ = decodeBlockOpt(bv)
	if blk.More {
		t.Fatal("last block claims more")
	}
	// Past the end.
	past := get(9)
	if past.Code != codeBadOption {
		t.Fatalf("past-end code = %d", past.Code)
	}
}

func TestBlock1Upload(t *testing.T) {
	s := startServer(t, nil)
	put := func(num int, more bool, payload string) message {
		opts := append(pathOpts("fw"), option{Number: optBlock1, Value: appendBlockOpt(nil, blockOpt{Num: num, More: more, SZX: 2})})
		resp := s.Message(request(typeCON, codePUT, uint16(20+num), []byte{2}, opts, []byte(payload)))
		rm, _ := parse(resp[0])
		return rm
	}
	if rm := put(0, true, "AAAA"); rm.Code != codeContinue {
		t.Fatalf("block 0 code = %d", rm.Code)
	}
	if rm := put(1, false, "BBBB"); rm.Code != codeCreated {
		t.Fatalf("final block code = %d", rm.Code)
	}
	resp := s.Message(request(typeCON, codeGET, 30, []byte{2}, pathOpts("fw"), nil))
	rm, _ := parse(resp[0])
	if string(rm.Payload) != "AAAABBBB" {
		t.Fatalf("reassembled = %q", rm.Payload)
	}
}

func TestBug6DuplicateObserve(t *testing.T) {
	s := startServer(t, map[string]string{"observe": "true"})
	opts := []option{
		{Number: optObserve, Value: []byte{0}},
		{Number: optObserve, Value: []byte{0}},
		{Number: optUriPath, Value: []byte("sensors")},
	}
	crash := bugs.Capture(func() {
		s.Message(request(typeCON, codeGET, 1, []byte{3}, opts, nil))
	})
	if crash == nil || crash.Function != "coap_clean_options" {
		t.Fatalf("crash = %+v, want bug #6", crash)
	}
	// Without observe enabled, the same input is harmless.
	s2 := startServer(t, nil)
	if c := bugs.Capture(func() { s2.Message(request(typeCON, codeGET, 1, []byte{3}, opts, nil)) }); c != nil {
		t.Fatalf("bug #6 fired under default config: %v", c)
	}
}

func TestBug7TruncatedExtUnderDTLS(t *testing.T) {
	data := []byte{0x40, 0x01, 0x00, 0x01, 0xe1, 0x02} // truncated ext delta
	s := startServer(t, map[string]string{"dtls": "true", "psk-key": "k"})
	crash := bugs.Capture(func() { s.Message(data) })
	if crash == nil || crash.Function != "CoapPDU::getOptionDelta" {
		t.Fatalf("crash = %+v, want bug #7", crash)
	}
	s2 := startServer(t, nil)
	if c := bugs.Capture(func() { s2.Message(data) }); c != nil {
		t.Fatalf("bug #7 fired without dtls: %v", c)
	}
}

// TestBug8QBlockCaseStudy reproduces the paper's Figure 5 case study: a
// PUT whose final Q-Block1 block arrives with no block 0 leaves
// lg_srcv->body_data NULL, and the give_app_data reassembly dereferences
// it. Only reachable with the non-default q-block configuration.
func TestBug8QBlockCaseStudy(t *testing.T) {
	s := startServer(t, map[string]string{"q-block": "true"})
	opts := append(pathOpts("firmware"),
		option{Number: optQBlock1, Value: appendBlockOpt(nil, blockOpt{Num: 1, More: false, SZX: 2})})
	crash := bugs.Capture(func() {
		s.Message(request(typeCON, codePUT, 5, []byte{7}, opts, []byte("tail")))
	})
	if crash == nil || crash.Function != "coap_handle_request_put_block" {
		t.Fatalf("crash = %+v, want bug #8", crash)
	}
	if k, ok := bugs.LookupKnown(crash); !ok || k.No != 8 {
		t.Fatalf("not Table II row 8: %+v", k)
	}

	// Default configuration rejects the option instead (Bad Option) —
	// "it cannot be triggered under the default configuration".
	s2 := startServer(t, nil)
	var resp [][]byte
	if c := bugs.Capture(func() {
		resp = s2.Message(request(typeCON, codePUT, 5, []byte{7}, opts, []byte("tail")))
	}); c != nil {
		t.Fatalf("bug #8 fired under default config: %v", c)
	}
	rm, _ := parse(resp[0])
	if rm.Code != codeBadOption {
		t.Fatalf("default config response = %d, want Bad Option", rm.Code)
	}
}

func TestQBlockHappyPath(t *testing.T) {
	s := startServer(t, map[string]string{"q-block": "true"})
	put := func(num int, more bool, payload string) message {
		opts := append(pathOpts("fw"),
			option{Number: optQBlock1, Value: appendBlockOpt(nil, blockOpt{Num: num, More: more, SZX: 2})})
		resp := s.Message(request(typeCON, codePUT, uint16(40+num), []byte{8}, opts, []byte(payload)))
		rm, _ := parse(resp[0])
		return rm
	}
	if rm := put(0, true, "XX"); rm.Code != codeContinue {
		t.Fatalf("q-block 0 = %d", rm.Code)
	}
	if rm := put(1, false, "YY"); rm.Code != codeCreated {
		t.Fatalf("q-block final = %d", rm.Code)
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
	base := count(nil)
	obs := count(map[string]string{"observe": "true"})
	qb := count(map[string]string{"q-block": "true"})
	both := count(map[string]string{"observe": "true", "q-block": "true"})
	if both-base <= (obs-base)+(qb-base) {
		t.Fatalf("no q-block/observe synergy: base=%d obs=%d qb=%d both=%d", base, obs, qb, both)
	}
}

func TestPingAndEmpty(t *testing.T) {
	s := startServer(t, nil)
	resp := s.Message(request(typeCON, codeEmpty, 7, nil, nil, nil))
	rm, _ := parse(resp[0])
	if rm.Type != typeRST {
		t.Fatalf("ping response = %+v", rm)
	}
	if resp := s.Message(request(typeNON, codeEmpty, 8, nil, nil, nil)); resp != nil {
		t.Fatal("NON empty answered")
	}
}

func TestPitParsesAndReachesServer(t *testing.T) {
	pit, err := fuzz.ParsePit(Subject().PitXML())
	if err != nil {
		t.Fatal(err)
	}
	s := startServer(t, map[string]string{"q-block": "true", "observe": "true"})
	tr := coverage.NewTrace()
	s.SetTrace(tr)
	r := rand.New(rand.NewSource(1))
	okResponses, total := 0, 0
	for range [4]int{} { // several instantiations to exercise choices
		for _, dm := range pit.DataModels {
			total++
			msg := dm.NewMessage(r)
			var resp [][]byte
			crash := bugs.Capture(func() { resp = s.Message(msg.Serialize()) })
			if crash != nil || resp != nil {
				okResponses++
			}
		}
	}
	if okResponses < total*3/4 {
		t.Fatalf("only %d/%d pit messages reached the server", okResponses, total)
	}
}
