package dds

import (
	"encoding/binary"
	"testing"

	"cmfuzz/internal/core/configmodel"
	"cmfuzz/internal/core/configspec"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/fuzz"
	"cmfuzz/internal/wire"
)

func startNode(t *testing.T, cfg map[string]string) *Node {
	t.Helper()
	n := NewNode()
	if err := n.Start(cfg, coverage.NewTrace()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	n.SetTrace(coverage.NewTrace())
	n.NewSession()
	return n
}

// rtpsMessage wraps submessages in an RTPS header.
func rtpsMessage(subs ...[]byte) []byte {
	w := wire.NewWriter(64)
	w.Raw([]byte("RTPS"))
	w.U8(2)
	w.U8(2)
	w.U16(0x0101)
	w.Raw([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	for _, s := range subs {
		w.Raw(s)
	}
	return w.Bytes()
}

func submsg(id, flags byte, body []byte) []byte {
	w := wire.NewWriter(4 + len(body))
	w.U8(id)
	w.U8(flags)
	w.U16(uint16(len(body)))
	w.Raw(body)
	return w.Bytes()
}

func dataBody(writerID uint32, seq uint64, payload []byte) []byte {
	w := wire.NewWriter(24 + len(payload))
	w.U16(0)
	w.U16(0)
	w.U32(1) // readerId
	w.U32(writerID)
	w.U32(uint32(seq >> 32))
	w.U32(uint32(seq))
	w.Raw(payload)
	return w.Bytes()
}

func heartbeatBody(writerID uint32, first, last uint64, count uint32) []byte {
	w := wire.NewWriter(28)
	w.U32(1)
	w.U32(writerID)
	w.U32(uint32(first >> 32))
	w.U32(uint32(first))
	w.U32(uint32(last >> 32))
	w.U32(uint32(last))
	w.U32(count)
	return w.Bytes()
}

func TestConfigValidation(t *testing.T) {
	bad := []map[string]string{
		{keyTransport: "carrier-pigeon"},
		{keyTransport: "shm"}, // multicast defaults true
		{keyFragmentSize: "99999"},
		{keyFragmentSize: "16"},
		{keySPDPInterval: "0"},
		{keyPartIndex: "7"},
		{keyMaxAutoIndex: "-1"},
		{keyRetransmit: "sometimes"},
		{keyVerbosity: "shouting"},
	}
	for i, cfg := range bad {
		if err := NewNode().Start(cfg, coverage.NewTrace()); err == nil {
			t.Errorf("conflict %d accepted: %v", i, cfg)
		}
	}
	good := []map[string]string{
		nil,
		{keyTransport: "shm", keyAllowMulticast: "false"},
		{keySecurity: "true"},
		{keyVerbosity: "finest", keyWriterBatching: "true"},
	}
	for i, cfg := range good {
		if err := NewNode().Start(cfg, coverage.NewTrace()); err != nil {
			t.Errorf("valid config %d rejected: %v", i, err)
		}
	}
}

func TestXMLConfigExtractsToModel(t *testing.T) {
	items := configspec.Extract(Subject().ConfigInput())
	model := configmodel.Build(items)
	for _, key := range []string{keyAllowMulticast, keyMaxMessageSize, keyTransport, keySecurity, keyDomainID} {
		if _, ok := model.Get(key); !ok {
			t.Errorf("extracted model missing %q (have %+v)", key, model.Entities())
		}
	}
	// The extracted defaults must boot the node.
	cfg := model.Defaults()
	if err := NewNode().Start(map[string]string(cfg), coverage.NewTrace()); err != nil {
		t.Fatalf("extracted defaults fail startup: %v", err)
	}
}

func TestSPDPDiscovery(t *testing.T) {
	n := startNode(t, nil)
	msg := rtpsMessage(submsg(smData, 0, dataBody(entitySPDPWriter, 1, []byte("participant"))))
	resp := n.Message(msg)
	if len(resp) != 1 {
		t.Fatalf("SPDP responses = %d", len(resp))
	}
	if string(resp[0][:4]) != "RTPS" {
		t.Fatalf("response not RTPS: %x", resp[0][:4])
	}
	if len(n.participants) != 1 {
		t.Fatalf("participants = %d", len(n.participants))
	}
}

func TestUserDataTracking(t *testing.T) {
	n := startNode(t, nil)
	n.Message(rtpsMessage(submsg(smData, 0, dataBody(7, 5, []byte("x")))))
	if n.readers[7] != 5 {
		t.Fatalf("reader seq = %d", n.readers[7])
	}
	// Older sample does not regress.
	n.Message(rtpsMessage(submsg(smData, 0, dataBody(7, 3, []byte("y")))))
	if n.readers[7] != 5 {
		t.Fatalf("reader seq regressed to %d", n.readers[7])
	}
}

func TestHeartbeatTriggersAckNack(t *testing.T) {
	n := startNode(t, nil)
	n.Message(rtpsMessage(submsg(smData, 0, dataBody(7, 2, []byte("x")))))
	resp := n.Message(rtpsMessage(submsg(smHeartbeat, 0, heartbeatBody(7, 1, 9, 1))))
	if len(resp) != 1 {
		t.Fatalf("heartbeat responses = %d", len(resp))
	}
	// Caught-up reader stays silent.
	n.Message(rtpsMessage(submsg(smData, 0, dataBody(7, 9, []byte("z")))))
	resp = n.Message(rtpsMessage(submsg(smHeartbeat, 0, heartbeatBody(7, 1, 9, 2))))
	if resp != nil {
		t.Fatalf("caught-up reader acknacked: %d", len(resp))
	}
	// Invalid range ignored.
	if resp := n.Message(rtpsMessage(submsg(smHeartbeat, 0, heartbeatBody(7, 9, 1, 3)))); resp != nil {
		t.Fatal("invalid heartbeat range answered")
	}
}

func TestInlineQosParsing(t *testing.T) {
	n := startNode(t, nil)
	tr := coverage.NewTrace()
	n.SetTrace(tr)
	qos := []byte{
		0x00, 0x1d, 0x00, 0x04, 0, 0, 0, 1, // durability
		0x00, 0x01, 0x00, 0x00, // sentinel
	}
	body := dataBody(7, 6, append(qos, []byte("sample")...))
	before := tr.Count()
	n.Message(rtpsMessage(submsg(smData, 0x02, body)))
	if tr.Count() <= before {
		t.Fatal("inline qos parsing recorded no coverage")
	}
}

func TestDataFragReassemblyState(t *testing.T) {
	n := startNode(t, nil)
	fragBody := func(num uint32) []byte {
		w := wire.NewWriter(32)
		w.U16(0)
		w.U16(0)
		w.U32(1)
		w.U32(7)
		w.U32(0)
		w.U32(5)
		w.U32(num)
		w.U16(1)
		w.U16(512)
		w.Raw([]byte("frag"))
		return w.Bytes()
	}
	n.Message(rtpsMessage(submsg(smDataFrag, 0, fragBody(1))))
	n.Message(rtpsMessage(submsg(smDataFrag, 0, fragBody(2))))
	key := uint64(7)<<32 | 5
	i, ok := n.frags[key]
	if !ok || !n.slots[i][1] || !n.slots[i][2] {
		t.Fatalf("fragments not tracked: %v", n.slots)
	}
	// Oversized fragment rejected by FragmentSize config.
	big := func() []byte {
		w := wire.NewWriter(32)
		w.U16(0)
		w.U16(0)
		w.U32(1)
		w.U32(7)
		w.U32(0)
		w.U32(6)
		w.U32(1)
		w.U16(1)
		w.U16(9000)
		return w.Bytes()
	}()
	n.Message(rtpsMessage(submsg(smDataFrag, 0, big)))
	if _, ok := n.frags[uint64(7)<<32|6]; ok {
		t.Fatal("oversized fragment accepted")
	}
}

func TestMalformedSafe(t *testing.T) {
	n := startNode(t, nil)
	inputs := [][]byte{
		nil,
		[]byte("RTP"),
		[]byte("JUNKJUNKJUNKJUNKJUNKJUNK"),
		rtpsMessage(), // header only
		rtpsMessage([]byte{smData, 0, 0xff, 0xff}),
		rtpsMessage(submsg(smData, 0, []byte{1, 2})),
		rtpsMessage(submsg(smHeartbeat, 0, []byte{0})),
		rtpsMessage(submsg(smAckNack, 0, []byte{0, 1})),
		rtpsMessage(submsg(0x77, 0, []byte("unknown"))),
	}
	for _, in := range inputs {
		n.Message(in) // must not panic
	}
}

func TestMaxMessageSizeEnforced(t *testing.T) {
	n := startNode(t, map[string]string{keyMaxMessageSize: "2048", keyFragmentSize: "1024"})
	big := make([]byte, 4096)
	copy(big, "RTPS")
	if resp := n.Message(big); resp != nil {
		t.Fatal("oversized message processed")
	}
}

func TestSecurityRegionGated(t *testing.T) {
	run := func(cfg map[string]string) int {
		n := startNode(t, cfg)
		tr := coverage.NewTrace()
		n.SetTrace(tr)
		n.Message(rtpsMessage(submsg(smData, 0, dataBody(7, 1, []byte("x")))))
		return tr.Count()
	}
	plain := run(nil)
	secure := run(map[string]string{keySecurity: "true"})
	if secure <= plain {
		t.Fatalf("security region not gated: plain=%d secure=%d", plain, secure)
	}
}

func TestLittleEndianSubmessage(t *testing.T) {
	n := startNode(t, nil)
	// DATA with LE flag: length and fields little-endian.
	body := wire.NewWriter(24)
	body.Raw([]byte{0, 0, 0, 0}) // extra flags and octets to inline QoS, both 0
	body.U32(1)
	body.U32(7)
	body.U32(0)
	body.U32(8)
	w := wire.NewWriter(64)
	w.Raw([]byte("RTPS"))
	w.U8(2)
	w.U8(2)
	w.U16(0x0101)
	w.Raw(make([]byte, 12))
	w.U8(smData)
	w.U8(0x01) // endianness flag
	w.Raw(binary.LittleEndian.AppendUint16(nil, uint16(body.Len())))
	w.Raw(body.Bytes())
	n.Message(w.Bytes())
	if n.readers[7] != 8 {
		t.Fatalf("LE data not handled: %v", n.readers)
	}
}

func TestPitParses(t *testing.T) {
	pit, err := fuzz.ParsePit(Subject().PitXML())
	if err != nil {
		t.Fatal(err)
	}
	if len(pit.DataModels) != 7 {
		t.Fatalf("data models = %d", len(pit.DataModels))
	}
	if len(pit.StateModels["DDSDiscovery"].Paths(10, 32)) < 3 {
		t.Fatal("too few discovery paths")
	}
}
