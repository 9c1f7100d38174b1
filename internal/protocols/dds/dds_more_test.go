package dds

import (
	"testing"
	"testing/quick"

	"strings"

	"cmfuzz/internal/coverage"
	"cmfuzz/internal/wire"
)

func TestParticipantTableBounded(t *testing.T) {
	n := startNode(t, nil)
	for i := 0; i < 200; i++ {
		msg := rtpsMessage(submsg(smData, 0, dataBody(entitySPDPWriter, uint64(i+1), []byte("p"))))
		// Vary the GUID prefix so every announcement is a new participant.
		msg[8] = byte(i)
		msg[9] = byte(i >> 8)
		n.Message(msg)
	}
	if len(n.participants) > 64 {
		t.Fatalf("participant table unbounded: %d", len(n.participants))
	}
}

func TestParticipantReannounceKeepsOneEntry(t *testing.T) {
	n := startNode(t, nil)
	msg1 := rtpsMessage(submsg(smData, 0, dataBody(entitySPDPWriter, 1, []byte("p"))))
	msg2 := rtpsMessage(submsg(smData, 0, dataBody(entitySPDPWriter, 9, []byte("p"))))
	n.Message(msg1)
	n.Message(msg2)
	if len(n.participants) != 1 {
		t.Fatalf("participants = %d, want 1 (same guid)", len(n.participants))
	}
}

func TestMultipleSubmessagesPerMessage(t *testing.T) {
	n := startNode(t, nil)
	msg := rtpsMessage(
		submsg(smInfoTS, 0, []byte{0, 1, 2, 3, 4, 5, 6, 7}),
		submsg(smData, 0, dataBody(7, 3, []byte("x"))),
		submsg(smHeartbeat, 0, heartbeatBody(7, 1, 3, 1)),
	)
	n.Message(msg) // data seq 3 == heartbeat last 3: no acknack
	if n.readers[7] != 3 {
		t.Fatalf("seq = %d", n.readers[7])
	}
}

func TestZeroLengthSubmessageRunsToEnd(t *testing.T) {
	n := startNode(t, nil)
	// octetsToNextHeader 0 means "to end of message" (RTPS).
	body := dataBody(7, 4, []byte("tail"))
	msg := rtpsMessage()
	msg = append(msg, smData, 0x00, 0x00, 0x00)
	msg = append(msg, body...)
	n.Message(msg)
	if n.readers[7] != 4 {
		t.Fatalf("zero-length submessage not handled: %v", n.readers)
	}
}

func TestGapAndPadHandled(t *testing.T) {
	n := startNode(t, nil)
	tr := coverage.NewTrace()
	n.SetTrace(tr)
	n.Message(rtpsMessage(
		submsg(smPad, 0, nil),
		submsg(smGap, 0, []byte{0, 0, 0, 1, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 3}),
	))
	if tr.Count() == 0 {
		t.Fatal("gap/pad produced no coverage")
	}
}

func TestAckNackBitmapGuard(t *testing.T) {
	n := startNode(t, nil)
	body := func(numBits uint32) []byte {
		w := wire.NewWriter(32)
		w.U32(1)
		w.U32(7)
		w.U32(0)
		w.U32(4)
		w.U32(numBits)
		w.U32(0xffffffff)
		return w.Bytes()
	}
	n.Message(rtpsMessage(submsg(smAckNack, 0, body(8))))
	n.Message(rtpsMessage(submsg(smAckNack, 0, body(100000)))) // guarded
}

func TestFragTableBounded(t *testing.T) {
	n := startNode(t, nil)
	for i := 0; i < 300; i++ {
		w := wire.NewWriter(32)
		w.U16(0)
		w.U16(0)
		w.U32(1)
		w.U32(uint32(i)) // distinct writer per fragment stream
		w.U32(0)
		w.U32(5)
		w.U32(1)
		w.U16(1)
		w.U16(512)
		n.Message(rtpsMessage(submsg(smDataFrag, 0, w.Bytes())))
	}
	if len(n.frags) > 128 {
		t.Fatalf("fragment table unbounded: %d", len(n.frags))
	}
}

// Property: Message never panics on arbitrary datagrams.
func TestQuickMessageTotal(t *testing.T) {
	n := startNode(t, map[string]string{keySecurity: "true"})
	f := func(data []byte) bool {
		// Prefix half the inputs with a valid header to reach submessage
		// parsing.
		if len(data) > 2 && data[0]%2 == 0 {
			data = append([]byte("RTPS\x02\x02\x01\x01aabbccddeeff"), data...)
		}
		n.Message(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
		t.Fatal(err)
	}
}

func TestEnumValuesExtractedFromComments(t *testing.T) {
	// The XML comments documenting allowed values must surface as
	// candidates, or scheduling can never enable the finer modes.
	sub := Subject()
	input := sub.ConfigInput()
	if len(input.Files) != 1 {
		t.Fatal("expected one config file")
	}
	if !strings.Contains(input.Files[0].Content, "one of: none, warning, fine, finest") {
		t.Fatal("verbosity enum comment missing from cyclonedds.xml")
	}
	if !strings.Contains(input.Files[0].Content, "one of: never, adaptive, always") {
		t.Fatal("retransmit enum comment missing")
	}
}
