// Package dds implements a CycloneDDS-like DDS/RTPS stack used as the DDS
// subject: RTPS message parsing (header + submessages), SPDP/SEDP
// discovery, reliable-reader heartbeat/acknack handling, inline QoS
// parameter lists, and fragment reassembly, configured through a
// CycloneDDS-style hierarchical XML document (the hierarchical branch of
// Algorithm 1). The paper found no new bugs here and reports moderate
// improvement ("DDS's structured management restricts configuration
// diversity"): the subject has the largest base branch space of the six
// and a proportionally smaller configuration-gated region.
package dds

import (
	"fmt"

	"cmfuzz/internal/core/configspec"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/protocols/probes"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/wire"
)

// Submessage ids (RTPS 2.2 §8.3.3).
const (
	smPad       = 0x01
	smAckNack   = 0x06
	smHeartbeat = 0x07
	smGap       = 0x08
	smInfoTS    = 0x09
	smInfoSrc   = 0x0c
	smInfoDst   = 0x0e
	smNackFrag  = 0x12
	smData      = 0x15
	smDataFrag  = 0x16
)

// Built-in discovery entity ids.
const (
	entitySPDPWriter = 0x000100c2
	entitySEDPPubW   = 0x000003c2
	entitySEDPSubW   = 0x000004c2
)

// xmlConfig is the shipped cyclonedds.xml the extraction mines
// (hierarchical format).
const xmlConfig = `<CycloneDDS>
  <Domain Id="0">
    <General>
      <AllowMulticast>true</AllowMulticast>
      <MaxMessageSize>65500</MaxMessageSize>
      <FragmentSize>1344</FragmentSize>
      <!-- one of: udp, tcp, shm -->
      <Transport>udp</Transport>
    </General>
    <Discovery>
      <ParticipantIndex>auto</ParticipantIndex>
      <MaxAutoParticipantIndex>9</MaxAutoParticipantIndex>
      <SPDPInterval>30</SPDPInterval>
    </Discovery>
    <Internal>
      <HeartbeatInterval>100</HeartbeatInterval>
      <!-- one of: never, adaptive, always -->
      <RetransmitMerging>never</RetransmitMerging>
      <DeliveryQueueMaxSamples>256</DeliveryQueueMaxSamples>
      <WriterBatching>false</WriterBatching>
      <LivelinessMonitoring>false</LivelinessMonitoring>
    </Internal>
    <Security>
      <Enable>false</Enable>
    </Security>
    <Tracing>
      <!-- one of: none, warning, fine, finest -->
      <Verbosity>none</Verbosity>
    </Tracing>
  </Domain>
</CycloneDDS>`

// Configuration keys as produced by hierarchical extraction + name
// normalization.
const (
	keyDomainID       = "cyclonedds/domain@id"
	keyAllowMulticast = "cyclonedds/domain/general/allowmulticast"
	keyMaxMessageSize = "cyclonedds/domain/general/maxmessagesize"
	keyFragmentSize   = "cyclonedds/domain/general/fragmentsize"
	keyTransport      = "cyclonedds/domain/general/transport"
	keyPartIndex      = "cyclonedds/domain/discovery/participantindex"
	keyMaxAutoIndex   = "cyclonedds/domain/discovery/maxautoparticipantindex"
	keySPDPInterval   = "cyclonedds/domain/discovery/spdpinterval"
	keyHeartbeat      = "cyclonedds/domain/internal/heartbeatinterval"
	keyRetransmit     = "cyclonedds/domain/internal/retransmitmerging"
	keyDeliveryQueue  = "cyclonedds/domain/internal/deliveryqueuemaxsamples"
	keyWriterBatching = "cyclonedds/domain/internal/writerbatching"
	keyLiveliness     = "cyclonedds/domain/internal/livelinessmonitoring"
	keySecurity       = "cyclonedds/domain/security/enable"
	keyVerbosity      = "cyclonedds/domain/tracing/verbosity"
)

type settings struct {
	domainID       int
	allowMulticast bool
	maxMessageSize int
	fragmentSize   int
	transport      string
	partIndex      string
	maxAutoIndex   int
	spdpInterval   int
	heartbeat      int
	retransmit     string
	deliveryQueue  int
	writerBatching bool
	liveliness     bool
	security       bool
	verbosity      string
}

func parseSettings(cfg map[string]string) settings {
	return settings{
		domainID:       probes.Int(cfg, keyDomainID, 0),
		allowMulticast: probes.Bool(cfg, keyAllowMulticast, true),
		maxMessageSize: probes.Int(cfg, keyMaxMessageSize, 65500),
		fragmentSize:   probes.Int(cfg, keyFragmentSize, 1344),
		transport:      probes.Str(cfg, keyTransport, "udp"),
		partIndex:      probes.Str(cfg, keyPartIndex, "auto"),
		maxAutoIndex:   probes.Int(cfg, keyMaxAutoIndex, 9),
		spdpInterval:   probes.Int(cfg, keySPDPInterval, 30),
		heartbeat:      probes.Int(cfg, keyHeartbeat, 100),
		retransmit:     probes.Str(cfg, keyRetransmit, "never"),
		deliveryQueue:  probes.Int(cfg, keyDeliveryQueue, 256),
		writerBatching: probes.Bool(cfg, keyWriterBatching, false),
		liveliness:     probes.Bool(cfg, keyLiveliness, false),
		security:       probes.Bool(cfg, keySecurity, false),
		verbosity:      probes.Str(cfg, keyVerbosity, "none"),
	}
}

func (s settings) validate() error {
	if s.transport != "udp" && s.transport != "tcp" && s.transport != "shm" {
		return fmt.Errorf("dds: unknown transport %q", s.transport)
	}
	if s.transport == "shm" && s.allowMulticast {
		return fmt.Errorf("dds: shared-memory transport cannot multicast")
	}
	if s.fragmentSize > s.maxMessageSize {
		return fmt.Errorf("dds: FragmentSize exceeds MaxMessageSize")
	}
	if s.fragmentSize < 256 {
		return fmt.Errorf("dds: FragmentSize below minimum of 256")
	}
	if s.spdpInterval < 1 {
		return fmt.Errorf("dds: SPDPInterval must be positive")
	}
	if s.partIndex != "auto" && s.partIndex != "none" {
		return fmt.Errorf("dds: ParticipantIndex must be auto or none")
	}
	if s.maxAutoIndex < 0 {
		return fmt.Errorf("dds: MaxAutoParticipantIndex must be non-negative")
	}
	switch s.retransmit {
	case "never", "adaptive", "always":
	default:
		return fmt.Errorf("dds: unknown RetransmitMerging mode %q", s.retransmit)
	}
	switch s.verbosity {
	case "none", "warning", "fine", "finest":
	default:
		return fmt.Errorf("dds: unknown Verbosity %q", s.verbosity)
	}
	return nil
}

// Startup sites.
const (
	sBoot     = 100
	sTransprt = 101
	sDisc     = 102
	sInternal = 103
	sSecurity = 104
	sTracing  = 105
	sSynSecTr = 110
	sSynBatHB = 111
	sSynLivHB = 112
)

func (s settings) startupCoverage(tr *coverage.Trace) {
	for i := uint64(0); i < 14; i++ {
		tr.Edge(sBoot, i)
	}
	tr.Edge(sBoot, 16+uint64(s.domainID%32))
	tr.Edge(sTransprt, probes.Hash(s.transport)%4)
	tr.Edge(sTransprt, 8+probes.B(s.allowMulticast))
	tr.Edge(sTransprt, 16+probes.Bucket(s.maxMessageSize))
	tr.Edge(sTransprt, 32+probes.Bucket(s.fragmentSize))
	tr.Edge(sDisc, probes.Hash(s.partIndex)%2)
	tr.Edge(sDisc, 4+uint64(s.maxAutoIndex%16))
	tr.Edge(sDisc, 24+probes.Bucket(s.spdpInterval))
	tr.Edge(sInternal, probes.Bucket(s.heartbeat))
	tr.Edge(sInternal, 16+probes.Hash(s.retransmit)%4)
	if s.retransmit != "never" {
		tr.Edge(sInternal, 40)
		tr.Edge(sInternal, 41)
	}
	if s.retransmit == "adaptive" {
		tr.Edge(sInternal, 42) // adaptive merge window estimator
		tr.Edge(sInternal, 43)
	}
	tr.Edge(sInternal, 24+probes.Bucket(s.deliveryQueue))

	if s.writerBatching {
		for i := uint64(0); i < 5; i++ {
			tr.Edge(sInternal, 64+i)
		}
		tr.Edge(sSynBatHB, probes.Bucket(s.heartbeat))
	}
	if s.liveliness {
		for i := uint64(0); i < 5; i++ {
			tr.Edge(sInternal, 80+i)
		}
		tr.Edge(sSynLivHB, probes.Bucket(s.heartbeat))
	}
	if s.security {
		for i := uint64(0); i < 8; i++ {
			tr.Edge(sSecurity, i)
		}
		tr.Edge(sSynSecTr, probes.Hash(s.transport)%4)
	}
	if s.verbosity != "none" {
		for i := uint64(0); i < 4; i++ {
			tr.Edge(sTracing, i)
		}
		tr.Edge(sTracing, 8+probes.Hash(s.verbosity)%4)
		if s.verbosity == "fine" || s.verbosity == "finest" {
			tr.Edge(sTracing, 16) // per-packet trace sinks
			tr.Edge(sTracing, 17)
		}
		if s.verbosity == "finest" {
			tr.Edge(sTracing, 18) // payload hexdumps
		}
	}
}

// Message sites.
const (
	mHdrErr    = 200
	mHeader    = 201
	mSubmsg    = 210
	mData      = 220
	mInlineQos = 230
	mPayload   = 240
	mHeartbt   = 250
	mAckNack   = 260
	mGapOp     = 270
	mInfoOp    = 280
	mFragOp    = 290
	mSPDP      = 300
	mSEDP      = 310
	mSecOp     = 320
	mTraceOp   = 330
	mLiveOp    = 340
)

// hashSpace is the widest content family — DDS has the paper's largest
// branch space (≈29k for CycloneDDS), so its families are wide.
const hashSpace = 8192

// Node is the CycloneDDS-like subject instance.
type Node struct {
	cfg          settings
	tr           *coverage.Trace
	participants map[uint64]struct{} // discovered remote participants
	readers      map[uint32]uint64   // readerId -> highest seq acked
	// frags maps a sample to its fragment slots, an index into slots,
	// whose arrays the node reuses from session to session.
	frags map[uint64]int
	slots [][64]bool
	// resp holds the response messages, reused by every Message.
	resp wire.Frames
}

// NewNode returns an unstarted DDS node.
func NewNode() *Node {
	return &Node{
		participants: make(map[uint64]struct{}),
		readers:      make(map[uint32]uint64),
		frags:        make(map[uint64]int),
	}
}

// Start implements subject.Instance.
func (n *Node) Start(cfg map[string]string, tr *coverage.Trace) error {
	st := parseSettings(cfg)
	if err := st.validate(); err != nil {
		return err
	}
	n.cfg = st
	n.tr = tr
	st.startupCoverage(tr)
	return nil
}

// SetTrace implements subject.Instance.
func (n *Node) SetTrace(tr *coverage.Trace) { n.tr = tr }

// NewSession implements subject.Instance. RTPS peers persist across
// datagrams; a session only resets fragment reassembly.
func (n *Node) NewSession() {
	clear(n.frags)
	n.slots = n.slots[:0]
}

// Close implements subject.Instance.
func (n *Node) Close() {}

// Message handles one RTPS datagram.
func (n *Node) Message(data []byte) [][]byte {
	n.resp.Reset()
	if n.cfg.maxMessageSize > 0 && len(data) > n.cfg.maxMessageSize {
		n.tr.Edge(mHdrErr, probes.Bucket(len(data)))
		return nil
	}
	r := wire.NewReader(data)
	magic := r.Bytes(4)
	major := r.U8()
	minor := r.U8()
	vendor := r.U16()
	guidPrefix := r.Bytes(12)
	if r.Err() != nil || string(magic) != "RTPS" {
		n.tr.Edge(mHdrErr, 64+probes.Bucket(len(data)))
		return nil
	}
	n.tr.Edge(mHeader, uint64(major)<<8|uint64(minor))
	n.tr.Edge(mHeader, 512+uint64(vendor%256))
	guid := probes.HashBytes(guidPrefix)
	n.tr.Edge(mHeader, 1024+guid%512)

	verbose := n.cfg.verbosity == "fine" || n.cfg.verbosity == "finest"
	if n.cfg.security || verbose {
		dataHash := probes.HashBytes(data)
		if n.cfg.security {
			// Security wrapper inspection per datagram.
			n.tr.Edge(mSecOp, dataHash%4096)
		}
		if verbose {
			n.tr.Edge(mTraceOp, probes.Bucket(len(data)))
			n.tr.Edge(mTraceOp, 64+dataHash%2048)
		}
	}

	count := 0
	for r.Remaining() >= 4 && count < 16 {
		count++
		id := r.U8()
		flags := r.U8()
		var length int
		if flags&0x01 != 0 {
			length = int(r.U16LE())
		} else {
			length = int(r.U16())
		}
		if length == 0 {
			length = r.Remaining() // 0 means "to end of message"
		}
		body := r.Bytes(length)
		if r.Err() != nil {
			n.tr.Edge(mSubmsg, 0)
			return n.resp.Out()
		}
		n.tr.Edge(mSubmsg, uint64(id)<<4|uint64(flags&0x0f))
		n.tr.Edge(mSubmsg, 4096+probes.Bucket(length))
		le := flags&0x01 != 0

		switch id {
		case smData:
			n.handleData(body, flags, le, guid)
		case smDataFrag:
			n.handleDataFrag(body, le)
		case smHeartbeat:
			n.handleHeartbeat(body, le)
		case smAckNack:
			n.handleAckNack(body, le)
		case smGap:
			n.tr.Edge(mGapOp, probes.HashBytes(body)%1024)
			n.tr.Edge(mGapOp, 1024+probes.Bucket(length))
		case smInfoTS:
			n.tr.Edge(mInfoOp, probes.Bucket(len(body)))
			n.tr.Edge(mInfoOp, 512+probes.HashBytes(body)%512)
			if flags&0x02 != 0 {
				n.tr.Edge(mInfoOp, 64) // invalidate flag
			}
		case smInfoDst, smInfoSrc:
			n.tr.Edge(mInfoOp, 128+uint64(id)<<2|probes.Bucket(len(body))%4)
			n.tr.Edge(mInfoOp, 1024+probes.HashBytes(body)%512)
		case smPad:
			n.tr.Edge(mInfoOp, 256)
		default:
			n.tr.Edge(mSubmsg, 8192+uint64(id))
		}
	}
	return n.resp.Out()
}

func readEntityID(r *wire.Reader) uint32 { return r.U32() }

// handleData handles one DATA submessage, appending any reply to n.resp.
func (n *Node) handleData(body []byte, flags byte, le bool, guid uint64) {
	r := wire.NewReader(body)
	r.Skip(2) // extraFlags
	var inlineQosOff uint16
	if le {
		inlineQosOff = r.U16LE()
	} else {
		inlineQosOff = r.U16()
	}
	readerID := readEntityID(r)
	writerID := readEntityID(r)
	seqHi := r.U32()
	seqLo := r.U32()
	if r.Err() != nil {
		n.tr.Edge(mData, 0)
		return
	}
	seq := uint64(seqHi)<<32 | uint64(seqLo)
	n.tr.Edge(mData, 1+uint64(readerID%256))
	n.tr.Edge(mData, 300+uint64(writerID%256))
	n.tr.Edge(mData, 3000+uint64(readerID%32)<<5|uint64(writerID%32))
	n.tr.Edge(mData, 600+probes.Bucket(int(seqLo)))
	n.tr.Edge(mData, 700+uint64(inlineQosOff%16))

	// Inline QoS parameter list (flag Q).
	if flags&0x02 != 0 {
		n.parseParameterList(r, le, mInlineQos)
	}
	payload := r.Rest()
	payloadHash := probes.HashBytes(payload)
	n.tr.Edge(mPayload, payloadHash%hashSpace)
	n.tr.Edge(mPayload, uint64(hashSpace)+probes.Bucket(len(payload)))

	switch writerID {
	case entitySPDPWriter:
		// SPDP participant announcement.
		_, known := n.participants[guid]
		n.tr.Edge(mSPDP, probes.B(known)<<10|guid%1024)
		n.tr.Edge(mSPDP, 4096+payloadHash%1024)
		if !known {
			if len(n.participants) >= 64 {
				n.tr.Edge(mSPDP, 1024)
				return
			}
			n.participants[guid] = struct{}{}
		}
		// Respond with our own SPDP announcement.
		appendSPDPAnnouncement(&n.resp.W)
		n.resp.End()
	case entitySEDPPubW, entitySEDPSubW:
		n.tr.Edge(mSEDP, uint64(writerID%16)<<11|payloadHash%2048)
	default:
		// User data: reliable readers record the sequence.
		if cur, ok := n.readers[writerID]; !ok || seq > cur {
			n.readers[writerID] = seq
			n.tr.Edge(mData, 800+probes.Bucket(int(seq)))
		} else {
			n.tr.Edge(mData, 900) // duplicate/old sample
		}
		n.tr.Edge(mData, 1000+uint64(writerID%64)<<5|probes.Bucket(int(seqLo)))
		if n.cfg.liveliness {
			n.tr.Edge(mLiveOp, uint64(writerID%128))
			n.tr.Edge(mLiveOp, 128+payloadHash%2048)
		}
	}
}

// parseParameterList walks a PID/length parameter list (used by inline
// QoS and discovery payloads) — a rich branch family.
func (n *Node) parseParameterList(r *wire.Reader, le bool, site uint32) {
	for i := 0; i < 24 && r.Remaining() >= 4; i++ {
		var pid, plen uint16
		if le {
			pid = r.U16LE()
			plen = r.U16LE()
		} else {
			pid = r.U16()
			plen = r.U16()
		}
		if pid == 0x0001 { // PID_SENTINEL
			n.tr.Edge(site, 0xffff)
			return
		}
		val := r.Bytes(int(plen))
		if r.Err() != nil {
			n.tr.Edge(site, 0xfffe)
			return
		}
		n.tr.Edge(site, uint64(pid%512))
		n.tr.Edge(site, 512+uint64(pid%128)<<4|probes.Bucket(len(val))%16)
		n.tr.Edge(site, 3072+probes.HashBytes(val)%1024)
	}
}

func (n *Node) handleDataFrag(body []byte, le bool) {
	r := wire.NewReader(body)
	r.Skip(4)
	readerID := readEntityID(r)
	writerID := readEntityID(r)
	seq := uint64(r.U32())<<32 | uint64(r.U32())
	var fragNum uint32
	var fragsInSubmsg, fragSize uint16
	if le {
		fragNum = r.U32LE()
		fragsInSubmsg = r.U16LE()
		fragSize = r.U16LE()
	} else {
		fragNum = r.U32()
		fragsInSubmsg = r.U16()
		fragSize = r.U16()
	}
	if r.Err() != nil {
		n.tr.Edge(mFragOp, 0)
		return
	}
	_ = readerID
	n.tr.Edge(mFragOp, 1+uint64(fragNum%64))
	n.tr.Edge(mFragOp, 128+uint64(fragsInSubmsg%16))
	n.tr.Edge(mFragOp, 192+probes.Bucket(int(fragSize)))
	if int(fragSize) > n.cfg.fragmentSize {
		n.tr.Edge(mFragOp, 256)
		return
	}
	key := uint64(writerID)<<32 | seq&0xffffffff
	i, ok := n.frags[key]
	if !ok {
		if len(n.frags) >= 128 {
			n.tr.Edge(mFragOp, 257)
			return
		}
		i = len(n.slots)
		n.slots = append(n.slots, [64]bool{})
		n.frags[key] = i
	}
	slots := n.slots[i][:]
	if int(fragNum) < len(slots) {
		slots[fragNum] = true
		n.tr.Edge(mFragOp, 300+uint64(countTrue(slots)%32))
	}
	n.tr.Edge(mFragOp, 1024+probes.HashBytes(r.Rest())%1024)
}

func countTrue(b []bool) int {
	c := 0
	for _, v := range b {
		if v {
			c++
		}
	}
	return c
}

// handleHeartbeat handles one HEARTBEAT, appending any ACKNACK to n.resp.
func (n *Node) handleHeartbeat(body []byte, le bool) {
	r := wire.NewReader(body)
	readerID := readEntityID(r)
	writerID := readEntityID(r)
	firstSN := uint64(r.U32())<<32 | uint64(r.U32())
	lastSN := uint64(r.U32())<<32 | uint64(r.U32())
	count := r.U32()
	if r.Err() != nil {
		n.tr.Edge(mHeartbt, 0)
		return
	}
	n.tr.Edge(mHeartbt, 1+uint64(writerID%128))
	n.tr.Edge(mHeartbt, 256+probes.Bucket(int(lastSN-firstSN)))
	n.tr.Edge(mHeartbt, 300+uint64(count%32))
	bodyHash := probes.HashBytes(body)
	n.tr.Edge(mHeartbt, 1024+bodyHash%1024)
	if firstSN > lastSN {
		n.tr.Edge(mHeartbt, 400) // invalid range
		return
	}
	acked := n.readers[writerID]
	if acked < lastSN {
		// Reliable reader: answer with an ACKNACK requesting the gap.
		n.tr.Edge(mAckNack, 512+probes.Bucket(int(lastSN-acked)))
		if n.cfg.retransmit == "adaptive" {
			n.tr.Edge(mAckNack, 600+uint64(count%8))
			n.tr.Edge(mAckNack, 8192+bodyHash%768)
		}
		appendAckNack(&n.resp.W, readerID, writerID, acked+1)
		n.resp.End()
	}
}

func (n *Node) handleAckNack(body []byte, le bool) {
	r := wire.NewReader(body)
	readerID := readEntityID(r)
	writerID := readEntityID(r)
	base := uint64(r.U32())<<32 | uint64(r.U32())
	numBits := r.U32()
	if r.Err() != nil {
		n.tr.Edge(mAckNack, 0)
		return
	}
	n.tr.Edge(mAckNack, 1+uint64(readerID%64))
	n.tr.Edge(mAckNack, 128+uint64(writerID%64))
	n.tr.Edge(mAckNack, 256+probes.Bucket(int(base)))
	n.tr.Edge(mAckNack, 300+uint64(numBits%32))
	if numBits > 256 {
		n.tr.Edge(mAckNack, 400)
		return
	}
	bitmapWords := (int(numBits) + 31) / 32
	for i := 0; i < bitmapWords && r.Remaining() >= 4; i++ {
		word := r.U32()
		n.tr.Edge(mAckNack, 2048+probes.HashBytes([]byte{byte(word), byte(word >> 8), byte(word >> 16), byte(word >> 24)})%1024)
	}
	if n.cfg.writerBatching {
		n.tr.Edge(mAckNack, 1024+uint64(numBits%16)) // merged retransmit batches
		n.tr.Edge(mAckNack, 4096+probes.HashBytes(body)%1024)
	}
}

// appendHeader appends the RTPS header the node sends with.
func appendHeader(w *wire.Writer) {
	w.String("RTPS")
	w.U8(2)
	w.U8(2)
	w.U16(0x0110) // vendor: our stand-in id
	w.U32(0)      // guid prefix: 12 zero bytes
	w.U64(0)
}

// appendSPDPAnnouncement appends this node's own SPDP DATA message.
func appendSPDPAnnouncement(w *wire.Writer) {
	appendHeader(w)
	w.U8(smData)
	w.U8(0)
	w.U16(20 + uint16(len("participant")))
	w.U16(0)
	w.U16(0)
	w.U32(0)
	w.U32(entitySPDPWriter)
	w.U32(0)
	w.U32(1)
	w.String("participant")
}

// appendAckNack appends an ACKNACK reply.
func appendAckNack(w *wire.Writer, readerID, writerID uint32, base uint64) {
	appendHeader(w)
	w.U8(smAckNack)
	w.U8(0)
	w.U16(24)
	w.U32(readerID)
	w.U32(writerID)
	w.U32(uint32(base >> 32))
	w.U32(uint32(base))
	w.U32(0) // numBits
	w.U32(1) // count
}

// ddsSubject implements subject.Subject.
type ddsSubject struct{}

// Subject returns the DDS evaluation subject.
func Subject() subject.Subject { return ddsSubject{} }

func (ddsSubject) Info() subject.Info {
	return subject.Info{
		Protocol:       "DDS",
		Implementation: "CycloneDDS",
		Transport:      subject.Datagram,
		Port:           7400,
	}
}

func (ddsSubject) ConfigInput() configspec.Input {
	return configspec.Input{
		Files: []configspec.File{{Name: "cyclonedds.xml", Content: xmlConfig}},
	}
}

func (ddsSubject) PitXML() string { return pitXML }

func (ddsSubject) NewInstance() subject.Instance { return NewNode() }
