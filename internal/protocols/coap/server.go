package coap

import (
	"bytes"
	"errors"
	"fmt"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/protocols/probes"
	"cmfuzz/internal/wire"
)

// cliHelp is the coap-server --help output Algorithm 1 extracts from.
const cliHelp = `Usage: coap-server [options]
  -p, --port PORT          listen port (default: 5683)
  -v, --verbose LEVEL      log verbosity (default: 0)
  --block-size BYTES       preferred block size (default: 1024)
  --max-sessions N         concurrent session limit (default: 64)
  --ack-timeout SECONDS    CON retransmission timeout (default: 2)
  --max-retransmit N       CON retransmission count (default: 4)
  --observe                enable resource observation (RFC 7641)
  --q-block                enable Q-Block transfers (RFC 9177)
  --dtls                   enable DTLS transport
  --psk-key KEY            DTLS pre-shared key, one of: sesame42, fieldkey7
  --multicast              join the all-CoAP-nodes multicast group
  --proxy-uri URI          upstream proxy, one of: coap://upstream:5683, coap://cache:5683
  --max-payload BYTES      reject larger representations (default: 65535)
  --resource-dir DIR       resource directory, one of: /srv/coap, /var/coap
`

// settings is the server's typed configuration.
type settings struct {
	port          int
	verbose       int
	blockSize     int
	maxSessions   int
	ackTimeout    int
	maxRetransmit int
	observe       bool
	qBlock        bool
	dtls          bool
	pskKey        string
	multicast     bool
	proxyURI      string
	maxPayload    int
	resourceDir   string
}

func parseSettings(cfg map[string]string) settings {
	return settings{
		port:          probes.Int(cfg, "port", 5683),
		verbose:       probes.Int(cfg, "verbose", 0),
		blockSize:     probes.Int(cfg, "block-size", 1024),
		maxSessions:   probes.Int(cfg, "max-sessions", 64),
		ackTimeout:    probes.Int(cfg, "ack-timeout", 2),
		maxRetransmit: probes.Int(cfg, "max-retransmit", 4),
		observe:       probes.Bool(cfg, "observe", false),
		qBlock:        probes.Bool(cfg, "q-block", false),
		dtls:          probes.Bool(cfg, "dtls", false),
		pskKey:        probes.Str(cfg, "psk-key", ""),
		multicast:     probes.Bool(cfg, "multicast", false),
		proxyURI:      probes.Str(cfg, "proxy-uri", ""),
		maxPayload:    probes.Int(cfg, "max-payload", 65535),
		resourceDir:   probes.Str(cfg, "resource-dir", ""),
	}
}

func (s settings) validate() error {
	if s.dtls && s.pskKey == "" {
		return fmt.Errorf("coap: dtls requires a psk-key")
	}
	if s.multicast && s.dtls {
		return fmt.Errorf("coap: dtls cannot join multicast groups")
	}
	if s.blockSize != 0 && (s.blockSize < 16 || s.blockSize > 2048) {
		return fmt.Errorf("coap: block-size must be 16..2048")
	}
	if s.qBlock && s.blockSize < 32 {
		return fmt.Errorf("coap: q-block requires block-size >= 32")
	}
	if s.ackTimeout < 1 {
		return fmt.Errorf("coap: ack-timeout must be positive")
	}
	return nil
}

// Startup coverage sites.
const (
	sBoot       = 100
	sEndpoint   = 101
	sBlockInit  = 102
	sObserve    = 103
	sQBlockInit = 104
	sDTLSInit   = 105
	sMulticast  = 106
	sProxy      = 107
	sResources  = 108
	sSynQBObs   = 110
	sSynDTLSPSK = 111
	sSynQBSize  = 112
	sSynProxyMC = 113
)

func (s settings) startupCoverage(tr *coverage.Trace) {
	for i := uint64(0); i < 10; i++ {
		tr.Edge(sBoot, i)
	}
	tr.Edge(sEndpoint, probes.Bucket(s.port))
	tr.Edge(sEndpoint, 64+uint64(s.verbose%8))
	tr.Edge(sBlockInit, probes.Bucket(s.blockSize))
	tr.Edge(sEndpoint, 80+probes.Bucket(s.maxSessions))
	tr.Edge(sEndpoint, 96+probes.Bucket(s.ackTimeout))
	tr.Edge(sEndpoint, 112+uint64(s.maxRetransmit%16))
	tr.Edge(sEndpoint, 128+probes.Bucket(s.maxPayload))

	if s.observe {
		for i := uint64(0); i < 8; i++ {
			tr.Edge(sObserve, i)
		}
	}
	if s.qBlock {
		for i := uint64(0); i < 9; i++ {
			tr.Edge(sQBlockInit, i)
		}
		tr.Edge(sSynQBSize, probes.Bucket(s.blockSize))
		if s.observe {
			for i := uint64(0); i < 6; i++ {
				tr.Edge(sSynQBObs, i) // blockwise notifications
			}
		}
	}
	if s.dtls {
		for i := uint64(0); i < 10; i++ {
			tr.Edge(sDTLSInit, i)
		}
		tr.Edge(sSynDTLSPSK, probes.Hash(s.pskKey)%16)
	}
	if s.multicast {
		for i := uint64(0); i < 6; i++ {
			tr.Edge(sMulticast, i)
		}
		if s.proxyURI != "" {
			for i := uint64(0); i < 4; i++ {
				tr.Edge(sSynProxyMC, i) // multicast-to-proxy fan-in
			}
		}
	}
	if s.proxyURI != "" {
		for i := uint64(0); i < 7; i++ {
			tr.Edge(sProxy, i)
		}
	}
	if s.resourceDir != "" {
		for i := uint64(0); i < 5; i++ {
			tr.Edge(sResources, i)
		}
	}
}

// Message-handling coverage sites.
const (
	mParseErr  = 200
	mHeader    = 201
	mToken     = 202
	mOption    = 210
	mOptionVal = 211
	mOptionDat = 212
	mMcastOp   = 350
	mPath      = 220
	mMethod    = 230
	mGet       = 240
	mPut       = 250
	mPost      = 260
	mDelete    = 265
	mBlock1    = 270
	mBlock2    = 280
	mQBlock    = 290
	mObserveOp = 300
	mProxyFwd  = 310
	mDTLSRec   = 320
	mPayload   = 330
	mEmptyMsg  = 340
)

// hashSpace bounds content-hash coverage families.
const hashSpace = 1024

// blockState tracks one in-progress blockwise upload (the lg_srcv of the
// Figure 5 case study).
type blockState struct {
	received map[int]bool
	bodyData []byte
	// hasBody is false while bodyData is the NULL body_data of the case
	// study: until a first block arrives intact.
	hasBody bool
}

// resource is one stored representation and its observer count.
type resource struct {
	body      []byte
	observers int
}

// Server is the libcoap-like CoAP subject instance.
type Server struct {
	cfg       settings
	tr        *coverage.Trace
	resources map[string]*resource
	uploads   map[string]*blockState // keyed by token+path, per session
	// spare holds finished uploads' states for reuse.
	spare []*blockState

	// Per-message scratch, reused by every Message: the decoded request,
	// its Uri-Path, a key buffer, reply options and the response frames.
	msg      message
	path     []byte
	key      []byte
	opts     []option
	blockVal []byte
	resp     wire.Frames
}

// NewServer returns an unstarted CoAP server.
func NewServer() *Server {
	return &Server{
		resources: map[string]*resource{
			"sensors/temp": {body: []byte("21.5")},
			"core":         {body: []byte(`</sensors/temp>;rt="temperature"`)},
		},
		uploads: make(map[string]*blockState),
	}
}

// Start implements subject.Instance.
func (s *Server) Start(cfg map[string]string, tr *coverage.Trace) error {
	st := parseSettings(cfg)
	if err := st.validate(); err != nil {
		return err
	}
	s.cfg = st
	s.tr = tr
	st.startupCoverage(tr)
	return nil
}

// SetTrace implements subject.Instance.
func (s *Server) SetTrace(tr *coverage.Trace) { s.tr = tr }

// NewSession implements subject.Instance: blockwise upload state is per
// session (a fresh client exchange context).
func (s *Server) NewSession() {
	for _, st := range s.uploads {
		s.release(st)
	}
	clear(s.uploads)
}

// Close implements subject.Instance.
func (s *Server) Close() {}

// Message handles one CoAP datagram.
func (s *Server) Message(data []byte) [][]byte {
	s.resp.Reset()
	if s.cfg.dtls {
		s.tr.Edge(mDTLSRec, probes.HashBytes(data)%768)
	}
	m := &s.msg
	if err := decode(data, m); err != nil {
		s.tr.Edge(mParseErr, probes.Bucket(len(data)))
		// Bug #7: the DTLS-decrypted datagram is re-parsed into a
		// stack-allocated PDU; a truncated extended option field makes
		// getOptionDelta read past the buffer.
		if s.cfg.dtls && errors.Is(err, errTruncatedExt) {
			bugs.Trigger("CoAP", bugs.StackBufferOverflow, "CoapPDU::getOptionDelta",
				"truncated extended option delta overreads stack PDU")
		}
		if errors.Is(err, errBadOption) {
			s.tr.Edge(mParseErr, 64)
		}
		return nil
	}
	s.tr.Edge(mHeader, uint64(m.Type)<<8|uint64(m.Code))
	s.tr.Edge(mToken, probes.Bucket(len(m.Token)))
	s.tr.Edge(mHeader, 1024+probes.Bucket(int(m.MessageID)))

	if m.Code == codeEmpty {
		s.tr.Edge(mEmptyMsg, uint64(m.Type))
		if m.Type == typeCON { // CoAP ping
			appendMessage(&s.resp.W, &message{Type: typeRST, MessageID: m.MessageID})
			s.resp.End()
		}
		return s.resp.Out()
	}

	// Option walk with duplicate tracking.
	observeCount := 0
	for _, o := range m.Options {
		s.tr.Edge(mOption, uint64(o.Number%64))
		s.tr.Edge(mOptionVal, uint64(o.Number%64)<<8|probes.Bucket(len(o.Value)))
		s.tr.Edge(mOptionDat, probes.HashBytes(o.Value)%512)
		if o.Number == optObserve {
			observeCount++
		}
	}
	s.tr.Edge(mOption, 4096+uint64(len(m.Options)))
	// Bug #6: with observation enabled, a duplicated Observe option makes
	// the cleanup path free the deduplicated node twice and then walk it.
	if s.cfg.observe && observeCount >= 2 {
		bugs.Trigger("CoAP", bugs.SEGV, "coap_clean_options",
			"duplicate Observe option double-freed during option cleanup")
	}

	s.path = m.appendURIPath(s.path[:0])
	path := s.path
	pathHash := probes.HashBytes(path)
	s.tr.Edge(mPath, pathHash%hashSpace)
	s.tr.Edge(mMethod, uint64(m.Code))
	payloadHash := probes.HashBytes(m.Payload)
	s.tr.Edge(mPayload, payloadHash%hashSpace)
	s.tr.Edge(mPayload, hashSpace+probes.Bucket(len(m.Payload)))

	s.opts = s.opts[:0]
	if s.cfg.maxPayload > 0 && len(m.Payload) > s.cfg.maxPayload {
		s.tr.Edge(mPayload, 2*hashSpace+1)
		return s.reply(codeTooLarge, nil)
	}
	if s.cfg.proxyURI != "" {
		if _, ok := m.findOption(optUriQuery); ok {
			s.tr.Edge(mProxyFwd, pathHash%384)
		}
	}
	if s.cfg.multicast && m.Type == typeNON {
		// Multicast group handling of non-confirmable requests.
		s.tr.Edge(mMcastOp, pathHash%384)
	}

	switch m.Code {
	case codeGET, codeFETCH:
		return s.handleGet(path, pathHash)
	case codePUT:
		return s.handlePut(path, pathHash, payloadHash)
	case codePOST:
		return s.handlePost(path, pathHash)
	case codeDELETE:
		return s.handleDelete(path)
	default:
		s.tr.Edge(mMethod, 256+uint64(m.Code))
		return s.reply(codeBadRequest, nil)
	}
}

// observeOn is the Observe option value of a registration's reply.
var observeOn = []byte{1}

func (s *Server) handleGet(path []byte, pathHash uint64) [][]byte {
	m := &s.msg
	res, ok := s.resources[string(path)]
	s.tr.Edge(mGet, probes.B(ok))
	if !ok {
		return s.reply(codeNotFound, nil)
	}
	body := res.body

	// Observation registration/cancellation.
	if obsVal, has := m.findOption(optObserve); has && s.cfg.observe {
		reg := len(obsVal) == 0 || obsVal[0] == 0
		s.tr.Edge(mObserveOp, probes.B(reg)<<6|pathHash%64)
		if reg {
			res.observers++
			s.opts = append(s.opts, option{Number: optObserve, Value: observeOn})
		} else {
			res.observers = 0
		}
		s.tr.Edge(mObserveOp, 128+uint64(res.observers%16))
		s.tr.Edge(mObserveOp, 256+pathHash%512)
	}

	// Block2 download chunking.
	if b2, has := m.findOption(optBlock2); has {
		blk, ok := decodeBlockOpt(b2)
		s.tr.Edge(mBlock2, probes.B(ok)<<8|uint64(blk.SZX))
		if !ok {
			return s.reply(codeBadOption, nil)
		}
		size := 16 << blk.SZX
		if size > s.cfg.blockSize {
			size = s.cfg.blockSize
			s.tr.Edge(mBlock2, 512)
		}
		off := blk.Num * size
		s.tr.Edge(mBlock2, 600+probes.Bucket(off))
		if off >= len(body) {
			s.tr.Edge(mBlock2, 700)
			return s.reply(codeBadOption, nil)
		}
		s.tr.Edge(mBlock2, 800+uint64(blk.Num%16)<<5|pathHash%32)
		end := off + size
		more := end < len(body)
		if !more {
			end = len(body)
		}
		s.addBlockOpt(optBlock2, blockOpt{Num: blk.Num, More: more, SZX: blk.SZX})
		return s.reply(codeContent, body[off:end])
	}
	return s.reply(codeContent, body)
}

// addBlockOpt adds a block option to the reply's options.
func (s *Server) addBlockOpt(number int, b blockOpt) {
	s.blockVal = appendBlockOpt(s.blockVal[:0], b)
	s.opts = append(s.opts, option{Number: number, Value: s.blockVal})
}

// upload returns the session's upload state under s.key, starting one if
// there is none.
func (s *Server) upload() (st *blockState, found bool) {
	if st, found = s.uploads[string(s.key)]; found {
		return st, true
	}
	if n := len(s.spare); n > 0 {
		st, s.spare = s.spare[n-1], s.spare[:n-1]
	} else {
		st = &blockState{received: make(map[int]bool)}
	}
	s.uploads[string(s.key)] = st
	return st, false
}

// endUpload drops the upload under s.key, keeping st for reuse.
func (s *Server) endUpload(st *blockState) {
	delete(s.uploads, string(s.key))
	s.release(st)
}

func (s *Server) release(st *blockState) {
	clear(st.received)
	st.bodyData = st.bodyData[:0]
	st.hasBody = false
	s.spare = append(s.spare, st)
}

// uploadKey sets s.key to the request's token, sep and path.
func (s *Server) uploadKey(sep byte, path []byte) {
	s.key = append(append(append(s.key[:0], s.msg.Token...), sep), path...)
}

// handlePut is the coap_handle_request_put_block of the Figure 5 case
// study: it reassembles blockwise uploads. payloadHash is the hash
// Message took of the payload.
func (s *Server) handlePut(path []byte, pathHash, payloadHash uint64) [][]byte {
	m := &s.msg
	s.tr.Edge(mPut, pathHash%128)

	// Q-Block1 path (RFC 9177) — only active under the non-default
	// q-block configuration, exactly as in the paper's case study.
	if qb, has := m.findOption(optQBlock1); has {
		if !s.cfg.qBlock {
			s.tr.Edge(mQBlock, 0)
			return s.reply(codeBadOption, nil)
		}
		blk, ok := decodeBlockOpt(qb)
		s.tr.Edge(mQBlock, 1+probes.B(ok))
		s.tr.Edge(mQBlock, 128+payloadHash%768)
		if !ok {
			return s.reply(codeBadOption, nil)
		}
		s.uploadKey(0, path)
		// Figure 5 lines 3-7: a new lg_srcv starts with body_data = NULL.
		lgSrcv, found := s.upload()
		s.tr.Edge(mQBlock, 4+probes.B(found)<<1|probes.B(blk.More))
		lgSrcv.received[blk.Num] = true
		if blk.Num == 0 && len(m.Payload) > 0 {
			lgSrcv.bodyData = append(lgSrcv.bodyData[:0], m.Payload...)
			lgSrcv.hasBody = true
			s.tr.Edge(mQBlock, 16)
		} else if len(m.Payload) > 0 && lgSrcv.hasBody {
			lgSrcv.bodyData = append(lgSrcv.bodyData, m.Payload...)
			s.tr.Edge(mQBlock, 17+uint64(blk.Num%8))
		}
		if blk.More {
			s.tr.Edge(mQBlock, 32+uint64(blk.Num%16))
			return s.reply(codeContinue, nil)
		}
		// Last block: Figure 5 lines 12-13 — all blocks received, go
		// reassemble at give_app_data.
		s.tr.Edge(mQBlock, 64+uint64(len(lgSrcv.received)%16))
		if !lgSrcv.hasBody {
			// Figure 5 line 20: pdu->body_data = lg_srcv->body_data->s
			// with body_data still NULL — Table II bug #8.
			bugs.Trigger("CoAP", bugs.SEGV, "coap_handle_request_put_block",
				"give_app_data dereferences NULL lg_srcv->body_data")
		}
		s.setResource(path, lgSrcv.bodyData, true)
		s.endUpload(lgSrcv)
		return s.reply(codeCreated, nil)
	}

	// Classic Block1 path (RFC 7959).
	if b1, has := m.findOption(optBlock1); has {
		blk, ok := decodeBlockOpt(b1)
		s.tr.Edge(mBlock1, probes.B(ok)<<8|uint64(blk.SZX))
		if !ok {
			return s.reply(codeBadOption, nil)
		}
		s.uploadKey(1, path)
		st, found := s.upload()
		s.tr.Edge(mBlock1, 512+probes.B(found)<<4|uint64(blk.Num%16))
		st.received[blk.Num] = true
		st.bodyData = append(st.bodyData, m.Payload...)
		st.hasBody = st.hasBody || len(m.Payload) > 0
		s.tr.Edge(mBlock1, 1024+uint64(len(st.received)%16)<<5|probes.HashBytes(m.Token)%32)
		if blk.More {
			s.addBlockOpt(optBlock1, blk)
			return s.reply(codeContinue, nil)
		}
		s.tr.Edge(mBlock1, 600+uint64(len(st.received)%16))
		s.setResource(path, st.bodyData, false)
		s.endUpload(st)
		return s.reply(codeCreated, nil)
	}

	// Plain PUT.
	_, existed := s.resources[string(path)]
	s.tr.Edge(mPut, 256+probes.B(existed))
	s.setResource(path, m.Payload, false)
	if existed {
		return s.reply(codeContent, nil)
	}
	return s.reply(codeCreated, nil)
}

func (s *Server) handlePost(path []byte, pathHash uint64) [][]byte {
	s.tr.Edge(mPost, pathHash%64)
	if cf, has := s.msg.findOption(optContentFormat); has {
		v := 0
		for _, b := range cf {
			v = v<<8 | int(b)
		}
		s.tr.Edge(mPost, 128+uint64(v%64))
	}
	s.key = append(append(s.key[:0], path...), "/new"...)
	s.setResource(s.key, s.msg.Payload, false)
	return s.reply(codeCreated, nil)
}

func (s *Server) handleDelete(path []byte) [][]byte {
	_, existed := s.resources[string(path)]
	s.tr.Edge(mDelete, probes.B(existed))
	delete(s.resources, string(path))
	return s.reply(codeDeleted, nil)
}

// setResource stores a copy of body at path, keeping an existing
// resource's observers. Once the store holds 2048 resources it refuses
// every write, unless force is set.
func (s *Server) setResource(path, body []byte, force bool) {
	if !force && len(s.resources) >= 2048 {
		return
	}
	if res, ok := s.resources[string(path)]; ok {
		res.body = append(res.body[:0], body...)
	} else {
		s.resources[string(path)] = &resource{body: bytes.Clone(body)}
	}
}

// reply answers the current request with code, s.opts and payload,
// honoring the CON/NON exchange type.
func (s *Server) reply(code byte, payload []byte) [][]byte {
	req := &s.msg
	resp := message{
		Code:      code,
		MessageID: req.MessageID,
		Token:     req.Token,
		Options:   s.opts,
		Payload:   payload,
	}
	if req.Type == typeCON {
		resp.Type = typeACK
	} else {
		resp.Type = typeNON
	}
	appendMessage(&s.resp.W, &resp)
	s.resp.End()
	return s.resp.Out()
}
