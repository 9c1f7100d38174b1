// Package dtls implements an OpenSSL-s_server-like DTLS 1.2 endpoint used
// as the DTLS subject: record layer parsing, cookie exchange, a handshake
// state machine with toy cryptography, fragmentation handling, and
// optional session tickets / renegotiation / PSK features. The paper
// found no new bugs here and reports modest coverage improvement ("DTLS
// relies on fixed cryptographic settings"), which this subject mirrors
// with a comparatively small configuration-gated region.
package dtls

import (
	"fmt"

	"cmfuzz/internal/core/configspec"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/protocols/probes"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/wire"
)

// Record content types.
const (
	ctChangeCipherSpec = 20
	ctAlert            = 21
	ctHandshake        = 22
	ctApplicationData  = 23
)

// Handshake message types.
const (
	hsClientHello        = 1
	hsServerHello        = 2
	hsHelloVerifyRequest = 3
	hsCertificate        = 11
	hsServerKeyExchange  = 12
	hsCertificateRequest = 13
	hsServerHelloDone    = 14
	hsCertificateVerify  = 15
	hsClientKeyExchange  = 16
	hsFinished           = 20
)

// Handshake states.
const (
	stateInit = iota
	stateCookieSent
	stateHelloDone
	stateKeyExchanged
	stateFinished
)

// cliHelp is the s_server-style option documentation.
const cliHelp = `Usage: dtls-server [options]
  -p, --port PORT           listen port (default: 4433)
  --cipher LIST             cipher preference, one of: AES128-SHA, AES256-GCM, CHACHA20, PSK-AES128
  --psk KEY                 pre-shared key (hex), one of: 1a2b3c4d, deadbeef
  --cert FILE               server certificate (default: /etc/dtls/server.crt)
  --key FILE                server private key (default: /etc/dtls/server.key)
  --verify-peer             request and verify a client certificate
  --no-cookie               disable the stateless cookie exchange
  --mtu BYTES               path MTU for fragmentation (default: 1400)
  --session-tickets         enable RFC 5077 session tickets
  --renegotiation           allow secure renegotiation
  --compression             enable record compression
  --min-version VER         lowest version, one of: dtls1, dtls1.2
  --timeout SECONDS         retransmission timeout (default: 1)
`

type settings struct {
	port       int
	cipher     string
	psk        string
	certFile   string
	keyFile    string
	verifyPeer bool
	noCookie   bool
	mtu        int
	tickets    bool
	reneg      bool
	compress   bool
	minVersion string
	timeout    int
}

func parseSettings(cfg map[string]string) settings {
	return settings{
		port:       probes.Int(cfg, "port", 4433),
		cipher:     probes.Str(cfg, "cipher", "AES128-SHA"),
		psk:        probes.Str(cfg, "psk", ""),
		certFile:   probes.Str(cfg, "cert", "/etc/dtls/server.crt"),
		keyFile:    probes.Str(cfg, "key", "/etc/dtls/server.key"),
		verifyPeer: probes.Bool(cfg, "verify-peer", false),
		noCookie:   probes.Bool(cfg, "no-cookie", false),
		mtu:        probes.Int(cfg, "mtu", 1400),
		tickets:    probes.Bool(cfg, "session-tickets", false),
		reneg:      probes.Bool(cfg, "renegotiation", false),
		compress:   probes.Bool(cfg, "compression", false),
		minVersion: probes.Str(cfg, "min-version", "dtls1.2"),
		timeout:    probes.Int(cfg, "timeout", 1),
	}
}

func (s settings) validate() error {
	switch s.cipher {
	case "AES128-SHA", "AES256-GCM", "CHACHA20":
	case "PSK-AES128":
		if s.psk == "" {
			return fmt.Errorf("dtls: PSK cipher requires --psk")
		}
	default:
		return fmt.Errorf("dtls: unknown cipher %q", s.cipher)
	}
	if s.compress && s.cipher == "AES256-GCM" {
		return fmt.Errorf("dtls: compression is incompatible with AEAD ciphers")
	}
	if s.mtu != 0 && (s.mtu < 256 || s.mtu > 9000) {
		return fmt.Errorf("dtls: mtu out of range")
	}
	if s.minVersion != "dtls1" && s.minVersion != "dtls1.2" {
		return fmt.Errorf("dtls: unknown min-version %q", s.minVersion)
	}
	if s.timeout < 1 {
		return fmt.Errorf("dtls: timeout must be positive")
	}
	return nil
}

// Startup sites.
const (
	sBoot    = 100
	sCipher  = 101
	sCert    = 102
	sPSK     = 103
	sVerify  = 104
	sTickets = 105
	sReneg   = 106
	sSynPSKC = 110
	sSynVerT = 111
)

func (s settings) startupCoverage(tr *coverage.Trace) {
	for i := uint64(0); i < 11; i++ {
		tr.Edge(sBoot, i)
	}
	tr.Edge(sBoot, 16+probes.Bucket(s.port))
	tr.Edge(sBoot, 32+probes.Bucket(s.mtu))
	tr.Edge(sBoot, 48+probes.Bucket(s.timeout))
	tr.Edge(sCipher, probes.Hash(s.cipher)%8)
	tr.Edge(sCert, probes.Hash(s.certFile)%4)
	tr.Edge(sCert, 8+probes.Hash(s.keyFile)%4)
	tr.Edge(sBoot, 64+probes.Hash(s.minVersion)%2)
	tr.Edge(sBoot, 72+probes.B(s.noCookie))
	tr.Edge(sBoot, 80+probes.B(s.compress))

	if s.psk != "" {
		for i := uint64(0); i < 6; i++ {
			tr.Edge(sPSK, i)
		}
		if s.cipher == "PSK-AES128" {
			for i := uint64(0); i < 5; i++ {
				tr.Edge(sSynPSKC, i) // PSK identity hint wiring
			}
		}
	}
	if s.verifyPeer {
		for i := uint64(0); i < 7; i++ {
			tr.Edge(sVerify, i)
		}
		if s.tickets {
			for i := uint64(0); i < 4; i++ {
				tr.Edge(sSynVerT, i) // client identity in tickets
			}
		}
	}
	if s.tickets {
		for i := uint64(0); i < 6; i++ {
			tr.Edge(sTickets, i)
		}
	}
	if s.reneg {
		for i := uint64(0); i < 5; i++ {
			tr.Edge(sReneg, i)
		}
	}
}

// Message sites.
const (
	mRecord    = 200
	mBadRecord = 201
	mHandshake = 210
	mHello     = 220
	mCookie    = 230
	mCipherSel = 240
	mExt       = 250
	mKeyEx     = 260
	mCCS       = 270
	mFin       = 280
	mAppData   = 290
	mAlert     = 300
	mFrag      = 310
	mTicketOp  = 320
	mRenegOp   = 330
)

const hashSpace = 512

// Server is the DTLS subject instance.
type Server struct {
	cfg   settings
	tr    *coverage.Trace
	state int
	epoch uint16
	// cookie and cipher are the stateless cookie and the configured
	// cipher suite's id, derived once at Start.
	cookie byte
	cipher uint16
	// resp holds the response records, reused by every Message.
	resp wire.Frames
}

// NewServer returns an unstarted DTLS endpoint.
func NewServer() *Server { return &Server{} }

// Start implements subject.Instance.
func (s *Server) Start(cfg map[string]string, tr *coverage.Trace) error {
	st := parseSettings(cfg)
	if err := st.validate(); err != nil {
		return err
	}
	s.cfg = st
	s.tr = tr
	s.cookie = byte(probes.Hash(st.cipher+st.psk)%250) + 1 // toy HMAC
	s.cipher = cipherID(st.cipher)
	st.startupCoverage(tr)
	return nil
}

// SetTrace implements subject.Instance.
func (s *Server) SetTrace(tr *coverage.Trace) { s.tr = tr }

// NewSession implements subject.Instance.
func (s *Server) NewSession() {
	s.state = stateInit
	s.epoch = 0
}

// Close implements subject.Instance.
func (s *Server) Close() {}

// Message handles one DTLS record datagram (possibly several records).
func (s *Server) Message(data []byte) [][]byte {
	s.resp.Reset()
	r := wire.NewReader(data)
	records := 0
	for !r.Empty() && records < 8 {
		records++
		ct := r.U8()
		ver := r.U16()
		epoch := r.U16()
		seqHi := r.U32()
		seqLo := r.U16()
		length := r.U16()
		body := r.Bytes(int(length))
		if r.Err() != nil {
			s.tr.Edge(mBadRecord, probes.Bucket(len(data)))
			return s.resp.Out()
		}
		_ = seqHi
		s.tr.Edge(mRecord, uint64(ct))
		s.tr.Edge(mRecord, 256+uint64(ver%16))
		s.tr.Edge(mRecord, 300+uint64(epoch%4)<<4|probes.Bucket(int(seqLo)))
		s.tr.Edge(mRecord, 1024+probes.HashBytes(body)%1536)
		if ver != 0xfefd && ver != 0xfeff {
			s.tr.Edge(mBadRecord, 64+uint64(ver%32))
			continue
		}
		if s.cfg.mtu > 0 && len(body) > s.cfg.mtu {
			s.tr.Edge(mFrag, probes.Bucket(len(body)))
			continue
		}
		switch ct {
		case ctHandshake:
			s.handleHandshake(body)
		case ctChangeCipherSpec:
			s.tr.Edge(mCCS, probes.B(s.state >= stateKeyExchanged))
			if s.state >= stateKeyExchanged {
				s.epoch++
			}
		case ctAlert:
			if len(body) >= 2 {
				// level (valid: 1 warning / 2 fatal, else bucket) × description
				s.tr.Edge(mAlert, uint64(body[0]%4)<<8|uint64(body[1]))
			} else {
				s.tr.Edge(mAlert, 0xffff)
			}
		case ctApplicationData:
			s.tr.Edge(mAppData, probes.B(s.state == stateFinished))
			if s.state == stateFinished {
				s.tr.Edge(mAppData, 2+probes.HashBytes(body)%hashSpace)
				// Echo "decrypted" data back.
				s.record(ctApplicationData, body...)
			}
		default:
			s.tr.Edge(mBadRecord, 128+uint64(ct))
		}
	}
	return s.resp.Out()
}

// handleHandshake handles one handshake record, appending any response
// records to s.resp.
func (s *Server) handleHandshake(body []byte) {
	r := wire.NewReader(body)
	u24 := func() uint32 {
		b := r.Bytes(3)
		if len(b) < 3 {
			return 0
		}
		return uint32(b[0])<<16 | uint32(b[1])<<8 | uint32(b[2])
	}
	msgType := r.U8()
	length := u24()
	msgSeq := r.U16()
	fragOff := u24()
	fragLen := u24()
	if r.Err() != nil {
		s.tr.Edge(mHandshake, 0)
		return
	}
	s.tr.Edge(mHandshake, 1+uint64(msgType))
	s.tr.Edge(mHandshake, 64+probes.Bucket(int(length)))
	s.tr.Edge(mHandshake, 96+uint64(msgSeq%16))
	if fragOff != 0 || fragLen != length {
		// Fragmented handshake message region.
		s.tr.Edge(mFrag, 64+probes.Bucket(int(fragOff))<<3|probes.Bucket(int(fragLen))%8)
	}

	switch msgType {
	case hsClientHello:
		s.handleClientHello(r)
	case hsClientKeyExchange:
		s.tr.Edge(mKeyEx, probes.B(s.state == stateHelloDone))
		if s.state == stateHelloDone {
			s.tr.Edge(mKeyEx, 2+probes.HashBytes(r.Rest())%64)
			s.state = stateKeyExchanged
		}
	case hsFinished:
		s.tr.Edge(mFin, probes.B(s.state == stateKeyExchanged)<<1|probes.B(s.epoch > 0))
		if s.state == stateKeyExchanged && s.epoch > 0 {
			s.state = stateFinished
			s.record(ctChangeCipherSpec, 1)
			s.handshake(hsFinished, serverFin...)
			if s.cfg.tickets {
				s.tr.Edge(mTicketOp, probes.Hash(s.cfg.cipher)%16)
				s.tr.Edge(mTicketOp, 16+probes.HashBytes(body)%1024)
				s.handshake(4 /* NewSessionTicket */, ticket...)
			}
		}
	case hsCertificateVerify:
		s.tr.Edge(mKeyEx, 128+probes.B(s.cfg.verifyPeer))
	case hsCertificate:
		s.tr.Edge(mKeyEx, 130+probes.B(s.cfg.verifyPeer)<<1|probes.B(r.Remaining() == 0))
		if s.cfg.verifyPeer {
			s.tr.Edge(mKeyEx, 1024+probes.HashBytes(r.Rest())%768) // client cert chain walk
		}
	default:
		s.tr.Edge(mHandshake, 128+uint64(msgType))
	}
}

func (s *Server) handleClientHello(r *wire.Reader) {
	ver := r.U16()
	random := r.Bytes(32)
	sidLen := r.U8()
	r.Skip(int(sidLen))
	cookieLen := r.U8()
	cookie := r.Bytes(int(cookieLen))
	csLen := r.U16()
	suites := r.Bytes(int(csLen))
	if r.Err() != nil {
		s.tr.Edge(mHello, 0)
		return
	}
	s.tr.Edge(mHello, 1+uint64(ver%16))
	s.tr.Edge(mHello, 32+probes.HashBytes(random)%256)
	s.tr.Edge(mHello, 100+uint64(sidLen%8))
	s.tr.Edge(mHello, 128+uint64(len(suites)/2%32))

	// Renegotiation attempt after an established handshake.
	if s.state == stateFinished {
		s.tr.Edge(mRenegOp, probes.B(s.cfg.reneg))
		if !s.cfg.reneg {
			s.record(ctAlert, 2, 100) // fatal no_renegotiation
			return
		}
		s.tr.Edge(mRenegOp, 2+probes.HashBytes(suites)%1024)
		s.state = stateInit
	}

	// Compression methods + extensions region.
	if cmLen := r.U8(); r.Err() == nil {
		cms := r.Bytes(int(cmLen))
		s.tr.Edge(mExt, probes.HashBytes(cms)%16)
		if s.cfg.compress && len(cms) > 1 {
			s.tr.Edge(mExt, 20)
		}
	}
	for r.Remaining() >= 4 {
		extType := r.U16()
		extLen := r.U16()
		extBody := r.Bytes(int(extLen))
		if r.Err() != nil {
			s.tr.Edge(mExt, 32)
			break
		}
		s.tr.Edge(mExt, 64+uint64(extType%128))
		s.tr.Edge(mExt, 256+probes.HashBytes(extBody)%512)
	}

	// Cookie exchange.
	if !s.cfg.noCookie && s.state == stateInit {
		if len(cookie) == 0 || cookie[0] != s.cookie {
			s.tr.Edge(mCookie, probes.B(len(cookie) == 0))
			s.state = stateCookieSent
			s.handshake(hsHelloVerifyRequest, 0xfe, 0xfd, 1, s.cookie)
			return
		}
		s.tr.Edge(mCookie, 4)
	}

	// Cipher selection: the offered list must include the configured one.
	selected := false
	for i := 0; i+1 < len(suites); i += 2 {
		suite := uint16(suites[i])<<8 | uint16(suites[i+1])
		s.tr.Edge(mCipherSel, uint64(suite%128))
		if suite == s.cipher {
			selected = true
		}
	}
	s.tr.Edge(mCipherSel, 512+probes.B(selected))
	s.tr.Edge(mCipherSel, 1024+probes.HashBytes(suites)%512)
	if !selected {
		s.record(ctAlert, 2, 40) // handshake_failure
		return
	}
	if s.cfg.cipher == "PSK-AES128" {
		s.tr.Edge(mCipherSel, 520+probes.Hash(s.cfg.psk)%8)
		s.tr.Edge(mCipherSel, 2048+probes.HashBytes(random)%768) // PSK identity binding
	}

	s.state = stateHelloDone
	s.handshake(hsServerHello, 0xfe, 0xfd, byte(s.cipher>>8), byte(s.cipher))
	if s.cfg.cipher != "PSK-AES128" {
		s.handshake(hsCertificate, serverCert...)
	}
	if s.cfg.verifyPeer {
		s.handshake(hsCertificateRequest, 1)
	}
	s.handshake(hsServerHelloDone)
}

func cipherID(name string) uint16 {
	switch name {
	case "AES128-SHA":
		return 0x002f
	case "AES256-GCM":
		return 0x009d
	case "CHACHA20":
		return 0xcca8
	case "PSK-AES128":
		return 0x008c
	default:
		return 0
	}
}

// The bodies of the server's Finished, NewSessionTicket and Certificate
// messages.
var (
	serverFin  = []byte("server-fin")
	ticket     = []byte("ticket")
	serverCert = []byte("server-cert")
)

// record appends one response record carrying body.
func (s *Server) record(ct byte, body ...byte) {
	appendRecord(&s.resp.W, ct, body)
	s.resp.End()
}

// handshake appends one response record carrying a handshake message.
func (s *Server) handshake(msgType byte, body ...byte) {
	appendHandshake(&s.resp.W, msgType, body)
	s.resp.End()
}

// appendRecord appends a DTLS record carrying body.
func appendRecord(w *wire.Writer, ct byte, body []byte) {
	appendRecordHeader(w, ct, len(body))
	w.Raw(body)
}

func appendRecordHeader(w *wire.Writer, ct byte, n int) {
	w.U8(ct)
	w.U16(0xfefd)
	w.U16(0) // epoch
	w.U32(0) // seq hi
	w.U16(0) // seq lo
	w.U16(uint16(n))
}

// appendHandshake appends a handshake record: a DTLS record carrying one
// unfragmented handshake message.
func appendHandshake(w *wire.Writer, msgType byte, body []byte) {
	appendRecordHeader(w, ctHandshake, 12+len(body))
	w.U8(msgType)
	n := uint32(len(body))
	w.U8(byte(n >> 16))
	w.U8(byte(n >> 8))
	w.U8(byte(n))
	w.U16(0) // message seq
	w.U8(0)  // frag offset 24-bit
	w.U8(0)
	w.U8(0)
	w.U8(byte(n >> 16)) // frag length = length
	w.U8(byte(n >> 8))
	w.U8(byte(n))
	w.Raw(body)
}

// dtlsSubject implements subject.Subject.
type dtlsSubject struct{}

// Subject returns the DTLS evaluation subject.
func Subject() subject.Subject { return dtlsSubject{} }

func (dtlsSubject) Info() subject.Info {
	return subject.Info{
		Protocol:       "DTLS",
		Implementation: "OpenSSL",
		Transport:      subject.Datagram,
		Port:           4433,
	}
}

func (dtlsSubject) ConfigInput() configspec.Input {
	return configspec.Input{CLIHelp: []string{cliHelp}}
}

func (dtlsSubject) PitXML() string { return pitXML }

func (dtlsSubject) NewInstance() subject.Instance { return NewServer() }
