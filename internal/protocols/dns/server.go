package dns

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/protocols/probes"
	"cmfuzz/internal/wire"
)

// confFile is the shipped dnsmasq.conf-style configuration: a custom
// format mixing bare feature toggles with key=value options, which
// exercises Algorithm 1's heuristic extraction arm.
const confFile = `# Dnsmasq-style configuration
port=53
cache-size=150
neg-ttl=60
edns-packet-max=4096
server=8.8.8.8
# domain-needed
# bogus-priv
# expand-hosts
# filterwin2k
# stop-dns-rebind
# log-queries
# no-resolv
# dnssec
# trust-anchor=.,20326,8,2,E06D44B8
# domain=lan
# local=/lan/
# address=/blocked.example/127.0.0.1
# addn-hosts=/etc/hosts.extra
# dhcp-range=192.168.0.50,192.168.0.150,12h
# tftp-root=/srv/tftp
# auth-zone=example.org
`

// settings is the forwarder's typed configuration.
type settings struct {
	port       int
	cacheSize  int
	negTTL     int
	ednsMax    int
	upstream   string
	domainNeed bool
	bogusPriv  bool
	expandHost bool
	filterW2K  bool
	rebindStop bool
	logQueries bool
	noResolv   bool
	dnssec     bool
	anchor     string
	domain     string
	localZone  string
	address    string
	addnHosts  string
	dhcpRange  string
	tftpRoot   string
	authZone   string
}

func parseSettings(cfg map[string]string) settings {
	return settings{
		port:       probes.Int(cfg, "port", 53),
		cacheSize:  probes.Int(cfg, "cache-size", 150),
		negTTL:     probes.Int(cfg, "neg-ttl", 60),
		ednsMax:    probes.Int(cfg, "edns-packet-max", 4096),
		upstream:   probes.Str(cfg, "server", ""),
		domainNeed: probes.Bool(cfg, "domain-needed", false),
		bogusPriv:  probes.Bool(cfg, "bogus-priv", false),
		expandHost: probes.Bool(cfg, "expand-hosts", false),
		filterW2K:  probes.Bool(cfg, "filterwin2k", false),
		rebindStop: probes.Bool(cfg, "stop-dns-rebind", false),
		logQueries: probes.Bool(cfg, "log-queries", false),
		noResolv:   probes.Bool(cfg, "no-resolv", false),
		dnssec:     probes.Bool(cfg, "dnssec", false),
		anchor:     probes.Str(cfg, "trust-anchor", ""),
		domain:     probes.Str(cfg, "domain", ""),
		localZone:  probes.Str(cfg, "local", ""),
		address:    probes.Str(cfg, "address", ""),
		addnHosts:  probes.Str(cfg, "addn-hosts", ""),
		dhcpRange:  probes.Str(cfg, "dhcp-range", ""),
		tftpRoot:   probes.Str(cfg, "tftp-root", ""),
		authZone:   probes.Str(cfg, "auth-zone", ""),
	}
}

func (s settings) validate() error {
	if s.dnssec && s.anchor == "" {
		return fmt.Errorf("dns: dnssec requires a trust-anchor")
	}
	if s.noResolv && s.upstream == "" {
		return fmt.Errorf("dns: no-resolv with no server leaves nowhere to forward")
	}
	if s.authZone != "" && s.rebindStop {
		return fmt.Errorf("dns: auth-zone conflicts with stop-dns-rebind")
	}
	if s.expandHost && s.domain == "" {
		return fmt.Errorf("dns: expand-hosts requires a domain")
	}
	if s.cacheSize < 0 {
		return fmt.Errorf("dns: cache-size must be non-negative")
	}
	return nil
}

// Startup coverage sites.
const (
	sBoot      = 100
	sCacheInit = 101
	sUpstream  = 102
	sDNSSEC    = 103
	sDHCP      = 104
	sTFTP      = 105
	sAuth      = 106
	sHosts     = 107
	sFilters   = 108
	sSynDHCPd  = 110
	sSynSECca  = 111
	sSynTFTPdh = 112
	sSynHostEx = 113
)

func (s settings) startupCoverage(tr *coverage.Trace) {
	for i := uint64(0); i < 9; i++ {
		tr.Edge(sBoot, i)
	}
	tr.Edge(sBoot, 16+probes.Bucket(s.port))
	tr.Edge(sCacheInit, probes.Bucket(s.cacheSize))
	tr.Edge(sCacheInit, 64+probes.Bucket(s.negTTL))
	tr.Edge(sUpstream, probes.Hash(s.upstream)%16)
	tr.Edge(sBoot, 32+probes.Bucket(s.ednsMax))

	for _, f := range []struct {
		on  bool
		bit uint64
	}{
		{s.domainNeed, 0}, {s.bogusPriv, 1}, {s.filterW2K, 2},
		{s.rebindStop, 3}, {s.logQueries, 4}, {s.noResolv, 5},
	} {
		if f.on {
			tr.Edge(sFilters, f.bit)
			tr.Edge(sFilters, 8+f.bit*2)
		}
	}
	if s.dnssec {
		for i := uint64(0); i < 9; i++ {
			tr.Edge(sDNSSEC, i)
		}
		tr.Edge(sSynSECca, probes.Bucket(s.cacheSize)) // validation cache
	}
	if s.dhcpRange != "" {
		for i := uint64(0); i < 11; i++ {
			tr.Edge(sDHCP, i)
		}
		if s.domain != "" {
			for i := uint64(0); i < 5; i++ {
				tr.Edge(sSynDHCPd, i) // lease hostname qualification
			}
		}
	}
	if s.tftpRoot != "" {
		for i := uint64(0); i < 6; i++ {
			tr.Edge(sTFTP, i)
		}
		if s.dhcpRange != "" {
			for i := uint64(0); i < 5; i++ {
				tr.Edge(sSynTFTPdh, i) // PXE boot chaining
			}
		}
	}
	if s.authZone != "" {
		for i := uint64(0); i < 7; i++ {
			tr.Edge(sAuth, i)
		}
	}
	if s.addnHosts != "" {
		for i := uint64(0); i < 5; i++ {
			tr.Edge(sHosts, i)
		}
		if s.expandHost {
			for i := uint64(0); i < 4; i++ {
				tr.Edge(sSynHostEx, i)
			}
		}
	}
	if s.localZone != "" {
		tr.Edge(sUpstream, 32+probes.Hash(s.localZone)%8)
	}
	if s.address != "" {
		tr.Edge(sUpstream, 64+probes.Hash(s.address)%8)
	}
	if s.domain != "" {
		tr.Edge(sBoot, 64+probes.Hash(s.domain)%8)
	}
}

// Message-handling coverage sites.
const (
	mParseErr = 200
	mHeader   = 201
	mQuestion = 210
	mNameHash = 215
	mQType    = 220
	mCache    = 230
	mLocal    = 240
	mForward  = 250
	mEDNS     = 260
	mSECValid = 270
	mDHCPLk   = 280
	mAuthZone = 290
	mFilter   = 300
	mLog      = 310
	mHostsLk  = 320
)

const hashSpace = 640

// Server is the Dnsmasq-like DNS subject instance.
type Server struct {
	cfg settings
	tr  *coverage.Trace
	// cache maps "name/type" to an answer whose Name and Data it owns.
	cache map[string]record
	hosts map[string][4]byte
	// addressSuffix and localZone are cfg.address's domain and
	// cfg.localZone without its slashes, derived once at Start.
	addressSuffix string
	localZone     string

	// Per-message scratch, reused by every Message: the decoded query,
	// the answers and their rdata, the lowercased name, a key buffer and
	// the response frames.
	q       queryMsg
	answers []record
	rdata   []byte
	name    []byte
	key     []byte
	resp    wire.Frames
}

// NewServer returns an unstarted DNS forwarder.
func NewServer() *Server {
	return &Server{
		cache: make(map[string]record),
		hosts: map[string][4]byte{
			"router.lan":  {192, 168, 0, 1},
			"printer.lan": {192, 168, 0, 9},
		},
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
	if parts := strings.Split(st.address, "/"); st.address != "" && len(parts) >= 2 {
		s.addressSuffix = parts[1]
	}
	s.localZone = strings.Trim(st.localZone, "/")
	st.startupCoverage(tr)
	return nil
}

// SetTrace implements subject.Instance.
func (s *Server) SetTrace(tr *coverage.Trace) { s.tr = tr }

// NewSession implements subject.Instance (DNS is stateless per query).
func (s *Server) NewSession() {}

// Close implements subject.Instance.
func (s *Server) Close() {}

// Message handles one DNS query datagram.
func (s *Server) Message(data []byte) [][]byte {
	s.resp.Reset()
	q := &s.q
	if err := decodeQuery(data, q); err != nil {
		s.tr.Edge(mParseErr, probes.Bucket(len(data)))
		switch {
		case errors.Is(err, errTruncated16):
			s.tr.Edge(mParseErr, 64)
			// Bug #10: the DNSSEC validation path re-reads the truncated
			// additional section with raw get16bits and walks off the
			// stack buffer.
			if s.cfg.dnssec && len(data) >= 12 {
				ar := int(data[10])<<8 | int(data[11])
				if ar > 0 {
					bugs.Trigger("DNS", bugs.StackBufferOverflow, "get16bits",
						"truncated additional section overreads under dnssec validation")
				}
			}
		case errors.Is(err, errPointerOut):
			s.tr.Edge(mParseErr, 65)
			// Bug #11: with rebind protection on, the answer-sanitizing
			// pass re-parses the question through the out-of-range
			// compression pointer.
			if s.cfg.rebindStop {
				bugs.Trigger("DNS", bugs.HeapBufferOverflow, "dns_question_parse, dns_request_parse",
					"compression pointer past packet end re-read during rebind check")
			}
		case errors.Is(err, errPointerLoop):
			s.tr.Edge(mParseErr, 66)
		}
		if len(data) >= 12 {
			// FORMERR response for parseable headers.
			id := uint16(data[0])<<8 | uint16(data[1])
			appendMessage(&s.resp.W, id, rcodeFormErr|flagQR, nil, nil, nil)
			s.resp.End()
		}
		return s.resp.Out()
	}

	h := q.Header
	s.tr.Edge(mHeader, uint64(h.Flags>>11&0x0f)) // opcode
	s.tr.Edge(mHeader, 16+probes.B(h.Flags&flagRD != 0)<<1|probes.B(h.Flags&flagCD != 0))
	s.tr.Edge(mHeader, 32+uint64(h.QDCount%16))
	if h.Flags&flagQR != 0 {
		s.tr.Edge(mHeader, 64) // unsolicited response
		return nil
	}

	// EDNS OPT processing.
	for _, rec := range q.Additional {
		if rec.Type != typeOPT {
			s.tr.Edge(mEDNS, 128+uint64(rec.Type%64))
			continue
		}
		s.tr.Edge(mEDNS, probes.Bucket(int(rec.Class)))
		// Bug #12: with edns-packet-max=0 (unlimited) the advertised
		// payload size is used verbatim to size the response buffer.
		if s.cfg.ednsMax == 0 && rec.Class > 0x4000 {
			bugs.Trigger("DNS", bugs.AllocationSizeTooBig, "dns_request_parse",
				fmt.Sprintf("attacker-advertised EDNS size %d allocated verbatim", rec.Class))
		}
		if s.cfg.ednsMax > 0 && int(rec.Class) > s.cfg.ednsMax {
			s.tr.Edge(mEDNS, 64)
		}
	}

	s.answers = s.answers[:0]
	s.rdata = s.rdata[:0]
	rcode := uint16(rcodeOK)
	for _, qu := range q.Questions {
		s.answer(qu, &rcode)
	}
	flags := rcode | flagRA | (h.Flags & flagRD)
	appendMessage(&s.resp.W, h.ID, flags|flagQR, q.Questions, s.answers, nil)
	s.resp.End()
	return s.resp.Out()
}

// hasSuffix reports whether b ends in suffix.
func hasSuffix(b []byte, suffix string) bool {
	return len(b) >= len(suffix) && string(b[len(b)-len(suffix):]) == suffix
}

// appendLower appends name lowercased to dst, byte for byte what
// strings.ToLower returns: ASCII is mapped in place, and any other
// sequence is decoded as a rune (an invalid byte as utf8.RuneError),
// lowercased and re-encoded.
func appendLower(dst, name []byte) []byte {
	for i := 0; i < len(name); {
		c := name[i]
		if c < utf8.RuneSelf {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			dst = append(dst, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(name[i:])
		dst = utf8.AppendRune(dst, unicode.ToLower(r))
		i += n
	}
	return dst
}

// authSOA is the auth zone's answer data.
var authSOA = []byte("primary.example.org")

// answerWith appends one answer for qu carrying data, copied into the
// message's rdata buffer.
func (s *Server) answerWith(qu question, typ uint16, ttl uint32, data ...byte) {
	start := len(s.rdata)
	s.rdata = append(s.rdata, data...)
	s.answers = append(s.answers, record{Name: qu.Name, Type: typ, Class: 1, TTL: ttl,
		Data: s.rdata[start:len(s.rdata):len(s.rdata)]})
}

// answer resolves one question through the dnsmasq pipeline: logging,
// filters, local data, hosts, cache, auth zone, DHCP leases, upstream.
// It appends the answers to s.answers.
func (s *Server) answer(qu question, rcode *uint16) {
	s.name = appendLower(s.name[:0], qu.Name)
	name := s.name
	nameHash := probes.HashBytes(name)
	s.tr.Edge(mQuestion, probes.Bucket(len(name)))
	s.tr.Edge(mQuestion, 64+uint64(bytes.Count(name, dot)%32))
	s.tr.Edge(mNameHash, nameHash%hashSpace)
	s.tr.Edge(mQType, uint64(qu.Type%256))
	s.tr.Edge(mQType, 256+uint64(qu.Class%8))

	if s.cfg.logQueries {
		s.tr.Edge(mLog, nameHash%128)
		// Bug #13: the query log formats the name with printf-style
		// expansion; '%' directives in a label overflow the log buffer.
		if bytes.IndexByte(name, '%') >= 0 {
			bugs.Trigger("DNS", bugs.HeapBufferOverflow, "printf_common",
				"format directives in logged query name")
		}
	}

	// Filters.
	if s.cfg.domainNeed && bytes.IndexByte(name, '.') < 0 {
		s.tr.Edge(mFilter, 0)
		*rcode = rcodeRefused
		return
	}
	if s.cfg.filterW2K && (qu.Type == typeSRV || qu.Type == typeSOA) && bytes.IndexByte(name, '_') >= 0 {
		s.tr.Edge(mFilter, 1+uint64(qu.Type%8))
		*rcode = rcodeNXDomain
		return
	}
	if s.cfg.bogusPriv && qu.Type == typePTR && hasSuffix(name, ".in-addr.arpa") {
		s.tr.Edge(mFilter, 16+nameHash%16)
		*rcode = rcodeNXDomain
		return
	}

	// address=/domain/IP interception.
	if s.addressSuffix != "" && hasSuffix(name, s.addressSuffix) {
		s.tr.Edge(mLocal, nameHash%64)
		s.answerWith(qu, typeA, 0, 127, 0, 0, 1)
		return
	}

	// addn-hosts lazy load: qualification through config_parse.
	if s.cfg.addnHosts != "" {
		s.tr.Edge(mHostsLk, nameHash%128)
		// Bug #14: re-qualifying an overlong name against the additional
		// hosts file overruns the config parser's line buffer.
		if len(name) > 64 {
			bugs.Trigger("DNS", bugs.HeapBufferOverflow, "config_parse",
				"overlong name overflows hosts-file line buffer during lazy reload")
		}
	}

	// Local hosts answers.
	if ip, ok := s.hosts[string(name)]; ok && (qu.Type == typeA || qu.Type == typeANY) {
		s.tr.Edge(mLocal, 128+nameHash%32)
		s.answerWith(qu, typeA, 60, ip[:]...)
		return
	}
	if s.cfg.expandHost && s.cfg.domain != "" && bytes.IndexByte(name, '.') < 0 {
		s.key = append(append(append(s.key[:0], name...), '.'), s.cfg.domain...)
		if ip, ok := s.hosts[string(s.key)]; ok {
			s.tr.Edge(mLocal, 192+probes.HashBytes(s.key)%16)
			s.answerWith(qu, typeA, 60, ip[:]...)
			return
		}
	}

	// local=/zone/ answers authoritatively (NXDOMAIN when unknown).
	if s.localZone != "" && hasSuffix(name, s.localZone) {
		s.tr.Edge(mLocal, 256+nameHash%32)
		*rcode = rcodeNXDomain
		return
	}

	// Authoritative zone.
	if s.cfg.authZone != "" && hasSuffix(name, s.cfg.authZone) {
		s.tr.Edge(mAuthZone, nameHash%128)
		s.tr.Edge(mAuthZone, 128+uint64(qu.Type%16))
		s.answerWith(qu, typeSOA, 3600, authSOA...)
		return
	}

	// DHCP lease lookups for the local domain.
	if s.cfg.dhcpRange != "" {
		if qu.Type == typePTR || (s.cfg.domain != "" && hasSuffix(name, s.cfg.domain)) {
			s.tr.Edge(mDHCPLk, nameHash%192)
			s.tr.Edge(mDHCPLk, 192+uint64(qu.Type%8))
		}
	}

	// Cache, keyed "name/type".
	if s.cfg.cacheSize > 0 {
		s.key = strconv.AppendUint(append(append(s.key[:0], name...), '/'), uint64(qu.Type), 10)
		if rec, ok := s.cache[string(s.key)]; ok {
			s.tr.Edge(mCache, probes.HashBytes(s.key)%128)
			s.answers = append(s.answers, rec)
			return
		}
		s.tr.Edge(mCache, 128+probes.HashBytes(s.key)%64)
	}

	// Upstream forward (simulated: deterministic synthetic answer).
	if s.cfg.upstream == "" {
		s.tr.Edge(mForward, 0)
		*rcode = rcodeServFail
		return
	}
	s.tr.Edge(mForward, 1+nameHash%128)
	s.tr.Edge(mForward, 192+uint64(qu.Type%32))
	if s.cfg.dnssec {
		// Validation region: per-name signature checks.
		s.tr.Edge(mSECValid, nameHash%256)
		s.tr.Edge(mSECValid, 256+uint64(qu.Type%16))
	}
	h := nameHash
	v4 := [4]byte{10, byte(h >> 16), byte(h >> 8), byte(h)}
	if qu.Type == typeAAAA {
		s.answerWith(qu, typeAAAA, 300, 0x20, 0x01, 0x0d, 0xb8, v4[0], v4[1], v4[2], v4[3],
			0, 0, 0, 0, 0, 0, 0, 0)
	} else {
		s.answerWith(qu, typeA, 300, v4[:]...)
	}
	if s.cfg.cacheSize > 0 && len(s.cache) < s.cfg.cacheSize {
		// The cache owns its copy of the answer: one buffer for the
		// name as asked and the rdata. s.key still holds "name/type".
		rec := s.answers[len(s.answers)-1]
		owned := append(append(make([]byte, 0, len(rec.Name)+len(rec.Data)), rec.Name...), rec.Data...)
		rec.Name = owned[:len(rec.Name):len(rec.Name)]
		rec.Data = owned[len(rec.Name):]
		s.cache[string(s.key)] = rec
	}
}
