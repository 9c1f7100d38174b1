package live

import (
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"cmfuzz/internal/core/configspec"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/telemetry"
)

// nsPort only labels Info.Port: the real target listens at the spec's
// Addr or on a free port picked at launch. Each instance's link in
// internal/parallel impairs fuzzer→target messages here as for any
// simulated subject; the real socket hop happens inside Message.
const nsPort = 4242

// A Subject adapts one live target spec to the subject contract, so
// the whole campaign stack — identification, relation probing,
// cohesive grouping, saturation-driven mutation, the fleet bandit —
// drives a real server without knowing it.
//
// The safety rails (rate limiter, kill switch) live here, shared by
// every instance of the campaign: Rails.Rate bounds the campaign's
// aggregate send rate and one restart storm anywhere trips the whole
// campaign.
type Subject struct {
	spec    Spec
	limiter *RateLimiter
	ks      *KillSwitch
	rec     *telemetry.Recorder

	// fuzzing flips true at the first fuzzed message. Before that, every
	// Start is a relation probe or initial boot — process churn that is
	// the scheduler's business, not a "target restart" worth alarming on.
	fuzzing atomic.Bool
}

// NewSubject validates the spec, applies defaults, and builds the
// campaign-shared rails.
func NewSubject(spec Spec) (*Subject, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.withDefaults()
	s := &Subject{spec: spec}
	s.limiter = NewRateLimiter(spec.Rails.Rate, spec.Rails.Burst)
	s.ks = NewKillSwitch(spec.Rails)
	return s, nil
}

// LiveSpecJSON returns the JSON spec this subject was built from. The
// dist coordinator detects live subjects through this method (a plain
// interface assertion, so dist never imports live).
func (s *Subject) LiveSpecJSON() string { return s.spec.JSON() }

// KillSwitch exposes the campaign kill switch so the driver can wire
// its OnTrip hook to the campaign context's cancel function.
func (s *Subject) KillSwitch() *KillSwitch { return s.ks }

// SetRecorder directs the live counters (target_restarts,
// target_rate_limited, target_hangs) into rec. Nil is fine.
func (s *Subject) SetRecorder(rec *telemetry.Recorder) { s.rec = rec }

// Info implements subject.Subject.
func (s *Subject) Info() subject.Info {
	tr := subject.Datagram
	if s.spec.Transport == TransportTCP {
		tr = subject.Stream
	}
	return subject.Info{
		Protocol:       strings.ToUpper(s.spec.Name),
		Implementation: "live target",
		Transport:      tr,
		Port:           nsPort,
	}
}

// ConfigInput implements subject.Subject: the target's own config file
// template is the identification input Algorithm 1 mines.
func (s *Subject) ConfigInput() configspec.Input {
	if s.spec.ConfigTemplate == "" {
		return configspec.Input{}
	}
	return configspec.Input{Files: []configspec.File{{Name: s.spec.ConfigName, Content: s.spec.ConfigTemplate}}}
}

// PitXML implements subject.Subject.
func (s *Subject) PitXML() string {
	if s.spec.PitXML != "" {
		return s.spec.PitXML
	}
	return genericPitXML
}

// NewInstance implements subject.Subject.
func (s *Subject) NewInstance() subject.Instance {
	return &Instance{sub: s, spec: s.spec, cls: newClassifier(), buf: make([]byte, 64<<10)}
}

// An Instance is one live target instance: a spawned server process
// (or, in attach mode, a remote address) plus the socket to it.
// Instances are not safe for concurrent use, matching the contract.
type Instance struct {
	sub  *Subject
	spec Spec
	cfg  map[string]string // last applied config, for respawns
	proc *process          // nil in attach mode
	conn net.Conn
	cls  *classifier

	// misses counts consecutive messages that drew no response; at
	// HangThreshold the target is declared hung.
	misses int
	buf    []byte // reused read buffer; responses are copied out
}

// addr returns the target's socket address.
func (in *Instance) addr() string {
	if in.proc != nil {
		return fmt.Sprintf("127.0.0.1:%d", in.proc.port)
	}
	return in.spec.Addr
}

// dial (re)opens the socket to the target. UDP uses a connected socket
// so ICMP port-unreachable surfaces as a write/read error instead of
// silence.
func (in *Instance) dial() error {
	in.closeConn()
	conn, err := net.DialTimeout(in.spec.Transport, in.addr(), in.spec.readyTimeout())
	if err != nil {
		return err
	}
	in.conn = conn
	return nil
}

func (in *Instance) closeConn() {
	if in.conn != nil {
		in.conn.Close()
		in.conn = nil
	}
}

// Start implements subject.Instance: render cfg, spawn the server,
// wait for readiness, and report the readiness banner as startup
// coverage. During fuzzing each Start is a configuration-mutation
// restart and is counted as one.
func (in *Instance) Start(cfg map[string]string, tr *coverage.Trace) error {
	if in.sub.ks.Tripped() {
		return fmt.Errorf("live: kill switch tripped: %s", in.sub.ks.Reason())
	}
	in.cfg = cfg
	if len(in.spec.Cmd) == 0 {
		// Attach mode: nothing to spawn or configure; the boot edge is the
		// only startup coverage.
		tr.Hit(siteBoot)
		if in.spec.Transport == TransportUDP {
			return in.dial()
		}
		return nil
	}
	p, err := spawn(in.spec, cfg)
	if err != nil {
		return err
	}
	in.stopProc()
	in.proc = p
	if in.sub.fuzzing.Load() {
		in.sub.rec.Count(telemetry.CtrTargetRestarts, 1)
		in.sub.ks.NoteRestart()
	}
	bannerCoverage(tr, p.banner)
	if in.spec.Transport == TransportUDP {
		return in.dial()
	}
	// TCP connects per session, in NewSession.
	return nil
}

// SetTrace implements subject.Instance.
func (in *Instance) SetTrace(tr *coverage.Trace) { in.cls.setTrace(tr) }

// NewSession implements subject.Instance: reset the inferred state
// chain and, for TCP, open a fresh connection.
func (in *Instance) NewSession() {
	in.cls.newSession()
	if in.spec.Transport == TransportTCP && !in.sub.ks.Tripped() {
		// A dial failure is diagnosed in Message (dead process → crash,
		// otherwise counted as a miss), so it is not fatal here.
		_ = in.dial()
	}
}

// Message implements subject.Instance: one request over the real
// socket, responses collected under the read deadline and folded into
// inferred coverage. A dead target process panics with the triaged
// *bugs.Crash (captured by the engine's Run wrapper) after respawning
// a replacement, so fuzzing continues seamlessly — exactly the flow an
// in-process subject's seeded defect takes.
func (in *Instance) Message(payload []byte) [][]byte {
	s := in.sub
	if s.ks.Tripped() {
		return nil
	}
	s.fuzzing.Store(true)
	if s.limiter.Acquire(s.ks) {
		s.rec.Count(telemetry.CtrTargetRateLimited, 1)
	}
	if s.ks.Tripped() {
		return nil
	}
	if in.proc != nil && !in.proc.alive() {
		crash := in.proc.crash(s.spec.Name)
		in.respawn()
		panic(crash)
	}

	sent := false
	if in.conn != nil || in.dial() == nil {
		in.conn.SetWriteDeadline(time.Now().Add(in.spec.writeTimeout()))
		if _, err := in.conn.Write(payload); err == nil {
			sent = true
		}
	}

	var resps [][]byte
	if sent {
		// First response gets the full read deadline; after it, only a
		// short drain window for multi-packet replies.
		deadline := time.Now().Add(in.spec.readTimeout())
		for {
			in.conn.SetReadDeadline(deadline)
			n, err := in.conn.Read(in.buf)
			if err != nil {
				break
			}
			if n > 0 {
				resps = append(resps, append([]byte(nil), in.buf[:n]...))
			}
			deadline = time.Now().Add(time.Millisecond)
		}
	}
	in.cls.observe(resps)

	if len(resps) == 0 {
		// A send failure and a silent target look the same from here:
		// another strike toward the hang threshold.
		in.misses++
		if in.misses >= in.spec.HangThreshold {
			in.misses = 0
			if in.proc != nil && !in.proc.alive() {
				// The silence was death, not a wedge: triage the exit.
				crash := in.proc.crash(s.spec.Name)
				in.respawn()
				panic(crash)
			}
			s.rec.Count(telemetry.CtrTargetHangs, 1)
			s.ks.NoteHang()
			if in.proc != nil && !s.ks.Tripped() {
				in.respawn()
			}
		}
	} else {
		in.misses = 0
	}
	return resps
}

// respawn replaces a dead or hung target process under the same
// configuration. Every respawn counts as a restart; a failed respawn
// trips the kill switch (the campaign cannot continue without a
// target, and limping on would just spin the storm window).
func (in *Instance) respawn() {
	s := in.sub
	if in.proc == nil {
		return
	}
	in.stopProc()
	in.closeConn()
	in.misses = 0
	s.rec.Count(telemetry.CtrTargetRestarts, 1)
	s.ks.NoteRestart()
	if s.ks.Tripped() {
		return
	}
	p, err := spawn(in.spec, in.cfg)
	if err != nil {
		s.ks.Trip("respawn failed: " + err.Error())
		return
	}
	in.proc = p
	if in.spec.Transport == TransportUDP {
		if err := in.dial(); err != nil {
			s.ks.Trip("redial failed: " + err.Error())
		}
	}
}

func (in *Instance) stopProc() {
	if in.proc != nil {
		in.proc.stop()
		in.proc = nil
	}
}

// Close implements subject.Instance.
func (in *Instance) Close() {
	in.closeConn()
	in.stopProc()
}
