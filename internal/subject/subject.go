// Package subject defines the contract between CMFuzz and the protocol
// implementations under test. A Subject describes one IoT protocol
// implementation: where its configuration lives (CLI help, config files),
// its Pit data/state models, and how to boot instrumented instances.
//
// An Instance is one booted server. Start parses and applies a concrete
// configuration while reporting startup coverage — the lightweight proxy
// CMFuzz uses to quantify configuration relations (paper §III-B1) — and
// fails for conflicting configurations. Message feeds one client packet
// through the implementation, which reports branch coverage through the
// trace installed with SetTrace and panics with *bugs.Crash when a seeded
// defect fires.
//
// A campaign runs a subject's instances concurrently, each on a goroutine
// of its own — in-process and on a distributed worker's lanes alike — so
// instances of one subject must share no mutable state (package-level
// caches included), and Subject's methods must be safe to call from
// several goroutines at once. One instance is only ever used by one
// goroutine at a time.
package subject

import (
	"sync"

	"cmfuzz/internal/core/configspec"
	"cmfuzz/internal/coverage"
)

// Transport is how clients reach the protocol.
type Transport int

// The transports used by the six subjects.
const (
	Stream   Transport = iota // TCP-like (MQTT, AMQP)
	Datagram                  // UDP-like (CoAP, DTLS, DNS, DDS/RTPS)
)

// String names the transport.
func (t Transport) String() string {
	if t == Datagram {
		return "datagram"
	}
	return "stream"
}

// Info identifies a subject the way the paper's tables do.
type Info struct {
	// Protocol is the protocol name ("MQTT", "CoAP", ...), matching the
	// bugs.Table2 Protocol column.
	Protocol string
	// Implementation is the modeled implementation ("Mosquitto", ...).
	Implementation string
	// Transport is the client-facing transport.
	Transport Transport
	// Port is the conventional server port.
	Port uint16
}

// An Instance is one booted, instrumented protocol server.
type Instance interface {
	// Start applies cfg, reporting startup coverage into tr. It returns
	// an error (with no residual coverage guarantees) for conflicting or
	// invalid configurations.
	Start(cfg map[string]string, tr *coverage.Trace) error
	// SetTrace redirects subsequent message-handling coverage into tr.
	// The fuzzing loop installs a fresh trace per execution.
	SetTrace(tr *coverage.Trace)
	// NewSession begins a fresh client session (new connection/exchange
	// context), discarding per-session state.
	NewSession()
	// Message handles one inbound packet and returns response packets.
	// Seeded defects panic with *bugs.Crash.
	//
	// Buffers are lent both ways, as with fuzz.Target: payload is
	// read-only, and the caller may reuse it once Message returns, so an
	// instance copies anything it keeps from it and never writes it, nor
	// appends into its spare capacity (it may be a corpus seed's own
	// bytes, which instances on other goroutines read at the same time);
	// and the returned frames are read-only and valid only until the
	// instance's next Message, NewSession or Close, so an instance may
	// build them in buffers it reuses and a caller copies what it needs
	// to keep.
	Message(payload []byte) [][]byte
	// Close releases the instance.
	Close()
}

// A Subject is one protocol implementation under test.
type Subject interface {
	// Info identifies the subject.
	Info() Info
	// ConfigInput returns the configuration sources (CLI help text and
	// configuration files) that Algorithm 1 extracts items from.
	ConfigInput() configspec.Input
	// PitXML returns the Pit document with the subject's data and state
	// models (the same Pit is shared by all fuzzers, as in the paper).
	PitXML() string
	// NewInstance returns an unstarted instance.
	NewInstance() Instance
}

// Probe boots a throwaway instance under cfg and returns its startup
// branch coverage — the relation-quantification oracle. Conflicting
// configurations report 0. Its coverage trace is an earlier probe's,
// reset: planning a campaign probes hundreds of configurations on as
// many goroutines as it has probe workers, and an 8 KB map per probe
// would be a tenth of what a campaign allocates.
func Probe(s Subject, cfg map[string]string) int {
	tr := probeTraces.get()
	defer probeTraces.put(tr) // after Close: the instance may hold tr until then
	inst := s.NewInstance()
	defer inst.Close()
	if err := inst.Start(cfg, tr); err != nil {
		return 0
	}
	return tr.Count()
}

// probeTraces holds the traces of finished probes for the next ones: as
// many as probes ever ran at once.
var probeTraces traceStack

type traceStack struct {
	mu   sync.Mutex
	free []*coverage.Trace
}

// get returns an empty trace.
func (s *traceStack) get() *coverage.Trace {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.free); n > 0 {
		tr := s.free[n-1]
		s.free = s.free[:n-1]
		return tr
	}
	return coverage.NewTrace()
}

// put resets tr and keeps it for a later get.
func (s *traceStack) put(tr *coverage.Trace) {
	tr.Reset()
	s.mu.Lock()
	s.free = append(s.free, tr)
	s.mu.Unlock()
}
