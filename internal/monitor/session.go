package monitor

import (
	"flag"
	"fmt"
	"io"

	"cmfuzz/internal/telemetry"
	"cmfuzz/internal/telemetry/metrics"
	"cmfuzz/internal/telemetry/trace"
)

// SessionConfig is the observability surface of one CLI invocation.
// The zero value means "everything off": every sink in the resulting
// Session is nil, and instrumented code pays one nil check.
type SessionConfig struct {
	// Telemetry enables the virtual-clock event recorder explicitly
	// (the -telemetry flag). EventsPath and MonitorAddr imply it.
	Telemetry bool
	// EventsPath streams recorder events to a JSONL file at Finish.
	EventsPath string
	// TracePath enables the wall-clock span tracer and exports a Chrome
	// trace_event JSON file at Finish.
	TracePath string
	// MonitorAddr starts the HTTP monitor on this host:port.
	MonitorAddr string
	// RootSpan names the tracer's root span ("fuzz", "campaign", ...).
	RootSpan string
}

// Bind registers the session flags on fs. Every command that observes
// campaigns takes the same four, so they are defined here once.
func (c *SessionConfig) Bind(fs *flag.FlagSet) {
	fs.BoolVar(&c.Telemetry, "telemetry", false, "collect structured events; print the timeline and counters")
	fs.StringVar(&c.EventsPath, "events", "", "write the structured event stream as JSONL to this file (implies -telemetry)")
	fs.StringVar(&c.TracePath, "trace", "", "write a wall-clock Chrome trace (chrome://tracing / Perfetto) to this file; a coordinator stitches worker spans in as extra process lanes")
	fs.StringVar(&c.MonitorAddr, "monitor", "", "serve /status, /metrics, /healthz and /debug/pprof on this host:port (implies -telemetry)")
}

// A Session bundles every observability sink one CLI run wires up.
// Fields for disabled sinks are nil and safe to pass straight into
// Options structs (the nil-safety contract does the rest).
type Session struct {
	// Recorder is the deterministic virtual-clock event log and the
	// live run board behind /status (nil when telemetry is off).
	Recorder *telemetry.Recorder
	// Tracer/Root are the wall-clock span tracer and its root span (nil
	// without -trace).
	Tracer *trace.Tracer
	Root   *trace.Span
	// Registry backs the monitor's /metrics endpoint (nil without
	// -monitor). Callers with extra sources — a distributed-campaign
	// coordinator, say — register them here after StartSession.
	Registry *metrics.Registry
	// Server is the running HTTP monitor (nil without -monitor).
	Server *Server

	cfg SessionConfig
}

// StartSession applies the flag-implication rules and stands up the
// requested sinks:
//
//   - -events FILE implies -telemetry (streaming events requires the
//     recorder that produces them).
//   - -monitor ADDR implies -telemetry: /status and /metrics read the
//     recorder's counters and its live run board.
//   - -trace FILE stands alone: the wall-clock tracer is independent of
//     the virtual-clock recorder by design (two clocks, two sinks).
//
// The monitor server starts immediately so scrapes work for the whole
// run; everything else is write-only until Finish.
func StartSession(cfg SessionConfig) (*Session, error) {
	s := &Session{cfg: cfg}
	if cfg.Telemetry || cfg.EventsPath != "" || cfg.MonitorAddr != "" {
		s.Recorder = telemetry.New()
	}
	if cfg.TracePath != "" {
		s.Tracer = trace.New()
		name := cfg.RootSpan
		if name == "" {
			name = "cmfuzz"
		}
		s.Root = s.Tracer.Start(name)
	}
	if cfg.MonitorAddr != "" {
		s.Registry = metrics.NewRegistry()
		s.Recorder.Instrument(s.Registry)
		srv, err := Start(cfg.MonitorAddr, Options{
			Registry: s.Registry,
			Status:   s.Recorder.Status,
		})
		if err != nil {
			return nil, err
		}
		s.Server = srv
	}
	return s, nil
}

// Finish ends the root span, exports the trace and event files, prints
// the monitor URL reminder, and shuts the HTTP server down. Safe on a
// nil session. Returns the first export error.
func (s *Session) Finish(w io.Writer) error {
	if s == nil {
		return nil
	}
	var firstErr error
	if s.Root != nil {
		s.Root.End()
	}
	if s.Tracer != nil && s.cfg.TracePath != "" {
		if err := s.Tracer.ExportChromeTrace(s.cfg.TracePath); err != nil {
			firstErr = err
		} else if w != nil {
			fmt.Fprintf(w, "wall-clock trace (%d spans) written to %s — load in chrome://tracing or https://ui.perfetto.dev\n",
				s.Tracer.SpanCount(), s.cfg.TracePath)
		}
	}
	if s.Recorder != nil && s.cfg.EventsPath != "" {
		if err := s.Recorder.ExportJSONL(s.cfg.EventsPath); err != nil && firstErr == nil {
			firstErr = err
		} else if err == nil && w != nil {
			fmt.Fprintf(w, "telemetry events written to %s\n", s.cfg.EventsPath)
		}
	}
	if s.Server != nil {
		if err := s.Server.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
