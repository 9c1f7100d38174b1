// Package monitor is the live campaign monitor: an embedded net/http
// server exposing a running cmfuzz process the way production fuzzers
// expose their stats screens. Endpoints:
//
//	/            tiny HTML index linking everything below
//	/healthz     liveness probe ("ok")
//	/status      JSON snapshot of per-run / per-instance progress
//	/metrics     Prometheus text exposition (package telemetry/metrics)
//	/debug/pprof wall-clock CPU/heap/goroutine profiling (net/http/pprof)
//
// The monitor observes and never steers: everything it serves is read
// from the nil-safe observability sinks (telemetry.Recorder with its
// live run board, metrics.Registry, trace.Tracer), so a monitored
// campaign produces byte-identical artifacts to an unmonitored one. It
// registers no metric family: each layer registers its own on the
// registry it serves (the recorder's, the pool's and the fleet
// manager's Instrument), and a session builds the recorder's.
package monitor

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"cmfuzz/internal/telemetry/metrics"
)

// Options configures a Server. Every field is optional; missing sources
// serve empty-but-valid responses.
type Options struct {
	// Registry backs /metrics (nil serves an empty exposition).
	Registry *metrics.Registry

	// Status returns the object serialized on /status.
	Status func() any

	// API, when set, is mounted under /api/ — the fleet service plugs
	// its campaign-control endpoints (submit/status/results) in here so
	// one listener serves both the human monitor and the machine API.
	API http.Handler
}

// A Server is one running monitor listener.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// Handler builds the monitor's http.Handler: the status/metrics/health
// endpoints plus net/http/pprof on its own mux (the default mux is
// never touched, so embedding applications keep theirs).
func Handler(opts Options) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var v any = struct{}{}
		if opts.Status != nil {
			v = opts.Status()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if opts.Registry != nil {
			if err := opts.Registry.WriteText(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		}
	})
	if opts.API != nil {
		mux.Handle("/api/", opts.API)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, `<!doctype html><title>cmfuzz monitor</title>
<h1>cmfuzz campaign monitor</h1><ul>
<li><a href="/status">/status</a> — per-run / per-instance progress (JSON)</li>
<li><a href="/metrics">/metrics</a> — Prometheus text exposition</li>
<li><a href="/healthz">/healthz</a> — liveness</li>
<li><a href="/debug/pprof/">/debug/pprof/</a> — Go runtime profiles</li>
</ul>`)
	})
	return mux
}

// Start listens on addr (host:port; port 0 picks a free one) and serves
// the monitor in a background goroutine until Close.
func Start(addr string, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("monitor: listen %s: %w", addr, err)
	}
	s := &Server{
		ln:   ln,
		srv:  &http.Server{Handler: Handler(opts), ReadHeaderTimeout: 5 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		// http.Serve returns ErrServerClosed after Close; any other
		// error means the listener died under us — nothing to do but
		// stop serving (the campaign itself must never be disturbed).
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// URL returns the http base URL of the monitor.
func (s *Server) URL() string {
	if s == nil {
		return ""
	}
	return "http://" + s.Addr()
}

// closeGrace bounds how long Close waits for in-flight requests before
// forcibly dropping their connections. A variable so tests can pin the
// forced-close fallback without a multi-second wait.
var closeGrace = 2 * time.Second

// Close stops the listener, lets in-flight requests finish (a fleet
// client mid-submit must not see a reset after the server already
// accepted its campaign), and waits for the serve loop to exit.
// Requests still running after a short grace period are cut off so a
// stuck handler cannot wedge process shutdown.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), closeGrace)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if err != nil {
		// Grace expired (or the context machinery failed): fall back to
		// the abortive close rather than hanging forever.
		s.srv.Close()
	}
	<-s.done
	return err
}
