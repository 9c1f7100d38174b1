package monitor

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"cmfuzz/internal/parallel"
	"cmfuzz/internal/protocols"
	"cmfuzz/internal/telemetry"
	"cmfuzz/internal/telemetry/metrics"
)

func get(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

func TestServerEndpoints(t *testing.T) {
	rec := telemetry.New()
	rec.Count(telemetry.CtrProbeStartups, 3)
	rec.Count(telemetry.CtrProbeCacheHits, 9)
	rec.Child("CMFuzz/rep0").Publish(telemetry.RunStatus{Mode: "CMFuzz", Subject: "dns",
		VirtualSeconds: 121, HorizonSeconds: 3600, Edges: 55, Execs: 1750, Crashes: 1,
		Instances: []telemetry.InstanceStatus{
			{Index: 0, VirtualSeconds: 120.5, Edges: 40, Execs: 900, Crashes: 1, Mutations: 2, CorpusSeeds: 12},
			{Index: 1, VirtualSeconds: 118, Edges: 35, Execs: 850, Mutations: 1, CorpusSeeds: 10},
		}})

	reg := metrics.NewRegistry()
	rec.Instrument(reg)
	srv, err := Start("127.0.0.1:0", Options{
		Registry: reg,
		Status:   rec.Status,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, ct, body := get(t, srv.URL()+"/healthz")
	if code != 200 || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	_ = ct

	code, ct, body = get(t, srv.URL()+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	if !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	stats, err := metrics.Lint(strings.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics fails lint: %v\n%s", err, body)
	}
	if stats.Samples == 0 {
		t.Fatal("/metrics served no samples")
	}
	for _, want := range []string{
		"cmfuzz_probe_cache_hits_total 9",
		"cmfuzz_probe_startups_total 3",
		"cmfuzz_probe_cache_hit_ratio 0.75",
		`cmfuzz_run_edges{run="CMFuzz/rep0"} 55`,
		`cmfuzz_instance_execs{instance="0",run="CMFuzz/rep0"} 900`,
		`cmfuzz_instance_corpus_seeds{instance="1",run="CMFuzz/rep0"} 10`,
		"cmfuzz_runs_running 1",
	} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, ct, body = get(t, srv.URL()+"/status")
	if code != 200 || !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/status = %d %q", code, ct)
	}
	var st struct {
		Runs     []telemetry.RunStatus
		Counters telemetry.Counters
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/status not JSON: %v\n%s", err, body)
	}
	if len(st.Runs) != 1 || st.Runs[0].Run != "CMFuzz/rep0" {
		t.Fatalf("/status runs = %+v", st.Runs)
	}
	r := st.Runs[0]
	if r.Execs != 1750 || r.Crashes != 1 || r.Edges != 55 || len(r.Instances) != 2 {
		t.Fatalf("/status aggregate = %+v", r)
	}
	if r.Instances[0].Execs != 900 || r.Instances[1].CorpusSeeds != 10 {
		t.Fatalf("/status instances = %+v", r.Instances)
	}
	if st.Counters[telemetry.CtrProbeCacheHits] != 9 {
		t.Fatalf("/status counters = %+v", st.Counters)
	}

	code, _, body = get(t, srv.URL()+"/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d %q", code, body[:min(len(body), 80)])
	}
	code, _, _ = get(t, srv.URL()+"/nonexistent")
	if code != 404 {
		t.Fatalf("unknown path = %d, want 404", code)
	}
	code, _, body = get(t, srv.URL()+"/")
	if code != 200 || !strings.Contains(body, "/metrics") {
		t.Fatalf("index = %d %q", code, body)
	}
}

func TestServerEmptySources(t *testing.T) {
	srv, err := Start("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if code, _, _ := get(t, srv.URL()+"/metrics"); code != 200 {
		t.Fatalf("/metrics without registry = %d", code)
	}
	code, _, body := get(t, srv.URL()+"/status")
	if code != 200 || strings.TrimSpace(body) != "{}" {
		t.Fatalf("/status without source = %d %q", code, body)
	}
}

func TestSessionImplications(t *testing.T) {
	// -events implies the recorder even without -telemetry.
	s, err := StartSession(SessionConfig{EventsPath: filepath.Join(t.TempDir(), "e.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	if s.Recorder == nil {
		t.Fatal("-events did not imply the recorder")
	}
	if s.Tracer != nil || s.Server != nil || s.Registry != nil {
		t.Fatal("-events enabled unrelated sinks")
	}
	if err := s.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}

	// -monitor implies recorder (with its live board) + registry +
	// running server.
	s, err = StartSession(SessionConfig{MonitorAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if s.Recorder == nil || s.Registry == nil || s.Server == nil {
		t.Fatalf("-monitor implications missing: %+v", s)
	}
	if code, _, _ := get(t, s.Server.URL()+"/healthz"); code != 200 {
		t.Fatal("monitor not serving")
	}
	s.Recorder.Publish(telemetry.RunStatus{Mode: "CMFuzz"})
	if _, _, body := get(t, s.Server.URL()+"/status"); !strings.Contains(body, `"run": "CMFuzz"`) {
		t.Fatalf("/status does not serve the recorder's board: %s", body)
	}
	if err := s.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}

	// Zero config: everything off, Finish is a no-op.
	s, err = StartSession(SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Recorder != nil || s.Tracer != nil || s.Server != nil {
		t.Fatalf("zero config enabled sinks: %+v", s)
	}
	if err := s.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := (*Session)(nil).Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestSessionTraceExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	s, err := StartSession(SessionConfig{TracePath: path, RootSpan: "fuzz"})
	if err != nil {
		t.Fatal(err)
	}
	if s.Tracer == nil || s.Root == nil {
		t.Fatal("-trace did not enable the tracer")
	}
	if s.Recorder != nil {
		t.Fatal("-trace must not imply the virtual-clock recorder")
	}
	child := s.Root.Child("probe.plan")
	child.End()
	var out strings.Builder
	if err := s.Finish(&out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("trace events = %d, want 2", len(doc.TraceEvents))
	}
	if !strings.Contains(out.String(), path) {
		t.Fatalf("Finish did not announce the trace file: %q", out.String())
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestCloseLetsInflightRequestFinish pins the graceful-shutdown fix: a
// request already being handled when Close is called must complete with
// its full response, not be cut off by an abortive connection close.
func TestCloseLetsInflightRequestFinish(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	srv, err := Start("127.0.0.1:0", Options{
		Status: func() any {
			close(entered)
			<-release
			return map[string]string{"slow": "but complete"}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		status int
		body   string
		err    error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get(srv.URL() + "/status")
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			done <- result{err: err}
			return
		}
		done <- result{status: resp.StatusCode, body: string(body)}
	}()

	<-entered // the handler is now mid-request
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	// Close must wait for the handler; give it a moment to prove it is
	// blocked rather than aborting, then let the handler finish.
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while a request was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)

	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request failed across shutdown: %v", r.err)
	}
	if r.status != http.StatusOK || !strings.Contains(r.body, "but complete") {
		t.Fatalf("in-flight request truncated: status %d, body %q", r.status, r.body)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestCloseForcesStuckRequests pins the fallback: a handler that never
// returns must not wedge Close past the grace period.
func TestCloseForcesStuckRequests(t *testing.T) {
	old := closeGrace
	closeGrace = 50 * time.Millisecond
	defer func() { closeGrace = old }()

	entered := make(chan struct{})
	srv, err := Start("127.0.0.1:0", Options{
		Status: func() any {
			close(entered)
			select {} // never returns
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	go http.Get(srv.URL() + "/status")
	<-entered

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err == nil {
			t.Fatal("Close returned nil despite a stuck request")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a stuck handler")
	}
}

// TestMonitoredFuzzSurfaces pins what a monitored `cmfuzz fuzz` run
// serves: every /metrics family with its label keys, and the /status
// JSON keys of the payload, a run and an instance, as scraped from a
// DNS run before the live board moved into the recorder.
func TestMonitoredFuzzSurfaces(t *testing.T) {
	s, err := StartSession(SessionConfig{MonitorAddr: "127.0.0.1:0", RootSpan: "fuzz"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Finish(io.Discard)
	sub, err := protocols.ByName("DNS")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parallel.Run(context.Background(), sub,
		parallel.Options{Mode: parallel.ModeCMFuzz, VirtualHours: 1, Seed: 1, Telemetry: s.Recorder}); err != nil {
		t.Fatal(err)
	}

	unlabelled := []string{"boots_total", "config_mutations_total", "coverage_samples_total", "crashes_total",
		"crashes_unique_total", "defaults_fallbacks_total", "events_recorded", "execs_per_second",
		"probe_cache_hit_ratio", "probe_cache_hits_total", "probe_startups_total", "restart_failures_total",
		"runs_running", "saturations_total", "sync_intervals_skipped_total", "syncs_total",
		"target_hangs_total", "target_rate_limited_total", "target_restarts_total"}
	want := map[string]string{}
	for _, f := range unlabelled {
		want["cmfuzz_"+f] = ""
	}
	for _, f := range []string{"run_crashes", "run_edges", "run_execs", "run_horizon_seconds",
		"run_virtual_seconds", "instances_running"} {
		want["cmfuzz_"+f] = "run"
	}
	for _, f := range []string{"corpus_seeds", "crashes", "edges", "execs", "mutations", "virtual_seconds"} {
		want["cmfuzz_instance_"+f] = "instance,run"
	}
	_, _, body := get(t, s.Server.URL()+"/metrics")
	got := map[string]string{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series := strings.Fields(line)[0]
		name, labels, _ := strings.Cut(series, "{")
		var keys []string
		for _, kv := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
			if k, _, ok := strings.Cut(kv, "="); ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		if prev, ok := got[name]; ok && prev != strings.Join(keys, ",") {
			t.Fatalf("family %s has label keys %q and %q", name, prev, strings.Join(keys, ","))
		}
		got[name] = strings.Join(keys, ",")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("/metrics families and label keys:\n got %v\nwant %v", got, want)
	}

	_, _, body = get(t, s.Server.URL()+"/status")
	var status struct {
		Runs []map[string]json.RawMessage `json:"runs"`
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &top); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatal(err)
	}
	if len(status.Runs) != 1 {
		t.Fatalf("/status runs = %d, want 1", len(status.Runs))
	}
	var instances []map[string]json.RawMessage
	if err := json.Unmarshal(status.Runs[0]["instances"], &instances); err != nil || len(instances) == 0 {
		t.Fatalf("/status instances: %v, %s", err, status.Runs[0]["instances"])
	}
	for _, c := range []struct {
		what string
		obj  map[string]json.RawMessage
		keys string
	}{
		{"payload", top, "counters,runs"},
		{"run", status.Runs[0], "crashes,done,edges,execs,horizon_seconds,instances,mode,run,subject,virtual_seconds"},
		{"instance", instances[0], "config,corpus_seeds,crashes,edges,execs,index,mutations,virtual_seconds"},
	} {
		var keys []string
		for k := range c.obj {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if got := strings.Join(keys, ","); got != c.keys {
			t.Errorf("/status %s keys = %s, want %s", c.what, got, c.keys)
		}
	}
}
