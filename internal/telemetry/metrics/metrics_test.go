package metrics

import (
	"bytes"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	h := r.Histogram("x_seconds", "help", nil)
	h.Observe(0.1)
	r.CounterFunc("y_total", "", func() float64 { return 1 })
	r.GaugeFunc("y", "", func() float64 { return 1 })
	r.Collect(func(set func(string, string, float64, ...Label)) { set("z", "", 1) })
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry wrote %q, err %v", buf.String(), err)
	}
}

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("cmfuzz_execs_total", "Total protocol executions.", func() float64 { return 42 })
	r.CounterFunc("cmfuzz_execs_total", "Total protocol executions.", func() float64 { return 7 }, L("instance", "0"))
	r.GaugeFunc("cmfuzz_instances_running", "Parallel instances currently fuzzing.", func() float64 { return 4 })
	h := r.Histogram("cmfuzz_probe_seconds", "Startup probe latency.", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)
	r.GaugeFunc("cmfuzz_cache_hit_ratio", "Probe cache hit ratio.", func() float64 { return 0.75 })

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP cmfuzz_execs_total Total protocol executions.",
		"# TYPE cmfuzz_execs_total counter",
		"cmfuzz_execs_total 42",
		`cmfuzz_execs_total{instance="0"} 7`,
		"# TYPE cmfuzz_instances_running gauge",
		"cmfuzz_instances_running 4",
		"# TYPE cmfuzz_probe_seconds histogram",
		`cmfuzz_probe_seconds_bucket{le="0.01"} 1`,
		`cmfuzz_probe_seconds_bucket{le="0.1"} 2`,
		`cmfuzz_probe_seconds_bucket{le="1"} 2`,
		`cmfuzz_probe_seconds_bucket{le="+Inf"} 3`,
		"cmfuzz_probe_seconds_sum 5.055",
		"cmfuzz_probe_seconds_count 3",
		"cmfuzz_cache_hit_ratio 0.75",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if _, err := Lint(strings.NewReader(out)); err != nil {
		t.Fatalf("own exposition fails lint: %v\n%s", err, out)
	}
}

func TestCollectorSamples(t *testing.T) {
	r := NewRegistry()
	edges := map[string]int{"0": 120, "1": 95}
	r.Collect(func(set func(string, string, float64, ...Label)) {
		for inst, e := range edges {
			set("cmfuzz_instance_edges", "Edges per instance.", float64(e), L("instance", inst))
		}
	})
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE cmfuzz_instance_edges gauge",
		`cmfuzz_instance_edges{instance="0"} 120`,
		`cmfuzz_instance_edges{instance="1"} 95`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("collector exposition missing %q:\n%s", want, out)
		}
	}
	if _, err := Lint(strings.NewReader(out)); err != nil {
		t.Fatalf("lint: %v\n%s", err, out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("g", "quoted \\ and\nnewline", func() float64 { return 1 }, L("cfg", `a="b"\c`))
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `# HELP g quoted \\ and\nnewline`) {
		t.Fatalf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `g{cfg="a=\"b\"\\c"} 1`) {
		t.Fatalf("label not escaped:\n%s", out)
	}
	if _, err := Lint(strings.NewReader(out)); err != nil {
		t.Fatalf("lint rejects escaped output: %v\n%s", err, out)
	}
}

func TestSameSeriesSharedAndTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("shared_total", "", func() float64 { return 1 })
	r.CounterFunc("shared_total", "", func() float64 { return 2 })
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "shared_total 2\n") || strings.Count(out, "\nshared_total ") != 1 {
		t.Fatalf("re-registered counter is not one series read through its latest func:\n%s", out)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering shared_total as a gauge did not panic")
		}
	}()
	r.GaugeFunc("shared_total", "", func() float64 { return 0 })
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name did not panic")
		}
	}()
	r.CounterFunc("0bad-name", "", func() float64 { return 0 })
}

func TestLintRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"no samples":      "# TYPE a counter\n",
		"bad value":       "a xyz\n",
		"bad name":        "9a 1\n",
		"unclosed labels": `a{b="c 1` + "\n",
		"type after use":  "a 1\n# TYPE a counter\na 2\n",
		"unknown type":    "# TYPE a widget\na 1\n",
		"unquoted label":  "a{b=c} 1\n",
		"missing value":   "a{b=\"c\"}\n",
		"duplicate TYPE":  "# TYPE a counter\n# TYPE a counter\na 1\n",
	}
	for name, in := range cases {
		if _, err := Lint(strings.NewReader(in)); err == nil {
			t.Errorf("%s: lint accepted %q", name, in)
		}
	}
}

func TestLintAcceptsRealWorldShape(t *testing.T) {
	in := `# HELP up Scrape success.
# TYPE up gauge
up 1
# HELP rpc_seconds Round-trip time.
# TYPE rpc_seconds histogram
rpc_seconds_bucket{le="0.1"} 3
rpc_seconds_bucket{le="+Inf"} 4
rpc_seconds_sum 0.8
rpc_seconds_count 4
# HELP plain_untyped_metric A sample with a timestamp.
# TYPE plain_untyped_metric untyped
plain_untyped_metric 3.14 1712345678
`
	stats, err := Lint(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Families != 3 || stats.Samples != 6 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestLintStrictConventions: lint holds naming discipline on top of
// grammar validation — counters end _total, nothing else does, names
// are lowercase, reserved sample suffixes stay reserved, and every
// family carries HELP and TYPE.
func TestLintStrictConventions(t *testing.T) {
	good := `# HELP reqs_total Requests served.
# TYPE reqs_total counter
reqs_total 4
# HELP queue_depth Items waiting.
# TYPE queue_depth gauge
queue_depth 2
# HELP rpc_seconds Round-trip time.
# TYPE rpc_seconds histogram
rpc_seconds_bucket{le="+Inf"} 4
rpc_seconds_sum 0.8
rpc_seconds_count 4
`
	if _, err := Lint(strings.NewReader(good)); err != nil {
		t.Fatalf("lint rejected a clean exposition: %v", err)
	}

	cases := map[string]string{
		"counter without _total": "# HELP reqs Requests.\n# TYPE reqs counter\nreqs 1\n",
		"gauge with _total":      "# HELP depth_total Depth.\n# TYPE depth_total gauge\ndepth_total 1\n",
		"uppercase name":         "# HELP req_Total Requests.\n# TYPE req_Total counter\nreq_Total 1\n",
		"reserved suffix":        "# HELP a_count Things.\n# TYPE a_count gauge\na_count 1\n",
		"missing HELP":           "# TYPE reqs_total counter\nreqs_total 1\n",
		"missing TYPE":           "# HELP reqs_total Requests.\nreqs_total 1\n",
	}
	for name, in := range cases {
		if _, err := Lint(strings.NewReader(in)); err == nil {
			t.Errorf("%s: lint accepted %q", name, in)
		}
	}
}

// TestRegistryConcurrency hammers one registry from many goroutines the
// way -j campaign workers and scrapes actually interleave; run with
// -race this is the metrics half of the telemetry stress satellite.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var last atomic.Int64
			r.CounterFunc("stress_total", "Increments.", func() float64 { return float64(total.Load()) })
			r.GaugeFunc("stress", "Last increment.", func() float64 { return float64(last.Load()) }, L("worker", string(rune('a'+g))))
			h := r.Histogram("stress_seconds", "Increment latency.", nil)
			for i := 0; i < 500; i++ {
				total.Add(1)
				last.Store(int64(i))
				h.Observe(float64(i) / 1000)
				if i%100 == 0 {
					var buf bytes.Buffer
					if err := r.WriteText(&buf); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "stress_total 4000\n") {
		t.Fatalf("lost counter increments:\n%s", buf.String())
	}
	if _, err := Lint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("lint: %v", err)
	}
}
