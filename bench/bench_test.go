package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"cmfuzz/internal/parallel"
)

// The whole ladder at a quarter of a virtual hour per campaign: every
// workload, untraced and traced, in a couple of seconds.
func runSmall(t *testing.T, root, outDir, workload string, traced bool) *record {
	t.Helper()
	rec, err := runWorkload(runConfig{
		workload: workload, seed: 1, trace: traced,
		root: root, outDir: outDir, start: time.Now(),
		hours: 0.25, tracedReps: 1, ladderSteps: 200, queueDepth: 30,
	})
	if err != nil {
		t.Fatalf("%s (trace %v): %v", workload, traced, err)
	}
	return rec
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestCatalogue checks BENCHMARK.json against the limits the driver
// refuses a file for, and against the workload table in this package.
func TestCatalogue(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	if !reflect.DeepEqual(file.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", file.Paths)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", file.RunSeconds)
	}
	if len(file.EndToEnd) > 16 || len(file.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits are 16 and 128", len(file.EndToEnd), len(file.PerLayer))
	}

	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	var listed []string
	for _, w := range file.Workloads {
		name(w.Name)
		listed = append(listed, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(listed, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, this package runs %v", listed, workloadNames())
	}
	hasSetup := false
	for _, d := range file.EndToEnd {
		name(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end has no setup_s in s, lower is better")
	}
	for _, d := range file.PerLayer {
		name(d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", d.Name)
		}
	}
	for _, d := range append(file.EndToEnd, file.PerLayer...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %v", d.Name, d.Unit, unitRE)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
}

// lastLine is what the driver reads.
type lastLine struct {
	Correct   *bool                  `json:"correct"`
	Attempted *int                   `json:"attempted"`
	Failed    *int                   `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// checkPrinted asserts that rec prints exactly the metrics defs lists,
// once each, with the listed units, and ends in the driver's object.
func checkPrinted(t *testing.T, rec *record, defs []metricDef) {
	t.Helper()
	var buf bytes.Buffer
	rec.print(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var last lastLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&last); err != nil {
		t.Fatalf("last line: %v", err)
	}
	if last.Correct == nil || last.Attempted == nil || last.Failed == nil || last.Metrics == nil {
		t.Fatalf("last line lacks a key: %s", lines[len(lines)-1])
	}
	if !*last.Correct || *last.Failed != 0 || *last.Attempted < 1 {
		t.Errorf("correct %v, failed %d of %d", *last.Correct, *last.Failed, *last.Attempted)
	}
	if len(last.Metrics) != len(defs) {
		t.Errorf("%d metrics printed, BENCHMARK.json lists %d", len(last.Metrics), len(defs))
	}
	for _, d := range defs {
		mv, ok := last.Metrics[d.Name]
		if !ok {
			t.Errorf("%s is listed but not printed", d.Name)
		} else if mv.Unit != d.Unit {
			t.Errorf("%s printed in %q, listed in %q", d.Name, mv.Unit, d.Unit)
		}
		rows := 0
		for _, line := range lines[:len(lines)-1] {
			if f := strings.Fields(line); len(f) >= 3 && f[0] == d.Name && f[2] == d.Unit {
				rows++
			}
		}
		if rows != 1 {
			t.Errorf("%s has %d rows in the ledger, want 1", d.Name, rows)
		}
	}
}

func TestWorkloads(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	defs, err := loadDefs(root)
	if err != nil {
		t.Fatal(err)
	}
	messageStride = 1
	var mu sync.Mutex
	computed := map[string]bool{}
	// The group returns once its parallel subtests have.
	t.Run("workload", func(t *testing.T) {
		for _, w := range workloads {
			w := w
			t.Run(w.name, func(t *testing.T) {
				t.Parallel()
				checkWorkload(t, root, defs, w, func(name string) {
					mu.Lock()
					computed[name] = true
					mu.Unlock()
				})
			})
		}
	})
	var missing []string
	for _, d := range defs.PerLayer {
		if !computed[d.Name] {
			missing = append(missing, d.Name)
		}
	}
	if len(missing) > 0 {
		t.Errorf("listed in BENCHMARK.json but computed on no workload: %v", missing)
	}
}

func checkWorkload(t *testing.T, root string, defs *benchmarkDefs, w *workload, computed func(name string)) {
	t.Helper()
	outDir := t.TempDir()
	plain := runSmall(t, root, outDir, w.name, false)
	checkPrinted(t, plain, defs.EndToEnd)
	if plain.Attempted != (1+timedReps)*6 || plain.Failed != 0 || plain.FailedShare != 0 {
		t.Errorf("untraced: %d failed of %d, failed_share %g: %v", plain.Failed, plain.Attempted, plain.FailedShare, plain.Failures)
	}
	for _, d := range defs.EndToEnd {
		if plain.Metrics[d.Name].Value <= 0 {
			t.Errorf("%s = %g, an end-to-end metric is never 0", d.Name, plain.Metrics[d.Name].Value)
		}
		if d.Name != "peak_rss_mb" && len(plain.Reps[d.Name]) < timedReps {
			t.Errorf("%s: per-repetition values %v, want at least %d", d.Name, plain.Reps[d.Name], timedReps)
		}
	}
	if h := plain.Header; h.HoursPerCampaign != 0.25 || h.Repetitions != timedReps || h.GoVersion == "" || len(h.Order) != 6 {
		t.Errorf("header %+v", h)
	}

	traced := runSmall(t, root, outDir, w.name, true)
	checkPrinted(t, traced, defs.PerLayer)
	if traced.Failed != 0 {
		t.Errorf("traced: %v", traced.Failures)
	}
	// Observation never steers: the decorated, traced campaigns
	// leave the trees the plain ones left.
	if !reflect.DeepEqual(traced.Digests, plain.Digests) || len(plain.Digests) != 6 {
		t.Errorf("digests differ:\n traced %v\n plain  %v", traced.Digests, plain.Digests)
	}
	if traced.Execs != plain.Execs {
		t.Errorf("execs per repetition: traced %d, plain %d", traced.Execs, plain.Execs)
	}
	if _, err := os.Stat(filepath.Join(outDir, w.name+".trace.json")); err != nil {
		t.Error(err)
	}
	for name := range traced.computed {
		computed(name)
	}

	m := traced.computed
	for id, l := range traced.Campaigns {
		if parts := l.CoreS + l.ProtocolsS + l.WriteS; parts > l.WallS || l.RunS > l.WallS {
			t.Errorf("%s: layers sum to %gs (run %gs) inside a campaign of %gs", id, parts, l.RunS, l.WallS)
		}
	}
	if len(traced.Campaigns) != 6 {
		t.Errorf("%d campaign ledgers, want 6", len(traced.Campaigns))
	}
	inproc := !w.usesDist()
	if inproc && m["protocols.sessions"] != float64(traced.Execs) {
		t.Errorf("in-process sessions %g, execs %d: every session is a reported execution", m["protocols.sessions"], traced.Execs)
	}
	if inproc && m["dist.frames"]+m["dist.leases"]+m["fleet.slices"] != 0 {
		t.Error("a dist or fleet metric moved on an in-process workload")
	}
	if !inproc && (m["dist.frames"] == 0 || m["dist.wire_bytes"] == 0 || m["dist.restore_reexec_sessions"] == 0) {
		t.Errorf("dist layer not observed: frames %g, bytes %g, re-executed %g", m["dist.frames"], m["dist.wire_bytes"], m["dist.restore_reexec_sessions"])
	}
	if (w.mode == parallel.ModeCMFuzz) != (m["core.probes"] > 0) {
		t.Errorf("core.probes = %g in mode %v", m["core.probes"], w.mode)
	}
	if w.name == "fleet_drain" && (m["fleet.slices"] < 6 || m["fleet.q1000.submit_us_p50"] <= 0 || m["fleet.useful_exec_ratio"] <= 0 || m["fleet.useful_exec_ratio"] > 1) {
		t.Errorf("fleet layer: slices %g, q1000 submit %g, useful ratio %g", m["fleet.slices"], m["fleet.q1000.submit_us_p50"], m["fleet.useful_exec_ratio"])
	}
}

func TestCompare(t *testing.T) {
	d := metricDef{Name: "wall_s_per_vhour", Better: "lower", Bound: 0.1}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scale := func(k float64) []float64 {
		out := make([]float64, len(steady))
		for i, x := range steady {
			out[i] = x * k
		}
		return out
	}
	noisy := []float64{0.7, 1.3, 0.8, 1.2, 1.0, 0.6, 1.4, 0.9, 1.1, 1.0}
	for _, c := range []struct {
		a, b []float64
		want string
	}{
		{steady, scale(1.05), "ok"},
		{steady, scale(1.2), "regressed"},
		{steady, scale(0.5), "ok"},
		{noisy, noisy, "unresolved"},
		{noisy, scale(0.5), "ok"}, // every run of b beats every run of a
	} {
		if got := verdict(d, c.a, c.b); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
	higher := metricDef{Name: "execs_per_s", Better: "higher", Bound: 0.1}
	if got := verdict(higher, steady, scale(0.8)); got != "regressed" {
		t.Errorf("higher-is-better drop of 20%% = %s", got)
	}
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	sort.Sort(sort.Reverse(sort.Float64Slice(xs)))
	if got := spread(xs); got != 5.5/5.5 {
		t.Errorf("spread = %g, want 1", got)
	}
}
