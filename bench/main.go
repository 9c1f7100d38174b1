// Command bench is this repository's benchmark: four workloads over the
// whole stack, five end-to-end metrics plus a failure count, and a
// per-layer ladder timed from outside through each module's exported
// functions. BENCHMARK.json at the repository root names the command,
// the workloads, the metrics and their bounds; README.md in this
// directory says why each was chosen.
//
//	go run ./bench -workload inproc_cmfuzz            # 3 timed repetitions
//	go run ./bench -workload fleet_drain -trace 1     # the per-layer pass
//	go run ./bench -all -runs 10 -out a.jsonl         # every workload, own process each
//	go run ./bench -compare a.jsonl b.jsonl
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"cmfuzz/internal/fleet"
)

// processStart is as close to process start as Go code gets; setup_s
// counts from here.
var processStart = time.Now()

type runConfig struct {
	workload     string
	seed         int64
	fuzzSeed     int64
	seconds      float64
	trace        bool
	updateGolden bool
	root         string // repository root: BENCHMARK.json, bench/golden.json
	outDir       string // scratch trees and trace files; bench/out unless the test moves it
	start        time.Time

	// Sizes the test shrinks; zero means the default.
	hours       float64
	tracedReps  int
	ladderSteps int
	queueDepth  int
}

func main() {
	var cfg runConfig
	var traceFlag int
	var all bool
	var runs int
	var out, compare string
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the order the batch runs (and is submitted) in")
	flag.Int64Var(&cfg.fuzzSeed, "fuzz-seed", 0, "campaign i fuzzes with this seed + i (0: the workload's own, which golden.json pins)")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "keep repeating past the third repetition until this much time has been measured")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the per-layer pass (one traced repetition between two untraced) instead")
	flag.BoolVar(&cfg.updateGolden, "update-golden", false, "rewrite this workload's entry in bench/golden.json from a clean run")
	flag.BoolVar(&all, "all", false, "run every workload -runs times (seeds -seed, -seed+1, ...) and once traced, each in its own process")
	flag.IntVar(&runs, "runs", 1, "runs per workload under -all")
	flag.StringVar(&out, "out", "", "append each run's full record to this JSON-lines file (default bench/out/results.jsonl)")
	flag.StringVar(&compare, "compare", "", "compare two result files: -compare a.jsonl b.jsonl")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	cfg.root, cfg.outDir, cfg.start = root, filepath.Join(root, "bench", "out"), processStart
	if out == "" {
		out = filepath.Join(cfg.outDir, "results.jsonl")
	}
	switch {
	case compare != "":
		if flag.NArg() != 1 {
			fatal(errors.New("usage: -compare a.jsonl b.jsonl"))
		}
		regressed, err := compareFiles(root, compare, flag.Arg(0), os.Stdout)
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case all:
		if err := runAll(cfg, runs, out); err != nil {
			fatal(err)
		}
	default:
		cfg.trace = traceFlag != 0
		rec, err := runWorkload(cfg)
		if err != nil {
			fatal(err)
		}
		if err := appendRecord(out, rec); err != nil {
			fatal(err)
		}
		rec.print(os.Stdout)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// findRoot walks up from the working directory to the one that holds
// BENCHMARK.json, so the command works from the root and from bench/.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found above the working directory")
		}
		dir = parent
	}
}

// runAll runs every workload in a process of its own, as the driver does.
func runAll(cfg runConfig, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range workloads {
		for r := 0; r <= runs; r++ {
			args := []string{"-workload", w.name, "-out", out,
				"-seed", fmt.Sprint(cfg.seed + int64(r)), "-fuzz-seed", fmt.Sprint(cfg.fuzzSeed),
				"-seconds", fmt.Sprint(cfg.seconds)}
			if r == runs {
				args = append(args, "-trace", "1") // the traced pass comes last
			}
			cmd := exec.Command(self, args...)
			cmd.Dir, cmd.Stderr = cfg.root, os.Stderr
			raw, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s %s: %w", self, strings.Join(args, " "), err)
			}
			lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
			fmt.Printf("%s %s\n", strings.Join(args[:6], " "), lines[len(lines)-1])
		}
	}
	return nil
}

// runWorkload is one process's work: warm-up, set-up, then either the
// timed repetitions or the per-layer pass.
func runWorkload(cfg runConfig) (*record, error) {
	w := workloadByName(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	defs, err := loadDefs(cfg.root)
	if err != nil {
		return nil, err
	}
	hours := w.hours
	if cfg.hours > 0 {
		hours = cfg.hours
	}
	if cfg.fuzzSeed == 0 {
		cfg.fuzzSeed = w.fuzzSeed
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	workDir, err := os.MkdirTemp(cfg.outDir, w.name+"-*")
	if err != nil {
		return nil, err
	}
	e := &env{
		ctx: context.Background(), w: w, hours: hours, workDir: workDir, tracing: cfg.trace,
		loopbackWorkers: loopbackWorkers,
		campaigns:       campaigns(w, hours, cfg.seed, cfg.fuzzSeed),
	}
	defer e.close()

	golden, err := loadGolden(cfg.root)
	if err != nil {
		return nil, err
	}
	pinned := map[string]string{}
	if g, ok := golden[w.name]; ok && cfg.fuzzSeed == w.fuzzSeed && g.Hours == hours && !cfg.updateGolden {
		pinned = g.Digests
	}

	// Set-up runs setupReps times and reports the median, so one slow page
	// fault does not read as work moved into set-up. The first counts from
	// process start. The per-layer pass does not report it and sets up once.
	var setups []float64
	for i := 0; i < setupReps && (i == 0 || !cfg.trace); i++ {
		begin := time.Now()
		if i == 0 {
			begin = cfg.start
		} else if err := e.tearDown(); err != nil {
			return nil, err
		}
		if err := e.setUp(pinned); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(begin).Seconds())
	}

	rec := &record{
		Header:   newHeader(cfg, e),
		Workload: w.name,
		Trace:    cfg.trace,
		Metrics:  map[string]metricValue{},
		Reps:     map[string][]float64{},
		Digests:  map[string]string{},
	}
	vhours := hours * float64(len(e.campaigns))
	rep := func(k int, tp *tracePass) (wall, cpu float64, out repOutcome) {
		dir := filepath.Join(workDir, fmt.Sprintf("rep%d", k))
		// Every repetition starts from a collected heap, so none pays for
		// the garbage of the one before it.
		runtime.GC()
		wall, cpu, _ = measure(func() error { out = w.rep(e, dir, tp); return nil })
		out.digest()
		rec.gate(e, k, out)
		if tp == nil { // the per-layer pass reads a traced repetition's tree afterwards
			os.RemoveAll(dir)
		}
		return wall, cpu, out
	}

	// Repetition 0 is not timed: it grows the heap to its working size,
	// which costs the first repetition of a process a sixth more wall than
	// the ones after it. It is gated like the rest.
	rep(0, nil)

	if !cfg.trace {
		timed := time.Now()
		for k := 1; k <= timedReps || time.Since(timed).Seconds() < cfg.seconds; k++ {
			wall, cpu, out := rep(k, nil)
			rec.Reps["wall_s_per_vhour"] = append(rec.Reps["wall_s_per_vhour"], wall/vhours)
			rec.Reps["execs_per_s"] = append(rec.Reps["execs_per_s"], float64(out.execs)/wall)
			rec.Reps["cpu_s_per_vhour"] = append(rec.Reps["cpu_s_per_vhour"], cpu/vhours)
			rec.Execs, rec.Bytes = out.execs, out.bytes
		}
		rec.Header.Repetitions = len(rec.Reps["wall_s_per_vhour"])
		rec.Reps["setup_s"] = setups
		values := map[string]float64{"peak_rss_mb": peakRSSMB()}
		for name, reps := range rec.Reps {
			values[name] = median(reps)
		}
		if err := rec.setMetrics(defs.EndToEnd, values); err != nil {
			return nil, err
		}
	} else {
		values, err := perLayerPass(cfg, e, rec, rep, vhours)
		if err != nil {
			return nil, err
		}
		if err := rec.setMetrics(defs.PerLayer, values); err != nil {
			return nil, err
		}
	}
	rec.Correct = rec.Failed == 0
	rec.FailedShare = float64(rec.Failed) / float64(rec.Attempted)

	if cfg.updateGolden {
		if rec.Failed > 0 || cfg.fuzzSeed != w.fuzzSeed || hours != w.hours {
			return nil, fmt.Errorf("-update-golden needs a clean run at the workload's own fuzz seed (failed %d)", rec.Failed)
		}
		golden[w.name] = goldenEntry{Hours: hours, Digests: rec.Digests}
		if err := writeGolden(cfg.root, golden); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// perLayerPass is the -trace 1 process: untraced and traced repetitions
// in turn, the first traced one reduced to per-layer metrics, then the
// probes that would disturb a timed repetition if run inside it.
func perLayerPass(cfg runConfig, e *env, rec *record, rep func(int, *tracePass) (float64, float64, repOutcome), vhours float64) (map[string]float64, error) {
	// Untraced and traced repetitions in turn, untraced first and last: the
	// overhead ratio sets each traced repetition against the mean of the
	// untraced ones either side of it, so that the host's drift across the
	// process's life cancels, and reports the median of those ratios.
	var tp *tracePass
	var ms0, ms1 runtime.MemStats
	var wire0, wire1 wireSnapshot
	var untraced, untracedCPU, traced []float64
	nTraced := tracedReps
	if cfg.tracedReps > 0 {
		nTraced = cfg.tracedReps
	}
	rec.Header.Repetitions = 2*nTraced + 1
	for k := 1; k <= rec.Header.Repetitions; k++ {
		switch {
		case k%2 == 1:
			wall, cpu, _ := rep(k, nil)
			untraced, untracedCPU = append(untraced, wall), append(untracedCPU, cpu)
		case tp == nil:
			tp = newTracePass(e.w.name)
			runtime.ReadMemStats(&ms0)
			wire0 = e.wire.snapshot()
			wall, _, out := rep(k, tp)
			wire1 = e.wire.snapshot()
			runtime.ReadMemStats(&ms1)
			tp.root.End()
			traced = append(traced, wall)
			rec.Execs, rec.Bytes = out.execs, out.bytes
		default:
			wall, _, _ := rep(k, newTracePass(e.w.name))
			traced = append(traced, wall)
		}
	}

	var twoWorkers []float64
	if e.w.name == "dist_loopback" {
		e.loopbackWorkers = 2
		for i := 0; i < nTraced; i++ {
			rec.Header.Repetitions++
			wall, _, _ := rep(rec.Header.Repetitions, nil)
			twoWorkers = append(twoWorkers, wall)
		}
		e.loopbackWorkers = loopbackWorkers
	}

	values, ledgers := tp.reduce(e.w)
	rec.Campaigns = ledgers
	rec.Reps["untraced_wall_s"], rec.Reps["traced_wall_s"] = untraced, traced
	var overheads []float64
	for i, t := range traced {
		overheads = append(overheads, t/((untraced[i]+untraced[i+1])/2)-1)
	}
	rec.Reps["bench.trace_overhead_ratio"] = overheads
	values["bench.trace_overhead_ratio"] = median(overheads)
	if len(twoWorkers) > 0 {
		rec.Reps["two_worker_wall_s"] = twoWorkers
		values["dist.two_worker_wall_ratio"] = median(twoWorkers) / median(untraced)
	}
	values["campaign.artifact_bytes"] = float64(rec.Bytes)
	values["runtime.alloc_mb_per_vhour"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / vhours
	values["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	// The fleet's connections belong to the pool, not to a campaign.
	values["dist.wire_bytes"] += float64(wire1.bytes - wire0.bytes)
	values["dist.frames"] += float64(wire1.frames - wire0.frames)
	values["dist.worker_busy_s"] += float64(wire1.workerBusyNs-wire0.workerBusyNs) / 1e9

	steps := cfg.ladderSteps
	if steps == 0 {
		steps = 20000
	}
	extra, err := ladderProbe(steps)
	if err != nil {
		return nil, err
	}
	maps.Copy(values, extra)
	if e.w.usesDist() {
		values["dist.cpu_overhead_ratio"] = median(untracedCPU) / e.referenceCPU
		if extra, err = checkpointRung(e); err != nil {
			return nil, err
		}
		maps.Copy(values, extra)
	}
	if e.pool != nil {
		// Reopen the first traced repetition's drained state directory, as a
		// restarted serve process would.
		begin := time.Now()
		if _, err := fleet.NewManager(fleet.Config{StateDir: filepath.Join(e.workDir, "rep2")}, e.pool, e.resolve); err != nil {
			return nil, err
		}
		values["fleet.recovery_scan_ms"] = time.Since(begin).Seconds() * 1e3
		depth := cfg.queueDepth
		if depth == 0 {
			depth = 1000
		}
		if extra, err = queueDepthProbe(e, depth, 20); err != nil {
			return nil, err
		}
		maps.Copy(values, extra)
	}

	path := filepath.Join(cfg.outDir, e.w.name+".trace.json")
	raw, err := json.Marshal(struct {
		Header header       `json:"header"`
		Spans  []spanRecord `json:"spans"`
	}{rec.Header, tp.export()})
	if err != nil {
		return nil, err
	}
	return values, os.WriteFile(path, raw, 0o644)
}

// gate counts repetition k's campaigns into attempted and failed. A
// campaign fails when it errored or did not finish, or when its artifact
// tree does not digest to every value it must equal: the golden file, the
// in-process reference run, and the first repetition.
func (rec *record) gate(e *env, k int, out repOutcome) {
	for _, c := range e.campaigns {
		rec.Attempted++
		got, ok := out.digests[c.id]
		if !ok {
			rec.fail(k, c.id, out.errs[c.id])
			continue
		}
		good := true
		for _, w := range e.wants[c.id] {
			if got != w.digest {
				rec.fail(k, c.id, fmt.Sprintf("digest %.12s differs from %s %.12s", got, w.source, w.digest))
				good = false
				break
			}
		}
		if good && k == 1 {
			e.wants[c.id] = append(e.wants[c.id], want{"repetition 1", got})
			rec.Digests[c.id] = got
		}
	}
}

func (rec *record) fail(k int, id, why string) {
	rec.Failed++
	rec.Failures = append(rec.Failures, fmt.Sprintf("repetition %d, %s: %s", k, id, why))
}

// A record is one run's full result: what the last output line carries,
// plus provenance, every per-repetition value beside its median, and the
// simulated statistics that must repeat exactly.
type record struct {
	Header      header                    `json:"header"`
	Workload    string                    `json:"workload"`
	Trace       bool                      `json:"trace"`
	Correct     bool                      `json:"correct"`
	Attempted   int                       `json:"attempted"`
	Failed      int                       `json:"failed"`
	FailedShare float64                   `json:"failed_share"`
	Failures    []string                  `json:"failures,omitempty"`
	Metrics     map[string]metricValue    `json:"metrics"`
	Reps        map[string][]float64      `json:"reps"`
	Execs       int                       `json:"execs_per_rep"`
	Bytes       int64                     `json:"artifact_bytes_per_rep"`
	Digests     map[string]string         `json:"digests"`
	Campaigns   map[string]campaignLedger `json:"campaigns,omitempty"`

	// computed is what the pass worked out, before BENCHMARK.json's list
	// filled the layers that do not run with zeros; the test reads it.
	computed map[string]float64
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setMetrics reports exactly the metrics BENCHMARK.json lists for this
// pass, with its units; a layer that does not run on the workload reads 0.
func (rec *record) setMetrics(defs []metricDef, values map[string]float64) error {
	for _, d := range defs {
		rec.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	for name := range values {
		if _, listed := rec.Metrics[name]; !listed {
			return fmt.Errorf("metric %q is computed but BENCHMARK.json does not list it", name)
		}
	}
	rec.computed = values
	return nil
}

// print writes the human-readable ledger and, as the last line, the one
// JSON object the driver reads.
func (rec *record) print(w io.Writer) {
	h := rec.Header
	fmt.Fprintf(w, "workload %s  seed %d  fuzz-seed %d  %d campaigns x %g vh  repetitions %d  trace %v\n",
		rec.Workload, h.Seed, h.FuzzSeed, len(h.Order), h.HoursPerCampaign, h.Repetitions, rec.Trace)
	fmt.Fprintf(w, "commit %s  %s %s/%s  %s  nproc %d  GOMAXPROCS %d\n",
		h.Commit, h.GoVersion, h.GOOS, h.GOARCH, h.CPUModel, h.NumCPU, h.GOMAXPROCS)
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mv := rec.Metrics[name]
		fmt.Fprintf(w, "%-36s %14.6g %-8s", name, mv.Value, mv.Unit)
		if reps := rec.Reps[name]; len(reps) > 0 {
			fmt.Fprintf(w, " reps %.6g", reps)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "failed_share %g (%d of %d campaigns)  execs per repetition %d\n",
		rec.FailedShare, rec.Failed, rec.Attempted, rec.Execs)
	for _, f := range rec.Failures {
		fmt.Fprintln(w, "FAILED", f)
	}
	last, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	fmt.Fprintln(w, string(last))
}

func appendRecord(path string, rec *record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// header is the provenance every output file carries.
type header struct {
	Time             string   `json:"time"`
	Commit           string   `json:"commit"`
	GoVersion        string   `json:"go_version"`
	GOOS             string   `json:"goos"`
	GOARCH           string   `json:"goarch"`
	CPUModel         string   `json:"cpu_model"`
	NumCPU           int      `json:"nproc"`
	GOMAXPROCS       int      `json:"gomaxprocs"`
	Seed             int64    `json:"seed"`
	FuzzSeed         int64    `json:"fuzz_seed"`
	Repetitions      int      `json:"repetitions"`
	HoursPerCampaign float64  `json:"hours_per_campaign"`
	VHoursPerRep     float64  `json:"vhours_per_repetition"`
	Order            []string `json:"campaign_order"`
}

func newHeader(cfg runConfig, e *env) header {
	h := header{
		Time:      time.Now().UTC().Format(time.RFC3339),
		Commit:    "unknown",
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPUModel: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: cfg.seed, FuzzSeed: cfg.fuzzSeed,
		HoursPerCampaign: e.hours, VHoursPerRep: e.hours * float64(len(e.campaigns)),
	}
	for _, c := range e.campaigns {
		h.Order = append(h.Order, c.id)
	}
	// The driver's checkout is not a git repository; the commit is then unknown.
	if raw, err := exec.Command("git", "-C", cfg.root, "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(raw))
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return h
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is VmHWM, the process's peak resident set, in MB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb)
			return kb / 1024
		}
	}
	return 0
}
