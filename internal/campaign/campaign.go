// Package campaign is the evaluation harness: it runs repeated parallel
// fuzzing campaigns over the six subjects and regenerates every table and
// figure of the paper's evaluation section — Table I (branch coverage,
// improvement, speedup), Figure 4 (coverage-over-time curves) and
// Table II (previously-unknown bugs) — plus the design-choice ablations
// DESIGN.md calls out.
package campaign

import (
	"context"
	"flag"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/spec"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/telemetry"
	"cmfuzz/internal/telemetry/trace"
)

// Config scales an evaluation: one template campaign, run by every
// fuzzer over Repetitions seeds. The paper's full setting is 24 virtual
// hours × 5 repetitions × 4 instances; tests and quick benches shrink it.
// Its JSON form — the template and the repetition count — is the
// "config" block of cmbench -json.
type Config struct {
	// Spec is the template every campaign of the evaluation is cut from:
	// hours, instances and whatever else all of them share. The runner
	// fills in Subject and Mode, and reads Seed as the base seed —
	// repetition r runs Seed+r+1.
	Spec spec.Campaign `json:"spec"`
	// Repetitions averages this many seeds (default 5, as in §IV).
	Repetitions int `json:"repetitions"`
	// Concurrency bounds how many campaigns of a batch run at once and
	// is passed through to each campaign's relation-probe pool (0 means
	// GOMAXPROCS). Every campaign is deterministic per seed and results
	// come back in batch order, so the outcome is identical for any
	// concurrency level.
	Concurrency int `json:"-"`
	// Telemetry collects the structured event streams of every campaign
	// in the run. Each campaign records into its own labeled child
	// recorder (Recorder.Child), which publishes on this recorder's live
	// board under its label; the children are merged in batch order
	// after the batch completes, so the merged export is deterministic
	// for any Concurrency. Nil disables collection at zero cost.
	Telemetry *telemetry.Recorder `json:"-"`
	// Trace, when non-nil, is the parent wall-clock span: each batch
	// records one span with a repetition child per campaign, each
	// carrying that campaign's instance spans.
	Trace *trace.Span `json:"-"`
}

// Bind registers the evaluation's flags on fs: the campaign flags (the
// template), -reps and -j. reps and subject are the two defaults that
// differ between `cmfuzz campaign` and `cmbench`. -seed keeps its name
// but reads as the base seed of the matrix, so its default and help are
// restated; -mode is accepted and unused, the matrix runs every fuzzer.
func (c *Config) Bind(fs *flag.FlagSet, reps int, subject string) {
	c.Spec.Bind(fs)
	fs.IntVar(&c.Repetitions, "reps", reps, "repetitions per fuzzer (paper: 5)")
	fs.IntVar(&c.Concurrency, "j", 0, "concurrent campaigns and probe workers (0 = GOMAXPROCS); output is identical for any value")
	redefault := func(name, value, usage string) {
		f := fs.Lookup(name)
		f.DefValue, f.Usage = value, usage
		f.Value.Set(value) // a value the flag's own type printed: cannot fail
	}
	redefault("seed", "0", "base seed (repetition r runs seed+r+1)")
	redefault("subject", subject, "subject protocol or implementation name")
}

// Reps is the repetition count a run uses: 5 for zero, an error below.
func (c Config) Reps() (int, error) {
	switch {
	case c.Repetitions < 0:
		return 0, fmt.Errorf("campaign: repetitions %d must not be negative", c.Repetitions)
	case c.Repetitions == 0:
		return 5, nil
	}
	return c.Repetitions, nil
}

// A job is one campaign of a batch: the template with its variant
// fields, mode and repetition seed filled in, and its planner.
type job struct {
	spec spec.Campaign
	plan parallel.Planner
	// label names the run on the live board and stamps its events;
	// unique within the batch.
	label string
	rep   int
}

// paper is the planner every campaign but an ablation variant runs.
var paper parallel.Planner = (*parallel.Host).Plan

// cell cuts repetition rep of one variant, planned by plan, from the
// template.
func (c Config) cell(v spec.Campaign, plan parallel.Planner, label string, rep int) job {
	v.Seed = c.Spec.Seed + int64(rep) + 1
	return job{spec: v, plan: plan, label: fmt.Sprintf("%s/rep%d", label, rep), rep: rep}
}

// runBatch executes jobs on sub, at most Config.Concurrency at a time,
// and returns their results in job order. It is the evaluation's only
// runner: the fuzzer × repetition matrix and the ablation variants are
// both batches. Every spec is validated before the first campaign
// starts. With telemetry on, each campaign's event stream ends with a
// campaign-level marker carrying the outcome.
func runBatch(ctx context.Context, sub subject.Subject, cfg Config, span *trace.Span, jobs []job) ([]*parallel.Result, error) {
	opts := make([]parallel.Options, len(jobs))
	for i, j := range jobs {
		o, err := j.spec.Options()
		if err != nil {
			return nil, fmt.Errorf("campaign: %s: %w", j.label, err)
		}
		o.Concurrency = cfg.Concurrency
		// Concurrent campaigns each record into their own labeled child
		// recorder; the children are merged below in job order so the
		// export is deterministic.
		o.Telemetry = cfg.Telemetry.Child(j.label)
		opts[i] = o
	}
	workers := cfg.Concurrency
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]*parallel.Result, len(jobs))
	errs := make([]error, len(jobs))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			o := opts[i]
			o.Trace = span.Child("repetition", trace.A("mode", o.Mode.String()), trace.A("rep", jobs[i].rep))
			defer o.Trace.End()
			res, err := parallel.RunPlanned(ctx, sub, o, jobs[i].plan)
			if err == nil {
				o.Telemetry.Emit(telemetry.Event{
					T: o.Horizon(), Type: telemetry.EvCampaign, Instance: -1,
					Edges: res.FinalBranches,
					Detail: fmt.Sprintf("%s on %s seed %d: %d branches, %d execs, %d unique bugs",
						o.Mode, sub.Info().Implementation, o.Seed, res.FinalBranches, res.TotalExecs, res.Bugs.Len()),
				})
			}
			results[i], errs[i] = res, err
		}(i)
	}
	wg.Wait()
	for i, j := range jobs {
		cfg.Telemetry.Merge(opts[i].Telemetry)
		if errs[i] != nil {
			return nil, fmt.Errorf("campaign: %s %s: %w", sub.Info().Protocol, j.label, errs[i])
		}
	}
	return results, nil
}

// FuzzerStats aggregates one fuzzer's repetitions on one subject.
type FuzzerStats struct {
	Mode parallel.Mode
	// Branches is the mean final branch count across repetitions.
	Branches int
	// Series holds one coverage series per repetition.
	Series []*coverage.Series
	// Bugs is the union of unique bugs across repetitions.
	Bugs *bugs.Ledger
}

// SubjectResult aggregates all three fuzzers on one subject.
type SubjectResult struct {
	Subject subject.Info
	CMFuzz  FuzzerStats
	Peach   FuzzerStats
	SPFuzz  FuzzerStats
	Hours   float64
}

// RunSubject runs the three fuzzers × repetitions on one subject as one
// batch and folds the results in fixed (fuzzer, repetition) order.
func RunSubject(ctx context.Context, sub subject.Subject, cfg Config) (*SubjectResult, error) {
	reps, err := cfg.Reps()
	if err != nil {
		return nil, err
	}
	res := &SubjectResult{Subject: sub.Info(), Hours: cfg.Spec.Hours}
	modes := []parallel.Mode{parallel.ModeCMFuzz, parallel.ModePeach, parallel.ModeSPFuzz}
	var jobs []job
	for _, mode := range modes {
		v := cfg.Spec
		v.Subject, v.Mode = res.Subject.Protocol, mode.String()
		for rep := 0; rep < reps; rep++ {
			jobs = append(jobs, cfg.cell(v, paper, v.Mode, rep))
		}
	}
	span := cfg.Trace.Child("campaign",
		trace.A("subject", res.Subject.Protocol), trace.A("repetitions", reps))
	defer span.End()
	results, err := runBatch(ctx, sub, cfg, span, jobs)
	if err != nil {
		return nil, err
	}
	for mi, mode := range modes {
		stats := FuzzerStats{Mode: mode, Bugs: bugs.NewLedger()}
		sumBranches := 0
		for _, r := range results[mi*reps : (mi+1)*reps] {
			sumBranches += r.FinalBranches
			stats.Series = append(stats.Series, r.Series)
			stats.Bugs.Merge(r.Bugs)
		}
		stats.Branches = sumBranches / reps
		switch mode {
		case parallel.ModeCMFuzz:
			res.CMFuzz = stats
		case parallel.ModePeach:
			res.Peach = stats
		default:
			res.SPFuzz = stats
		}
	}
	return res, nil
}

// Evaluate runs the (subject × fuzzer × repetition) matrix, each
// campaign once. Table1, Figure4 and Table2 are views of what it
// returns.
func Evaluate(ctx context.Context, subs []subject.Subject, cfg Config) ([]*SubjectResult, error) {
	results := make([]*SubjectResult, 0, len(subs))
	for _, sub := range subs {
		r, err := RunSubject(ctx, sub, cfg)
		if err != nil {
			return nil, err
		}
		results = append(results, r)
	}
	return results, nil
}

// meanTimeToReach averages, across repetitions, the earliest virtual time
// each series reached count (series that never reach it contribute the
// horizon).
func meanTimeToReach(series []*coverage.Series, count int, horizon float64) float64 {
	if len(series) == 0 {
		return horizon
	}
	sum := 0.0
	for _, s := range series {
		t, ok := s.TimeToReach(count)
		if !ok {
			t = horizon
		}
		sum += t
	}
	return sum / float64(len(series))
}

// Speedup computes the paper's Table I metric: the baseline fuzzer's time
// to reach its final coverage divided by the time CMFuzz requires to
// reach that same coverage.
func (r *SubjectResult) Speedup(baseline FuzzerStats) float64 {
	horizon := r.Hours * 3600
	target := baseline.Branches
	tBase := meanTimeToReach(baseline.Series, target, horizon)
	tCM := meanTimeToReach(r.CMFuzz.Series, target, horizon)
	if tCM <= 0 {
		tCM = 1 // CMFuzz's startup configs already exceed the target
	}
	return tBase / tCM
}

// Improv computes CMFuzz's branch-coverage improvement over the baseline
// in percent.
func (r *SubjectResult) Improv(baseline FuzzerStats) float64 {
	if baseline.Branches == 0 {
		return 0
	}
	return 100 * (float64(r.CMFuzz.Branches)/float64(baseline.Branches) - 1)
}

// Table1Row is one line of Table I.
type Table1Row struct {
	Subject       string
	CMFuzz        int
	Peach         int
	ImprovPeach   float64
	SpeedupPeach  float64
	SPFuzz        int
	ImprovSPFuzz  float64
	SpeedupSPFuzz float64
}

// Table1 tabulates the evaluation as Table I, one row per subject.
func Table1(results []*SubjectResult) []Table1Row {
	var rows []Table1Row
	for _, r := range results {
		rows = append(rows, Table1Row{
			Subject:       r.Subject.Implementation,
			CMFuzz:        r.CMFuzz.Branches,
			Peach:         r.Peach.Branches,
			ImprovPeach:   r.Improv(r.Peach),
			SpeedupPeach:  r.Speedup(r.Peach),
			SPFuzz:        r.SPFuzz.Branches,
			ImprovSPFuzz:  r.Improv(r.SPFuzz),
			SpeedupSPFuzz: r.Speedup(r.SPFuzz),
		})
	}
	return rows
}

// RenderTable1 formats Table I the way the paper prints it.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %8s %8s %9s %8s %8s %9s\n",
		"Subject", "CMFuzz", "Peach", "Improv", "Speedup", "SPFuzz", "Improv", "Speedup")
	sumIP, sumSP, sumIS, sumSS := 0.0, 0.0, 0.0, 0.0
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %8d %8d %+7.1f%% %8.0fx %8d %+7.1f%% %8.0fx\n",
			r.Subject, r.CMFuzz, r.Peach, r.ImprovPeach, r.SpeedupPeach,
			r.SPFuzz, r.ImprovSPFuzz, r.SpeedupSPFuzz)
		sumIP += r.ImprovPeach
		sumSP += r.SpeedupPeach
		sumIS += r.ImprovSPFuzz
		sumSS += r.SpeedupSPFuzz
	}
	if n := float64(len(rows)); n > 0 {
		fmt.Fprintf(&b, "%-12s %8s %8s %+7.1f%% %8.0fx %8s %+7.1f%% %8.0fx\n",
			"AVERAGE", "", "", sumIP/n, sumSP/n, "", sumIS/n, sumSS/n)
	}
	return b.String()
}

// Figure4Series is one subject's averaged coverage-over-time curves.
type Figure4Series struct {
	Subject string
	Hours   float64
	// Points maps fuzzer name to its mean curve.
	Points map[string][]coverage.Point
}

// Figure4 averages one subject's coverage curves into a Figure 4 panel.
func Figure4(r *SubjectResult, samples int) *Figure4Series {
	horizon := r.Hours * 3600
	return &Figure4Series{
		Subject: r.Subject.Implementation,
		Hours:   r.Hours,
		Points: map[string][]coverage.Point{
			"CMFuzz": coverage.MeanOf(r.CMFuzz.Series, horizon, samples),
			"Peach":  coverage.MeanOf(r.Peach.Series, horizon, samples),
			"SPFuzz": coverage.MeanOf(r.SPFuzz.Series, horizon, samples),
		},
	}
}

// RenderFigure4 draws an ASCII version of one Figure 4 panel.
func RenderFigure4(f *Figure4Series, width, height int) string {
	maxCount := 1
	for _, pts := range f.Points {
		for _, p := range pts {
			if p.Count > maxCount {
				maxCount = p.Count
			}
		}
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	marks := map[string]byte{"CMFuzz": 'C', "Peach": 'P', "SPFuzz": 'S'}
	// Draw Peach and SPFuzz first so CMFuzz overwrites at overlaps.
	for _, name := range []string{"Peach", "SPFuzz", "CMFuzz"} {
		pts := f.Points[name]
		for i, p := range pts {
			x := i * (width - 1) / max(1, len(pts)-1)
			y := height - 1 - p.Count*(height-1)/maxCount
			if x >= 0 && x < width && y >= 0 && y < height {
				grid[y][x] = marks[name]
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — branches over %g virtual hours (max %d)\n", f.Subject, f.Hours, maxCount)
	for i, row := range grid {
		label := ""
		if i == 0 {
			label = fmt.Sprintf("%6d", maxCount)
		} else if i == height-1 {
			label = fmt.Sprintf("%6d", 0)
		} else {
			label = strings.Repeat(" ", 6)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(row))
	}
	fmt.Fprintf(&b, "       +%s\n", strings.Repeat("-", width))
	fmt.Fprintf(&b, "        0h%sC=CMFuzz P=Peach S=SPFuzz%s%gh\n",
		strings.Repeat(" ", max(1, (width-30)/2)), strings.Repeat(" ", max(1, (width-32)/2)), f.Hours)
	return b.String()
}

// Table2Row is one line of the Table II reproduction: a known seeded bug
// and whether the campaign rediscovered it (and by which fuzzer).
type Table2Row struct {
	Known   bugs.Known
	FoundBy []string
	TimeSec float64 // earliest CMFuzz discovery time, if found
}

// Table2 reports each Table II row: which fuzzers of the evaluation
// rediscovered the bug (the baselines, to confirm they miss the
// configuration-gated defects) and when CMFuzz first did.
func Table2(results []*SubjectResult) []Table2Row {
	found := map[string]map[string]float64{} // crash id -> fuzzer -> time
	for _, r := range results {
		for _, st := range []FuzzerStats{r.CMFuzz, r.Peach, r.SPFuzz} {
			for _, rep := range st.Bugs.Unique() {
				id := rep.Crash.ID()
				if found[id] == nil {
					found[id] = map[string]float64{}
				}
				if t, ok := found[id][st.Mode.String()]; !ok || rep.Time < t {
					found[id][st.Mode.String()] = rep.Time
				}
			}
		}
	}
	var rows []Table2Row
	for _, k := range bugs.Table2 {
		id := k.Protocol + "/" + k.Kind.String() + "/" + k.Function
		row := Table2Row{Known: k}
		if byFuzzer, ok := found[id]; ok {
			names := make([]string, 0, len(byFuzzer))
			for name := range byFuzzer {
				names = append(names, name)
			}
			sort.Strings(names)
			row.FoundBy = names
			if t, ok := byFuzzer["CMFuzz"]; ok {
				row.TimeSec = t
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderTable2 formats the Table II reproduction.
func RenderTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-9s %-24s %-38s %-18s %s\n",
		"No.", "Protocol", "Vulnerability Type", "Affected Function", "Found By", "CMFuzz t")
	foundCM := 0
	for _, r := range rows {
		foundBy := "-"
		if len(r.FoundBy) > 0 {
			foundBy = strings.Join(r.FoundBy, ",")
		}
		tstr := "-"
		for _, f := range r.FoundBy {
			if f == "CMFuzz" {
				foundCM++
				tstr = fmt.Sprintf("%.1fh", r.TimeSec/3600)
				break
			}
		}
		fmt.Fprintf(&b, "%-4d %-9s %-24s %-38s %-18s %s\n",
			r.Known.No, r.Known.Protocol, r.Known.Kind, r.Known.Function, foundBy, tstr)
	}
	fmt.Fprintf(&b, "CMFuzz rediscovered %d/%d previously-unknown bugs\n", foundCM, len(rows))
	return b.String()
}
