// Package relation implements Pairwise Relation Weight Quantification
// (paper §III-B1, Figure 3): it upgrades the generalized configuration
// model into a relation-aware configuration model by probing the startup
// coverage of every value combination of every entity pair.
//
// Coverage is the relation oracle: synergistic configurations unlock
// additional initialization paths when enabled together, while conflicting
// configurations fail startup and yield zero coverage. Each pair's weight
// is taken from its peak value combination; pairs whose every combination
// yields zero coverage get no edge; all weights are normalized into [0, 1].
//
// Two weightings are provided. WeightInteraction (the default) scores a
// combination by its coverage *gain over the two values' individual
// contributions* — cov(a=x, b=y) − cov(a=x) − cov(b=y) + cov(defaults) —
// so an edge exists only where the pair genuinely interacts (a dependency
// like bridge/bridge-address, or a feature synergy). This keeps the
// relation graph sparse, which is what lets Algorithm 2 carve distinct
// cohesive groups; scoring by raw coverage (WeightRawCoverage, kept as an
// ablation) makes the graph near-complete — every feature-heavy pair ties
// at the top — and the grouping degenerates toward a single group.
//
// Quantification is probe-bound, so Quantify plans the whole probe matrix
// up front — baseline, standalone values, pair combinations — and boots
// every distinct assignment exactly once across a worker pool (standalone
// probes are reused by pair scoring; combinations that collapse onto the
// defaults reuse the baseline). Scoring then runs sequentially over the
// coverages in fixed pair order, so the Result is identical for any
// worker count.
package relation

import (
	"runtime"
	"sync"
	"sync/atomic"

	"cmfuzz/internal/core/configmodel"
	"cmfuzz/internal/core/graph"
	"cmfuzz/internal/telemetry"
	"cmfuzz/internal/telemetry/trace"
)

// A Probe runs one startup of the subject under the given configuration
// and returns the startup branch coverage. Startup failure (a conflicting
// configuration) must return 0. The probe must be a pure function of the
// assignment and safe for concurrent calls (each call boots its own
// throwaway instance).
type Probe func(cfg configmodel.Assignment) int

// Weighting selects how a pair's relation weight is derived from its
// combination coverages.
type Weighting int

// The weighting strategies.
const (
	// WeightInteraction scores combinations by pairwise coverage gain
	// (see package comment). The default.
	WeightInteraction Weighting = iota
	// WeightRawCoverage scores combinations by their absolute startup
	// coverage — the paper's literal formula, kept for the ablation.
	WeightRawCoverage
)

// PairValues records the best-scoring value combination found for a pair
// of entities; the scheduler uses it to seed each group's initial
// configuration.
type PairValues struct {
	A, B   string
	ValueA string
	ValueB string
	// Cover is the raw startup coverage of the best combination.
	Cover int
	// Gain is the interaction score of the best combination.
	Gain int
}

// SingleValue records the best-scoring standalone value of one entity.
type SingleValue struct {
	Value string
	Cover int
	// Gain is the coverage gain over the default assignment.
	Gain int
}

// Result is the relation-aware configuration model: the weighted relation
// graph plus per-pair best combinations, per-entity best standalone
// values, and probing statistics.
type Result struct {
	Graph *graph.Graph
	// Best maps canonical pair keys (PairKey) to the best combination.
	Best map[string]PairValues
	// BestSingle maps entity names to their best standalone value.
	BestSingle map[string]SingleValue
	// Baseline is the startup coverage of the default assignment.
	Baseline int
	// Probed holds the canonical renderings of the configurations whose
	// startups were actually executed, in planning order: the order a
	// one-worker pool boots them, which a caller filing what the probes
	// found follows to file it the same way at any worker count.
	// Duplicate assignments across the probe matrix (standalone probes
	// recurring inside pair matrices, combinations collapsing onto the
	// defaults) boot once, so len(Probed) is the number of distinct
	// configurations booted.
	Probed []string
	// ProbeRequests counts every probe the matrix asked for, duplicates
	// included; ProbeRequests − len(Probed) is the startup work the
	// deduplication saved.
	ProbeRequests int
	// DroppedValues counts typical values the MaxValues cap excluded
	// from probing, summed over entities. The cap always preserves an
	// entity's default and the boundary values "0"/"1" when present, so
	// a non-zero count here only drops mid-range candidates.
	DroppedValues int
}

// PairKey returns the canonical map key for an unordered entity pair.
func PairKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "\x00" + b
}

// Options tune quantification.
type Options struct {
	// MaxValues caps how many typical values per entity are probed
	// (0 means all). The paper explores all combinations; the cap exists
	// for very large Values sets. The entity default and the boundary
	// values "0" and "1" survive the cap; Result.DroppedValues counts
	// what it excluded.
	MaxValues int
	// Weighting selects the combination scoring (default
	// WeightInteraction).
	Weighting Weighting
	// Workers bounds the probe worker pool (0 means GOMAXPROCS). The
	// Result is identical for every worker count, including 1.
	Workers int
	// Telemetry, when non-nil, receives the probe matrix's duplicate
	// statistics (a probe_stats event and the probe counters).
	Telemetry *telemetry.Recorder
	// Trace, when non-nil, is the parent wall-clock span under which
	// quantification records its phases: a relation.quantify span with
	// probe.plan, probe.execute and probe.score children. Nil (the
	// default) records nothing and costs one pointer check.
	Trace *trace.Span
}

// Quantify builds the relation-aware configuration model for the given
// generalized model, using probeFn as the startup-coverage oracle. Every
// unordered pair of entities is probed across the cross product of their
// typical values on top of the model's default assignment; distinct
// assignments are probed once, concurrently across Options.Workers.
func Quantify(model *configmodel.Model, probeFn Probe, opts Options) *Result {
	res := &Result{
		Graph:      graph.New(),
		Best:       make(map[string]PairValues),
		BestSingle: make(map[string]SingleValue),
	}
	entities := model.Entities()
	defaults := model.Defaults()

	span := opts.Trace.Child("relation.quantify", trace.A("entities", len(entities)))
	defer span.End()
	plan := span.Child("probe.plan")

	// Plan the typical-value sets once per entity.
	vals := make([][]string, len(entities))
	for i, e := range entities {
		v, dropped := candidateValues(e, opts)
		vals[i] = v
		res.DroppedValues += dropped
	}

	// Plan the full probe matrix in scoring order: baseline, standalone
	// values, then pair combinations.
	var cfgs []configmodel.Assignment
	cfgs = append(cfgs, defaults)
	for i, e := range entities {
		for _, v := range vals[i] {
			cfg := defaults.Clone()
			cfg[e.Name] = v
			cfgs = append(cfgs, cfg)
		}
	}
	for i := 0; i < len(entities); i++ {
		for j := i + 1; j < len(entities); j++ {
			for _, x := range vals[i] {
				for _, y := range vals[j] {
					cfg := defaults.Clone()
					cfg[entities[i].Name] = x
					cfg[entities[j].Name] = y
					cfgs = append(cfgs, cfg)
				}
			}
		}
	}

	plan.Set("configs", len(cfgs))
	plan.End()

	// Execute the matrix across the worker pool, each assignment once.
	execSpan := span.Child("probe.execute", trace.A("configs", len(cfgs)))
	covs, probed := probeAll(cfgs, probeFn, opts, execSpan)
	res.Probed = probed
	res.ProbeRequests = len(cfgs)
	execSpan.Set("startups", len(probed))
	execSpan.End()
	score := span.Child("probe.score")
	defer score.End()

	// Merge sequentially, consuming coverages in planning order, so the
	// result is the same for any worker count.
	cursor := 0
	nextCov := func() int {
		cov := covs[cursor]
		cursor++
		return cov
	}
	res.Baseline = nextCov()

	// Standalone scoring: one coverage per (entity, value).
	singles := make(map[string]map[string]int, len(entities))
	for i, e := range entities {
		res.Graph.AddNode(e.Name)
		singles[e.Name] = make(map[string]int, len(vals[i]))
		best := SingleValue{Gain: -1 << 30}
		for _, v := range vals[i] {
			cov := nextCov()
			singles[e.Name][v] = cov
			if gain := cov - res.Baseline; cov > 0 && gain > best.Gain {
				best = SingleValue{Value: v, Cover: cov, Gain: gain}
			}
		}
		if best.Cover > 0 {
			res.BestSingle[e.Name] = best
		}
	}

	// Pairwise combination scoring, in fixed pair order.
	for i := 0; i < len(entities); i++ {
		for j := i + 1; j < len(entities); j++ {
			a, b := entities[i], entities[j]
			best, anyCover := scorePair(a, b, vals[i], vals[j], nextCov, singles, res.Baseline, opts)
			if !anyCover {
				// Zero coverage across all combinations: conflicting pair,
				// no edge (paper §III-B1).
				continue
			}
			var weight float64
			switch opts.Weighting {
			case WeightRawCoverage:
				weight = float64(best.Cover)
			default:
				if best.Gain <= 0 {
					continue // no interaction: no relation edge
				}
				weight = float64(best.Gain)
			}
			res.Graph.AddEdge(a.Name, b.Name, weight)
			res.Best[PairKey(a.Name, b.Name)] = best
		}
	}
	res.Graph.Normalize()
	score.Set("edges", res.Graph.EdgeCount())
	return res
}

// probeAll boots each distinct assignment of cfgs once, by its canonical
// rendering, across opts.Workers goroutines (0 means GOMAXPROCS), and
// returns the coverages in request order with the renderings booted, in
// planning order. A
// panic inside a probe (a seeded configuration-parsing defect escaping
// the probe's own capture) is re-raised on the caller, from the
// lowest-indexed failing assignment whatever the worker count.
func probeAll(cfgs []configmodel.Assignment, probeFn Probe, opts Options, parent *trace.Span) ([]int, []string) {
	var unique []configmodel.Assignment
	var keys []string
	slot := make([]int, len(cfgs))
	index := make(map[string]int, len(cfgs))
	for i, cfg := range cfgs {
		key := cfg.String()
		j, ok := index[key]
		if !ok {
			j = len(unique)
			index[key] = j
			unique = append(unique, cfg)
			keys = append(keys, key)
		}
		slot[i] = j
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(unique))
	pool := parent.Child("probe.pool",
		trace.A("pending", len(unique)), trace.A("workers", workers))
	covs := make([]int, len(unique))
	panics := make([]any, len(unique))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(unique); i = int(next.Add(1) - 1) {
				func() {
					defer func() { panics[i] = recover() }()
					covs[i] = probeFn(unique[i])
				}()
			}
		}()
	}
	wg.Wait()
	pool.End()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}

	out := make([]int, len(cfgs))
	for i, j := range slot {
		out[i] = covs[j]
	}
	hits := len(cfgs) - len(unique)
	opts.Telemetry.Emit(telemetry.Event{Type: telemetry.EvProbeStats, Instance: -1,
		Requests: len(cfgs), Startups: len(unique), Hits: hits})
	opts.Telemetry.Count(telemetry.CtrProbeStartups, len(unique))
	opts.Telemetry.Count(telemetry.CtrProbeCacheHits, hits)
	return out, keys
}

// scorePair folds the probed coverages of all value combinations of
// entities a and b into the best one (by the configured score) plus
// whether any combination achieved non-zero coverage.
func scorePair(a, b configmodel.Entity, va, vb []string, nextCov func() int, singles map[string]map[string]int, baseline int, opts Options) (PairValues, bool) {
	best := PairValues{A: a.Name, B: b.Name, Gain: -1 << 30, Cover: -1}
	anyCover := false
	for _, x := range va {
		for _, y := range vb {
			cov := nextCov()
			if cov > 0 {
				anyCover = true
			} else {
				continue
			}
			// Interaction: gain of the combination over the individual
			// contributions (inclusion–exclusion against the baseline).
			gain := cov - singles[a.Name][x] - singles[b.Name][y] + baseline
			better := false
			switch opts.Weighting {
			case WeightRawCoverage:
				better = cov > best.Cover
			default:
				better = gain > best.Gain || (gain == best.Gain && cov > best.Cover)
			}
			if better {
				best = PairValues{A: a.Name, B: b.Name, ValueA: x, ValueB: y, Cover: cov, Gain: gain}
			}
		}
	}
	return best, anyCover
}

// candidateValues derives the probed value set of one entity: its typical
// values, deduplicated, capped at Options.MaxValues. The cap keeps the
// entity's default and the boundary values "0"/"1" (the values Table II's
// boundary-condition bugs depend on) in preference to mid-range
// candidates; the second return value counts what was dropped.
func candidateValues(e configmodel.Entity, opts Options) ([]string, int) {
	if len(e.Values) == 0 {
		if e.Default != "" {
			return []string{e.Default}, 0
		}
		return []string{""}, 0
	}
	vals := dedupValues(e.Values)
	if opts.MaxValues <= 0 || len(vals) <= opts.MaxValues {
		return vals, 0
	}
	// Reserve slots for the must-keep values present in the set, then
	// fill the rest in original order, preserving relative order overall.
	must := make(map[string]bool, 3)
	reserved := 0
	for _, p := range []string{e.Default, "0", "1"} {
		if p == "" || must[p] || reserved >= opts.MaxValues {
			continue
		}
		for _, v := range vals {
			if v == p {
				must[p] = true
				reserved++
				break
			}
		}
	}
	out := make([]string, 0, opts.MaxValues)
	room := opts.MaxValues - reserved
	for _, v := range vals {
		switch {
		case must[v]:
			out = append(out, v)
		case room > 0:
			out = append(out, v)
			room--
		}
	}
	return out, len(vals) - len(out)
}

// dedupValues removes duplicate values, keeping first occurrences in
// order.
func dedupValues(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := make([]string, 0, len(in))
	for _, v := range in {
		if seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	return out
}
