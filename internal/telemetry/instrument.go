package telemetry

import (
	"strconv"
	"sync"
	"time"

	"cmfuzz/internal/telemetry/metrics"
)

// Instrument registers the recorder's metric families on reg:
//
//	cmfuzz_<counter>_total                     one per counter name above
//	cmfuzz_probe_cache_hit_ratio               probe requests folded into another's startup
//	cmfuzz_events_recorded                     events held by the recorder
//	cmfuzz_runs_running                        board runs not yet done
//	cmfuzz_run_*{run=...}                      each board run's clock, coverage, execs, crashes
//	cmfuzz_instance_*{run=...,instance=...}    each instance's, plus mutations and seed-queue depth
//	cmfuzz_execs_per_second                    execs across the board's runs, between scrapes
//
// Every value is read at scrape time, so the campaign's hot path is
// never touched; the throughput gauge is a metrics.Rate of the board's
// exec total. A nil recorder registers nothing.
func (r *Recorder) Instrument(reg *metrics.Registry) { r.instrument(reg, time.Now) }

// instrument is Instrument reading the wall clock from now.
func (r *Recorder) instrument(reg *metrics.Registry, now func() time.Time) {
	if r == nil {
		return
	}
	for name, help := range counterHelp {
		reg.CounterFunc("cmfuzz_"+name+"_total", help, func() float64 {
			return float64(r.Counter(name))
		})
	}
	reg.GaugeFunc("cmfuzz_probe_cache_hit_ratio",
		"Share of probe requests folded into another's startup.", func() float64 {
			hits := r.Counter(CtrProbeCacheHits)
			total := r.Counter(CtrProbeStartups) + hits
			if total == 0 {
				return 0
			}
			return float64(hits) / float64(total)
		})
	reg.GaugeFunc("cmfuzz_events_recorded",
		"Structured events held by the virtual-clock recorder.", func() float64 {
			return float64(r.Len())
		})
	reg.GaugeFunc("cmfuzz_runs_running",
		"Campaign runs started and not yet finished.", func() float64 {
			running := 0
			for _, run := range r.Board() {
				if !run.Done {
					running++
				}
			}
			return float64(running)
		})
	reg.Collect(func(set func(name, help string, value float64, labels ...metrics.Label)) {
		for _, run := range r.Board() {
			rl := metrics.L("run", run.Run)
			set("cmfuzz_run_virtual_seconds", "Campaign virtual clock.", run.VirtualSeconds, rl)
			set("cmfuzz_run_horizon_seconds", "Campaign virtual horizon.", run.HorizonSeconds, rl)
			set("cmfuzz_run_edges", "Union branch coverage of the run.", float64(run.Edges), rl)
			set("cmfuzz_run_execs", "Total protocol executions of the run.", float64(run.Execs), rl)
			set("cmfuzz_run_crashes", "Crash observations of the run.", float64(run.Crashes), rl)
			running := 0
			if !run.Done {
				running = len(run.Instances)
			}
			set("cmfuzz_instances_running", "Parallel instances of unfinished runs.", float64(running), rl)
			for _, in := range run.Instances {
				il := metrics.L("instance", strconv.Itoa(in.Index))
				set("cmfuzz_instance_virtual_seconds", "Instance virtual clock.", in.VirtualSeconds, rl, il)
				set("cmfuzz_instance_edges", "Instance branch coverage.", float64(in.Edges), rl, il)
				set("cmfuzz_instance_execs", "Instance protocol executions.", float64(in.Execs), rl, il)
				set("cmfuzz_instance_crashes", "Instance crash observations.", float64(in.Crashes), rl, il)
				set("cmfuzz_instance_mutations", "Instance configuration mutations.", float64(in.Mutations), rl, il)
				set("cmfuzz_instance_corpus_seeds", "Instance seed-queue depth.", float64(in.CorpusSeeds), rl, il)
			}
		}
	})
	var mu sync.Mutex
	var rate metrics.Rate
	reg.GaugeFunc("cmfuzz_execs_per_second",
		"Protocol executions per wall-clock second across all runs, between scrapes.",
		func() float64 {
			total := 0.0
			for _, run := range r.Board() {
				total += float64(run.Execs)
			}
			mu.Lock()
			defer mu.Unlock()
			return rate.Next(now(), total)
		})
}

// Status is what a campaign process serves on /status: the live board
// and the aggregate counters. A nil recorder serves no runs.
func (r *Recorder) Status() any {
	return struct {
		Runs     []RunStatus `json:"runs"`
		Counters Counters    `json:"counters,omitempty"`
	}{r.Board(), r.Counters()}
}
