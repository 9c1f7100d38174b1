package monitor

import (
	"strconv"
	"sync"
	"time"

	"cmfuzz/internal/telemetry"
	"cmfuzz/internal/telemetry/metrics"
)

// NewRegistry builds the standard monitor registry over the recorder:
// its counters plus the live board's gauges. A nil recorder is skipped.
func NewRegistry(rec *telemetry.Recorder) *metrics.Registry {
	reg := metrics.NewRegistry()
	RegisterRecorder(reg, rec)
	RegisterProgress(reg, rec)
	RegisterExecRate(reg, rec, nil)
	return reg
}

// RegisterExecRate publishes cmfuzz_execs_per_second: the campaign-wide
// protocol-execution throughput, the metrics.Rate of the exec count
// summed over the board's runs. A nil now uses time.Now; tests inject a
// fake clock. Nil recorder or registry is a no-op.
func RegisterExecRate(reg *metrics.Registry, rec *telemetry.Recorder, now func() time.Time) {
	if reg == nil || rec == nil {
		return
	}
	if now == nil {
		now = time.Now
	}
	var mu sync.Mutex
	var rate metrics.Rate
	reg.GaugeFunc("cmfuzz_execs_per_second",
		"Protocol executions per wall-clock second across all runs, between scrapes.",
		func() float64 {
			total := 0.0
			for _, run := range rec.Board() {
				total += float64(run.Execs)
			}
			mu.Lock()
			defer mu.Unlock()
			return rate.Next(now(), total)
		})
}

// RegisterRecorder publishes the recorder's counter registry on reg:
// one cmfuzz_<counter>_total pull counter per known counter name, plus
// the derived cmfuzz_probe_cache_hit_ratio gauge. Values are read at
// scrape time, so the fuzzing hot path is never touched. Nil recorder
// or registry is a no-op.
func RegisterRecorder(reg *metrics.Registry, rec *telemetry.Recorder) {
	if reg == nil || rec == nil {
		return
	}
	for name, help := range telemetry.CounterHelp {
		name := name
		reg.CounterFunc("cmfuzz_"+name+"_total", help, func() float64 {
			return float64(rec.Counter(name))
		})
	}
	reg.GaugeFunc("cmfuzz_probe_cache_hit_ratio",
		"Share of probe requests folded into another's startup.", func() float64 {
			hits := rec.Counter(telemetry.CtrProbeCacheHits)
			total := rec.Counter(telemetry.CtrProbeStartups) + hits
			if total == 0 {
				return 0
			}
			return float64(hits) / float64(total)
		})
	reg.GaugeFunc("cmfuzz_events_recorded",
		"Structured events held by the virtual-clock recorder.", func() float64 {
			return float64(rec.Len())
		})
}

// RegisterProgress publishes the recorder's live board on reg: one
// collector emitting per-run and per-instance gauges at each scrape
// (virtual time, edges, execs, crashes, mutations, seed-queue depth)
// plus the cmfuzz_runs_running gauge. Nil recorder or registry is a
// no-op.
func RegisterProgress(reg *metrics.Registry, rec *telemetry.Recorder) {
	if reg == nil || rec == nil {
		return
	}
	reg.GaugeFunc("cmfuzz_runs_running",
		"Campaign runs started and not yet finished.", func() float64 {
			running := 0
			for _, run := range rec.Board() {
				if !run.Done {
					running++
				}
			}
			return float64(running)
		})
	reg.Collect(func(set func(name, help string, value float64, labels ...metrics.Label)) {
		for _, run := range rec.Board() {
			rl := metrics.L("run", run.Run)
			set("cmfuzz_run_virtual_seconds", "Campaign virtual clock.", run.VirtualSeconds, rl)
			set("cmfuzz_run_horizon_seconds", "Campaign virtual horizon.", run.HorizonSeconds, rl)
			set("cmfuzz_run_edges", "Union branch coverage of the run.", float64(run.Edges), rl)
			set("cmfuzz_run_execs", "Total protocol executions of the run.", float64(run.Execs), rl)
			set("cmfuzz_run_crashes", "Crash observations of the run.", float64(run.Crashes), rl)
			set("cmfuzz_instances_running", "Parallel instances of unfinished runs.",
				float64(len(run.Instances))*boolTo01(!run.Done), rl)
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
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// StatusPayload is what /status serves: the live run board plus the
// aggregate counters.
type StatusPayload struct {
	Runs     []telemetry.RunStatus `json:"runs"`
	Counters telemetry.Counters    `json:"counters,omitempty"`
}

// StatusFunc builds the /status provider over the recorder's board and
// counters. The recorder may be nil.
func StatusFunc(rec *telemetry.Recorder) func() any {
	return func() any {
		return StatusPayload{Runs: rec.Board(), Counters: rec.Counters()}
	}
}
