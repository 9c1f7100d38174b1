package monitor

import (
	"strconv"
	"sync"
	"time"

	"cmfuzz/internal/telemetry"
	"cmfuzz/internal/telemetry/metrics"
)

// counterHelp names every counter the virtual-clock recorder maintains,
// with its exposition help string. The bridge publishes each as
// cmfuzz_<name>_total.
var counterHelp = map[string]string{
	telemetry.CtrBoots:           "Target (re)boots, including mutation restarts.",
	telemetry.CtrSyncs:           "Seed synchronizations performed.",
	telemetry.CtrSyncSkipped:     "Sync intervals skipped by virtual-clock jumps.",
	telemetry.CtrSamples:         "Union coverage samples recorded.",
	telemetry.CtrSaturations:     "Coverage saturation detector fires.",
	telemetry.CtrMutations:       "Configuration-value mutations applied.",
	telemetry.CtrRestartFailures: "Failed target restarts during mutation.",
	telemetry.CtrFallbacks:       "Last-resort defaults fallbacks.",
	telemetry.CtrCrashes:         "Crash observations (pre-dedup).",
	telemetry.CtrCrashesUnique:   "Unique crashes after dedup.",
	telemetry.CtrProbeStartups:   "Startup probes executed (cache misses).",
	telemetry.CtrProbeCacheHits:  "Startup probes served from the memo cache.",
	// Live-target safety-rail counters (internal/live); zero for
	// in-process simulation subjects.
	telemetry.CtrTargetRestarts:    "Live target process restarts (mutations, crashes, hangs).",
	telemetry.CtrTargetRateLimited: "Sends delayed by the live-target rate limiter.",
	telemetry.CtrTargetHangs:       "Live target hang detections (consecutive silent messages).",
}

// NewRegistry builds the standard monitor registry: the recorder's
// counters plus the live progress gauges. Nil sources are skipped.
func NewRegistry(rec *telemetry.Recorder, prog *telemetry.Progress) *metrics.Registry {
	reg := metrics.NewRegistry()
	RegisterRecorder(reg, rec)
	RegisterProgress(reg, prog)
	RegisterExecRate(reg, prog, nil)
	return reg
}

// RegisterExecRate publishes cmfuzz_execs_per_second: the campaign-wide
// protocol-execution throughput, computed as the exec-count delta across
// all runs between consecutive scrapes divided by the wall time between
// them. The first scrape (no previous point) and any scrape after a
// counter reset report 0. A nil now uses time.Now; tests inject a fake
// clock. Nil progress or registry is a no-op.
func RegisterExecRate(reg *metrics.Registry, prog *telemetry.Progress, now func() time.Time) {
	if reg == nil || prog == nil {
		return
	}
	if now == nil {
		now = time.Now
	}
	var mu sync.Mutex
	var lastT time.Time
	var lastExecs float64
	reg.GaugeFunc("cmfuzz_execs_per_second",
		"Protocol executions per wall-clock second across all runs, between scrapes.",
		func() float64 {
			total := 0.0
			for _, run := range prog.Snapshot() {
				total += float64(run.Execs)
			}
			mu.Lock()
			defer mu.Unlock()
			t := now()
			prevT, prevExecs := lastT, lastExecs
			lastT, lastExecs = t, total
			if prevT.IsZero() || total < prevExecs {
				return 0
			}
			dt := t.Sub(prevT).Seconds()
			if dt <= 0 {
				return 0
			}
			return (total - prevExecs) / dt
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
	for name, help := range counterHelp {
		name := name
		reg.CounterFunc("cmfuzz_"+name+"_total", help, func() float64 {
			return float64(rec.Counter(name))
		})
	}
	reg.GaugeFunc("cmfuzz_probe_cache_hit_ratio",
		"Share of probe requests served from the memo cache.", func() float64 {
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

// RegisterProgress publishes the live campaign board on reg: one
// collector emitting per-run and per-instance gauges at each scrape
// (virtual time, edges, execs, crashes, mutations, seed-queue depth)
// plus the cmfuzz_runs_running gauge. Nil progress or registry is a
// no-op.
func RegisterProgress(reg *metrics.Registry, prog *telemetry.Progress) {
	if reg == nil || prog == nil {
		return
	}
	reg.GaugeFunc("cmfuzz_runs_running",
		"Campaign runs started and not yet finished.", func() float64 {
			return float64(prog.Running())
		})
	reg.Collect(func(set func(name, help string, value float64, labels ...metrics.Label)) {
		for _, run := range prog.Snapshot() {
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

// StatusFunc builds the /status provider over the live board and the
// recorder. Either may be nil.
func StatusFunc(prog *telemetry.Progress, rec *telemetry.Recorder) func() any {
	return func() any {
		return StatusPayload{Runs: prog.Snapshot(), Counters: rec.Counters()}
	}
}
