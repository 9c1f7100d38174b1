package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/dist"
	"cmfuzz/internal/fleet"
	"cmfuzz/internal/fuzz"
	"cmfuzz/internal/protocols"
)

// ladderProbe times the two rungs under every execution with nothing
// above them: Engine.Step on each subject's Pit against a target that does
// nothing, and the coverage work one execution costs (48 edges recorded,
// compared against and folded into the cumulative map, trace reset).
func ladderProbe(steps int) (map[string]float64, error) {
	m := map[string]float64{}
	idle := fuzz.TargetFunc(func([][]byte, *coverage.Trace) *bugs.Crash { return nil })
	var ms0, ms1 runtime.MemStats
	var stepTime time.Duration
	var mallocs, bytes uint64
	subs := protocols.All()
	for _, sub := range subs {
		pit, err := fuzz.ParsePit(sub.PitXML())
		if err != nil {
			return nil, fmt.Errorf("ladder probe: %s pit: %w", sub.Info().Protocol, err)
		}
		eng := fuzz.NewEngine(fuzz.Config{Models: pit.DataModels, StateModel: pit.DefaultStateModel(), Seed: 1}, idle)
		for i := 0; i < steps/10; i++ {
			eng.Step()
		}
		runtime.ReadMemStats(&ms0)
		begin := time.Now()
		for i := 0; i < steps; i++ {
			eng.Step()
		}
		stepTime += time.Since(begin)
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		bytes += ms1.TotalAlloc - ms0.TotalAlloc
	}
	n := float64(steps * len(subs))
	m["fuzz.step_ns"] = float64(stepTime.Nanoseconds()) / n
	m["fuzz.step_allocs"] = float64(mallocs) / n
	m["fuzz.step_bytes"] = float64(bytes) / n

	tr := coverage.NewTrace()
	global := coverage.NewMap()
	execs := steps * len(subs)
	runtime.ReadMemStats(&ms0)
	begin := time.Now()
	for i := 0; i < execs; i++ {
		for site := uint32(0); site < 48; site++ {
			tr.Edge(site, uint64(i%64))
		}
		if tr.Map().NewOver(global) > 0 {
			global.Union(tr.Map())
		}
		tr.Reset()
	}
	elapsed := time.Since(begin)
	runtime.ReadMemStats(&ms1)
	m["coverage.exec_ns"] = float64(elapsed.Nanoseconds()) / float64(execs)
	m["coverage.exec_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(execs)
	return m, nil
}

// checkpointRung measures what one park-and-resume of each campaign costs
// at half horizon, outside the traced repetition so it does not inflate
// the tracing overhead: encode, validate, and the restore that rebuilds
// worker state by re-executing the journaled leases.
func checkpointRung(e *env) (map[string]float64, error) {
	m := map[string]float64{}
	rung := newTracePass("checkpoint_rung")
	for _, c := range e.campaigns {
		ct := rung.begin(c)
		lb, err := newLoopback(ct, c.opts)
		if err != nil {
			return nil, err
		}
		var blob []byte
		err = func() error {
			defer lb.close()
			if err := lb.coord.Start(e.ctx); err != nil {
				return err
			}
			if err := lb.coord.Advance(e.ctx, lb.coord.Horizon()/2); err != nil {
				return err
			}
			begin := time.Now()
			blob, err = lb.coord.Checkpoint()
			m["dist.checkpoint_encode_ms"] += time.Since(begin).Seconds() * 1e3
			return err
		}()
		if err != nil {
			return nil, fmt.Errorf("checkpoint rung %s: %w", c.id, err)
		}
		m["dist.checkpoint_bytes"] += float64(len(blob))
		begin := time.Now()
		if err := dist.ValidateCheckpoint(blob); err != nil {
			return nil, fmt.Errorf("checkpoint rung %s: %w", c.id, err)
		}
		m["dist.validate_checkpoint_ms"] += time.Since(begin).Seconds() * 1e3

		before := ct.sub.stats().sessions
		lb, err = newLoopback(ct, c.opts)
		if err != nil {
			return nil, err
		}
		begin = time.Now()
		err = lb.coord.Restore(e.ctx, blob)
		m["dist.restore_s"] += time.Since(begin).Seconds()
		if cerr := lb.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("checkpoint rung %s: restore: %w", c.id, err)
		}
		m["dist.restore_reexec_sessions"] += float64(ct.sub.stats().sessions - before)
	}
	return m, nil
}

// queueDepthProbe is ROADMAP item 1's 1,000-program rung as a
// measurement: admission latency, scheduling-round cost and recovery-scan
// time of a manager with depth campaigns queued on the two-worker pool.
func queueDepthProbe(e *env, depth, rounds int) (map[string]float64, error) {
	dir := filepath.Join(e.workDir, "queue")
	mgr, err := fleet.NewManager(fleet.Config{StateDir: dir}, e.pool, e.resolve)
	if err != nil {
		return nil, err
	}
	subs := protocols.All()
	var submitUs, roundMs []float64
	for i := 0; i < depth; i++ {
		spec := fleet.CampaignSpec{
			ID: fmt.Sprintf("q%04d", i), Subject: subs[i%len(subs)].Info().Protocol,
			Mode: "peach", Hours: 0.25, Seed: int64(i + 1), Instances: 1,
		}
		begin := time.Now()
		if err := mgr.Submit(spec); err != nil {
			return nil, err
		}
		submitUs = append(submitUs, time.Since(begin).Seconds()*1e6)
	}
	for r := 0; r < rounds; r++ {
		begin := time.Now()
		if _, err := mgr.Step(e.ctx); err != nil {
			return nil, err
		}
		roundMs = append(roundMs, time.Since(begin).Seconds()*1e3)
	}
	mgr.Close()
	begin := time.Now()
	if _, err := fleet.NewManager(fleet.Config{StateDir: dir}, e.pool, e.resolve); err != nil {
		return nil, err
	}
	return map[string]float64{
		"fleet.q1000.submit_us_p50":     percentile(submitUs, 0.5),
		"fleet.q1000.submit_us_p99":     percentile(submitUs, 0.99),
		"fleet.q1000.step_round_ms_p50": percentile(roundMs, 0.5),
		"fleet.q1000.recovery_scan_ms":  time.Since(begin).Seconds() * 1e3,
	}, nil
}
