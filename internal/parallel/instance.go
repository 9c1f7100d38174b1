package parallel

import (
	"fmt"
	"math/rand"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/core/configmodel"
	"cmfuzz/internal/core/schedule"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/fuzz"
	"cmfuzz/internal/telemetry"
)

// A CrashRec is one crash an instance's boot or restart hit, stamped
// with the instance, its virtual clock and the configuration it booted.
// Boot reports and mutation outcomes carry these; LeaseSource files them
// in the one ledger in event-loop order, which dedups.
type CrashRec struct {
	Crash    bugs.Crash
	Instance int
	T        float64
	Config   string
}

// An Instance is one running parallel fuzzing instance: an engine bound
// to a booted subject target it alone holds, over its own link, plus the
// virtual clock and saturation state the campaign loop schedules it by.
// Booting equal specs on equal hosts yields instances whose step
// sequences are bit-for-bit identical, which is what lets a distributed
// worker stand in for the in-process loop.
type Instance struct {
	host   *Host
	clock  float64
	engine *fuzz.Engine
	target *netTarget
	cfg    configmodel.Assignment
	group  schedule.Group
	sat    *coverage.Saturation
	rng    *rand.Rand
	// latencySpent is how much of the link's accrued latency has already
	// been charged to the virtual clock.
	latencySpent float64

	// RunLease's buffers, recycled from lease to lease: the latest lease's
	// records and the coverage deltas they point into. reported is the
	// coverage every delta so far has carried (the boot reports the
	// startup map whole).
	recs     []LeaseStep
	deltas   []byte
	reported *coverage.Map
	// fullScan: a restart absorbed startup coverage outside any step, so
	// the next delta must diff the whole engine map, not only the words
	// the step's trace touched.
	fullScan bool
}

// Boot starts the instance described by spec: repair the scheduled
// configuration if it conflicts, boot the target (falling back to
// defaults as a last resort), and seed the engine with the startup
// coverage. The report carries the startup crashes, in order, whether
// or not the boot succeeded.
func (h *Host) Boot(spec InstanceSpec) (*Instance, BootReport, error) {
	target := &netTarget{link: newLink(&h.Opts, spec.Index, h.Sub.Info().Transport), index: spec.Index}
	cfg := repairConfig(h.Sub, spec.Config, h.Defaults)
	err := target.boot(h.Sub, cfg, 0)
	if err != nil {
		// Still conflicting after repair: last-resort defaults.
		cfg = h.Defaults.Clone()
		err = target.boot(h.Sub, cfg, 0)
	}
	rep := BootReport{Crashes: target.takeCrashes()}
	if err != nil {
		return nil, rep, fmt.Errorf("parallel: instance %d failed to start: %w", spec.Index, err)
	}
	eng := fuzz.NewEngine(fuzz.Config{
		Models:     h.Pit.DataModels,
		StateModel: h.StateModel,
		Seed:       spec.EngineSeed,
		FixedPaths: spec.Paths,
	}, target)
	eng.Absorb(target.startup)
	reported := coverage.NewMap()
	reported.Union(eng.CoverageMap())
	rep.Config, rep.StartEdges, rep.Delta = cfg.String(), target.startup.Count(), coverage.EncodeDelta(eng.CoverageMap(), nil)
	return &Instance{
		host:     h,
		engine:   eng,
		target:   target,
		cfg:      cfg,
		group:    spec.Group,
		sat:      &coverage.Saturation{Window: h.Opts.SaturationWindow, MinGain: h.Opts.SaturationMinGain},
		rng:      rand.New(rand.NewSource(spec.RngSeed)),
		reported: reported,
	}, rep, nil
}

// Step runs one engine step and advances the instance's virtual clock by
// the campaign cost model. Recording a crash in the ledger is the
// scheduler's job (the record must land in global event-loop order,
// which only the scheduler knows).
func (in *Instance) Step() Step {
	r := in.engine.Step()
	step := Step{Bytes: r.Bytes, NewEdges: r.NewEdges, Crash: r.Crash}
	if l := in.target.link; l.latRng != nil {
		// Spend the latency the link accrued during this step: the
		// impaired link slows the campaign's virtual clock, exactly as a
		// slow real network would slow wall time. A difference of running
		// totals, not a per-step sum, which would round differently.
		step.Latency = l.accrued - in.latencySpent
		in.latencySpent = l.accrued
	}
	in.clock = charge(in.clock, step)
	return step
}

// A LeaseStep is the full record of one autonomous step: what Step
// returned, the corpus addition and coverage delta it caused (if any),
// and the saturation mutation it triggered (if any). A lease produces
// one per step (RunLease); a LeaseSource feeds them to the event loop in
// virtual-clock order, in this process or on the distributed coordinator.
type LeaseStep struct {
	Step
	// Seed is the corpus addition this step produced; zero unless
	// NewEdges > 0. Digest names it on the wire: a dist worker sets it
	// just before encoding the record, and a record that never crosses
	// the wire leaves it zero.
	Seed   fuzz.Seed
	Digest fuzz.Digest
	// Ship reports that the seed's gain reached its corpus's export floor
	// (fuzz.Corpus.ExportFloor) when it was added: a sync may export it,
	// so its messages go with the record. A decoded record that does not
	// ship holds no messages, and its source's mirror keeps the digest.
	Ship bool
	// Delta is the coverage no earlier record carried, encoded
	// (coverage.EncodeDelta); empty unless NewEdges > 0.
	Delta []byte
	// Mutation is what the saturation this step fired did; nil when
	// saturation did not fire.
	Mutation *MutationOutcome
}

// RunLease is the one lease executor, for a dist worker's lanes and Run's
// goroutines alike: import the seeds the last sync collected, then StepN
// to boundary (the next sync) or horizon. The records are valid until the
// next lease; syncDue reports a stop at boundary.
func (in *Instance) RunLease(seeds []fuzz.Seed, boundary, horizon float64) (recs []LeaseStep, syncDue bool) {
	in.engine.ImportSeeds(seeds)
	in.recs, in.deltas = in.recs[:0], in.deltas[:0]
	syncDue = in.StepN(boundary, horizon)
	return in.recs, syncDue
}

// StepN appends a record per step until the clock crosses boundary or
// horizon: Step plus the saturation/mutation check, what the event loop
// asks of an instance between two seed syncs. A step's coverage delta is
// cut before any mutation, where the loop merges it: a restart's startup
// coverage rides the NEXT new-edges delta. Mutation and seed sync
// commute — mutation touches rng/target/engine, sync only the corpus —
// so running the lease before the loop replays its sync reorders nothing.
func (in *Instance) StepN(boundary, horizon float64) (syncDue bool) {
	opts := in.host.Opts
	mutate := opts.Mode == ModeCMFuzz && !opts.DisableConfigMutation
	for in.clock < horizon {
		in.recs = append(in.recs, LeaseStep{Step: in.Step()})
		rec := &in.recs[len(in.recs)-1]
		if rec.NewEdges > 0 {
			rec.Seed = in.engine.LastSeed()
			rec.Ship = rec.Seed.Gain >= in.engine.ExportFloor()
			rec.Delta = in.delta()
		}
		if mutate && in.saturated() {
			out := in.Mutate()
			rec.Mutation = &out
			in.sat.Reset(in.clock)
			in.fullScan = true
		}
		if in.clock >= boundary {
			return true
		}
	}
	return false
}

// delta appends the coverage no record has carried yet to the lease's
// delta buffer, marks it carried and returns it. It lies in the words the
// step's trace touched unless a restart came between (fullScan). An
// earlier delta stays valid when the buffer grows: its bytes are not
// written again until the next lease.
func (in *Instance) delta() []byte {
	touched := in.engine.TraceMap()
	if in.fullScan {
		touched, in.fullScan = nil, false
	}
	off := len(in.deltas)
	in.deltas = coverage.AppendDelta(in.deltas, in.engine.CoverageMap(), in.reported, touched)
	d := in.deltas[off:]
	in.reported.ApplyDelta(d)
	return d
}

// saturated feeds the current coverage to the saturation tracker and
// reports whether it has gone flat.
func (in *Instance) saturated() bool {
	in.sat.Observe(in.clock, in.engine.Coverage())
	return in.sat.Saturated(in.clock)
}

// A MutEvent is one telemetry event a configuration mutation produced,
// in order. The scheduler stamps instance and clock when emitting, so the
// same outcome renders identically whether the mutation ran in-process
// or on a remote worker.
type MutEvent struct {
	Type   telemetry.Type
	Entity string
	Value  string
	Config string
	Detail string
}

// A MutationOutcome reports what a Mutate call did: the ordered
// telemetry events, the counter deltas, the crashes its restarts hit,
// and the instance's configuration and edge count after the attempt.
// Boots is 1 when the target was restarted and its fresh startup
// coverage absorbed (Coverage counts it).
type MutationOutcome struct {
	Events       []MutEvent
	Mutations    int
	Boots        int
	RestartFails int
	Fallbacks    int
	Crashes      []CrashRec
	Config       string
	Coverage     int
}

// Mutate applies the paper's Values-guided configuration mutation: pick
// a MUTABLE entity (preferring the instance's assigned group), set a
// different typical value, and restart the instance under the new
// configuration. A mutation that produces a conflicting configuration
// (or crashes during startup — a config-parsing defect) is reverted; if
// even the reverted configuration fails to boot, the instance falls back
// to defaults. When a restart happened, the fresh startup coverage has
// already been absorbed into the engine on return.
func (in *Instance) Mutate() (out MutationOutcome) {
	defer func() {
		out.Crashes = in.target.takeCrashes()
		out.Config, out.Coverage = in.cfg.String(), in.engine.Coverage()
	}()
	h := in.host
	candidates := mutableIn(h.Model, in.group.Members)
	if len(candidates) == 0 {
		candidates = h.Model.Mutable()
	}
	if len(candidates) == 0 {
		return out
	}
	e := candidates[in.rng.Intn(len(candidates))]
	if len(e.Values) == 0 {
		return out
	}
	newVal := e.Values[in.rng.Intn(len(e.Values))]
	if in.cfg[e.Name] == newVal {
		return out
	}
	old, had := in.cfg[e.Name]
	in.cfg[e.Name] = newVal

	restarted := func() MutationOutcome {
		out.Boots++
		in.engine.Absorb(in.target.startup)
		return out
	}

	if err := in.target.boot(h.Sub, in.cfg, in.clock); err != nil {
		out.RestartFails++
		out.Events = append(out.Events, MutEvent{Type: telemetry.EvRestartFail,
			Entity: e.Name, Value: newVal, Detail: err.Error()})
		// Conflicting mutation: revert and restart under the old config.
		if had {
			in.cfg[e.Name] = old
		} else {
			delete(in.cfg, e.Name)
		}
		if err := in.target.boot(h.Sub, in.cfg, in.clock); err != nil {
			out.RestartFails++
			out.Events = append(out.Events, MutEvent{Type: telemetry.EvRestartFail,
				Config: in.cfg.String(), Detail: "revert failed: " + err.Error()})
			// Both the mutated and the reverted restart failed; without a
			// fallback the instance would keep stepping against a dead
			// target for the rest of the campaign. Boot the defaults,
			// which every subject's conformance suite guarantees start.
			in.cfg = h.Model.Defaults()
			err := in.target.boot(h.Sub, in.cfg, in.clock)
			if err != nil {
				out.RestartFails++
			}
			out.Events = append(out.Events, MutEvent{Type: telemetry.EvFallback,
				Config: in.cfg.String(), Detail: fallbackDetail(err)})
			out.Fallbacks++
			if err != nil {
				return out
			}
			return restarted()
		}
		return restarted()
	}
	out.Mutations++
	out.Events = append(out.Events, MutEvent{Type: telemetry.EvMutation,
		Entity: e.Name, Value: newVal, Config: in.cfg.String()})
	return restarted()
}

// Close tears the instance's target down.
func (in *Instance) Close() {
	if in.target != nil && in.target.inst != nil {
		in.target.inst.Close()
	}
}

// EmitMutation renders a MutationOutcome into the telemetry stream
// exactly as the historical inline mutation code did: events in order
// with the instance/clock stamp, then the counter deltas. Zero deltas
// are skipped so an uninstrumented-looking counter map stays identical.
func EmitMutation(tel *telemetry.Recorder, index int, t float64, out MutationOutcome) {
	for _, ev := range out.Events {
		tel.Emit(telemetry.Event{T: t, Type: ev.Type, Instance: index,
			Entity: ev.Entity, Value: ev.Value, Config: ev.Config, Detail: ev.Detail})
	}
	if out.RestartFails > 0 {
		tel.Count(telemetry.CtrRestartFailures, out.RestartFails)
	}
	if out.Fallbacks > 0 {
		tel.Count(telemetry.CtrFallbacks, out.Fallbacks)
	}
	if out.Mutations > 0 {
		tel.Count(telemetry.CtrMutations, out.Mutations)
	}
	if out.Boots > 0 {
		tel.Count(telemetry.CtrBoots, out.Boots)
	}
}
