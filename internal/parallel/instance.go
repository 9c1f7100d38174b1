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

// A CrashSink receives crash records as instances hit them. *bugs.Ledger
// satisfies it; a distributed worker substitutes a buffering sink that
// ships the records to the coordinator, which replays them into the one
// authoritative ledger in event-loop order. The return value reports
// whether the crash was new to the sink (ledger dedup).
type CrashSink interface {
	Record(c *bugs.Crash, instance int, t float64, config string) bool
}

// A CrashRec is one buffered crash record: the crash plus the stamp a
// CrashSink.Record call would have received. Transports ship these and
// replay them into the authoritative ledger in event-loop order.
type CrashRec struct {
	Crash    bugs.Crash
	Instance int
	T        float64
	Config   string
}

// A RecordingSink buffers crash records instead of deduplicating them.
// Distributed workers hand one to Boot/Mutate and ship the records back
// to the coordinator, whose ledger performs the authoritative dedup.
type RecordingSink struct{ Recs []CrashRec }

// Record appends the crash and reports it as new (dedup is deferred to
// whoever replays the buffer).
func (b *RecordingSink) Record(c *bugs.Crash, instance int, t float64, config string) bool {
	b.Recs = append(b.Recs, CrashRec{Crash: *c, Instance: instance, T: t, Config: config})
	return true
}

// An Instance is one running parallel fuzzing instance: an engine bound
// to a booted subject target it alone holds, over its own link, plus the
// virtual clock and saturation state the campaign loop schedules it by.
// Booting equal specs on equal hosts yields instances whose step
// sequences are bit-for-bit identical, which is what lets a distributed
// worker stand in for the in-process loop.
type Instance struct {
	host         *Host
	index        int
	clock        float64
	engine       *fuzz.Engine
	target       *netTarget
	cfg          configmodel.Assignment
	group        schedule.Group
	sat          *coverage.Saturation
	rng          *rand.Rand
	muts         int
	crashes      int
	restartFails int
	startEdges   int
	// latencySpent is how much of the link's accrued latency has already
	// been charged to the virtual clock.
	latencySpent float64
}

// Boot starts the instance described by spec: repair the scheduled
// configuration if it conflicts, boot the target (falling back to
// defaults as a last resort), and seed the engine with the startup
// coverage. Startup crashes go to sink.
func (h *Host) Boot(spec InstanceSpec, sink CrashSink) (*Instance, error) {
	l := newLink(&h.Opts, spec.Index, h.Sub.Info().Transport)
	cfg := repairConfig(h.Sub, spec.Config, h.Defaults)
	target, err := bootTarget(h.Sub, l, cfg, sink, spec.Index)
	if err != nil {
		// Still conflicting after repair: last-resort defaults.
		cfg = h.Defaults.Clone()
		target, err = bootTarget(h.Sub, l, cfg, sink, spec.Index)
		if err != nil {
			return nil, fmt.Errorf("parallel: instance %d failed to start: %w", spec.Index, err)
		}
	}
	eng := fuzz.NewEngine(fuzz.Config{
		Models:     h.Pit.DataModels,
		StateModel: h.StateModel,
		Seed:       spec.EngineSeed,
		FixedPaths: spec.Paths,
	}, target)
	eng.Absorb(target.startup)
	return &Instance{
		host:       h,
		index:      spec.Index,
		engine:     eng,
		target:     target,
		cfg:        cfg,
		group:      spec.Group,
		sat:        &coverage.Saturation{Window: h.Opts.SaturationWindow, MinGain: h.Opts.SaturationMinGain, MinGainFrac: 0.01},
		rng:        rand.New(rand.NewSource(spec.RngSeed)),
		startEdges: target.startup.Count(),
	}, nil
}

// Step runs one engine step and advances the instance's virtual clock by
// the campaign cost model. A crashing step bumps the instance crash
// counter; recording it in the ledger is the scheduler's job (the record
// must land in global event-loop order, which only the scheduler knows).
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
	in.clock = in.host.Opts.charge(in.clock, step)
	if step.Crash != nil {
		in.crashes++
	}
	return step
}

// A LeaseStep is the full record of one autonomous step: what Step
// returned, the corpus addition it caused (if any), and the saturation
// mutation it triggered (if any). The distributed worker streams one per
// step back to the coordinator, whose Source feeds them to the event
// loop in virtual-clock order.
type LeaseStep struct {
	Step
	// Seed is the corpus addition this step produced; zero unless
	// NewEdges > 0.
	Seed fuzz.Seed
	// Delta carries the encoded coverage delta. The afterStep callback
	// fills it in; StepN itself never touches it.
	Delta []byte
	// Saturation-mutation fields, set only when SatFired is true.
	SatFired        bool
	Mutation        *MutationOutcome
	MutationCrashes []CrashRec
	Config          string // assignment after the mutation attempt
	Coverage        int    // edge count after absorbing restart coverage
}

// StepN runs the instance autonomously until its clock crosses boundary
// (the next sync point) or horizon, whichever comes first, invoking the
// callbacks once per step. It is the worker half of the lease protocol:
// the loop body is `Step` plus the saturation/mutation check, i.e.
// what the event loop asks of an instance between two seed syncs, so
// nothing the records carry depends on where the instance ran.
//
// afterStep fires after the engine step but before any configuration
// mutation — the point where the event loop merges new coverage into
// the union map — so transports must snapshot coverage deltas there: a
// mutation restart absorbs startup coverage that must ride the NEXT
// new-edges delta. afterRecord fires once the record is complete
// (mutation included). Mutation and seed sync commute — mutation touches
// rng/target/engine state, sync touches only the corpus — so running
// the whole batch before the coordinator processes syncs does not
// reorder observable effects.
//
// The return value reports whether the instance stopped at boundary
// (sync due) rather than at horizon.
func (in *Instance) StepN(boundary, horizon float64, afterStep, afterRecord func(*LeaseStep)) (syncDue bool) {
	opts := in.host.Opts
	mutate := opts.Mode == ModeCMFuzz && !opts.DisableConfigMutation
	for in.clock < horizon {
		rec := LeaseStep{Step: in.Step()}
		if rec.NewEdges > 0 {
			rec.Seed = in.engine.LastSeed()
		}
		afterStep(&rec)
		if mutate && in.ObserveSaturation() {
			rec.SatFired = true
			sink := &RecordingSink{}
			out := in.Mutate(sink)
			rec.Mutation = &out
			rec.MutationCrashes = sink.Recs
			rec.Config = in.cfg.String()
			rec.Coverage = in.engine.Coverage()
			in.ResetSaturation()
		}
		afterRecord(&rec)
		if in.clock >= boundary {
			return true
		}
	}
	return false
}

// ObserveSaturation feeds the instance's current coverage into its
// saturation tracker and reports whether the tracker now considers the
// instance saturated.
func (in *Instance) ObserveSaturation() bool {
	in.sat.Observe(in.clock, in.engine.Coverage())
	return in.sat.Saturated(in.clock)
}

// ResetSaturation restarts the saturation window (after a configuration
// mutation attempt).
func (in *Instance) ResetSaturation() { in.sat.Reset(in.clock) }

// Accessors for the distributed worker.

// SetClock overrides the virtual clock. The distributed coordinator uses
// it when re-booting a lost instance on a surviving worker: the fresh
// instance must resume at the clock the dead worker had reached.
func (in *Instance) SetClock(c float64) { in.clock = c }

// CoverageMap exposes the engine's live coverage map (read-only use).
func (in *Instance) CoverageMap() *coverage.Map { return in.engine.CoverageMap() }

// TraceMap exposes the engine's per-exec trace map from the most recent
// step (read-only use, valid until the next step).
func (in *Instance) TraceMap() *coverage.Map { return in.engine.TraceMap() }

// ImportSeeds merges seeds from other instances into the corpus.
func (in *Instance) ImportSeeds(seeds []fuzz.Seed) { in.engine.ImportSeeds(seeds) }

// ConfigString renders the instance's current configuration assignment.
func (in *Instance) ConfigString() string { return in.cfg.String() }

// StartupEdges returns the coverage the target's boot alone produced.
func (in *Instance) StartupEdges() int { return in.startEdges }

// Result summarizes the instance for the campaign Result.
func (in *Instance) Result() InstanceResult {
	st := in.engine.Stats()
	return InstanceResult{
		Index:           in.index,
		Config:          in.cfg.String(),
		Group:           in.group.Members,
		FinalBranches:   in.engine.Coverage(),
		Execs:           st.Execs,
		Crashes:         in.crashes,
		ConfigMutations: in.muts,
		RestartFailures: in.restartFails,
	}
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
// telemetry events plus the counter deltas, and whether the target was
// actually restarted (so the caller knows fresh startup coverage was
// absorbed and the configuration changed).
type MutationOutcome struct {
	Events       []MutEvent
	Mutations    int
	Boots        int
	RestartFails int
	Fallbacks    int
	Restarted    bool
}

// Mutate applies the paper's Values-guided configuration mutation: pick
// a MUTABLE entity (preferring the instance's assigned group), set a
// different typical value, and restart the instance under the new
// configuration. A mutation that produces a conflicting configuration
// (or crashes during startup — a config-parsing defect) is reverted; if
// even the reverted configuration fails to boot, the instance falls back
// to defaults. When a restart happened, the fresh startup coverage has
// already been absorbed into the engine on return.
func (in *Instance) Mutate(sink CrashSink) MutationOutcome {
	var out MutationOutcome
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
		out.Restarted = true
		if in.engine != nil { // engine-less instances appear only in unit tests
			in.engine.Absorb(in.target.startup)
		}
		return out
	}

	if err := in.target.boot(h.Sub, in.cfg, sink, in.index, in.clock); err != nil {
		in.restartFails++
		out.RestartFails++
		out.Events = append(out.Events, MutEvent{Type: telemetry.EvRestartFail,
			Entity: e.Name, Value: newVal, Detail: err.Error()})
		// Conflicting mutation: revert and restart under the old config.
		if had {
			in.cfg[e.Name] = old
		} else {
			delete(in.cfg, e.Name)
		}
		if err := in.target.boot(h.Sub, in.cfg, sink, in.index, in.clock); err != nil {
			in.restartFails++
			out.RestartFails++
			out.Events = append(out.Events, MutEvent{Type: telemetry.EvRestartFail,
				Config: in.cfg.String(), Detail: "revert failed: " + err.Error()})
			// Both the mutated and the reverted restart failed; without a
			// fallback the instance would keep stepping against a dead
			// target for the rest of the campaign. Boot the defaults,
			// which every subject's conformance suite guarantees start.
			in.cfg = h.Model.Defaults()
			err := in.target.boot(h.Sub, in.cfg, sink, in.index, in.clock)
			if err != nil {
				in.restartFails++
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
	in.muts++
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
