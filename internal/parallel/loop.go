package parallel

import (
	"context"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/telemetry"
	"cmfuzz/internal/telemetry/trace"
)

// A Step is what one engine step means to the campaign: what it costs on
// the virtual clock and what it found.
type Step struct {
	Bytes int
	// Latency is the link latency the instance's link accrued during
	// the step, in virtual seconds; zero unless Options.LinkLatency* is set.
	Latency  float64
	NewEdges int
	Crash    *bugs.Crash
}

// charge advances clock by what s cost: the cost model's two terms in
// one addition, the link latency in a second. Every clock in the system
// — a worker's instance, the event loop, a coordinator replaying records
// — goes through here, because they must round identically. The
// explicit float64 around the product forces it to round before the
// addition: without it the compiler may fuse the two into one
// multiply-add on arm64, ppc64le, riscv64 and loong64, and those clocks
// would drift from amd64's.
func charge(clock float64, s Step) float64 {
	clock += stepCost + float64(byteCost*float64(s.Bytes))
	return clock + s.Latency
}

// A Gauge is one instance's live figures for the run's board entry.
type Gauge struct{ Edges, Execs, Crashes, Mutations, Corpus int }

// A Source is where the event loop's steps come from. The loop decides
// which instance goes next and owns everything global; the source owns
// the instances. Outside tests there is one, LeaseSource, for Run and
// the distributed coordinator alike; they differ only in its Transport.
// Every call names the instance the loop is on, and within one loop
// iteration the calls come in the order listed here.
type Source interface {
	// Boot starts instance i, filing startup crashes in Loop.Res.Bugs and
	// startup coverage in Loop.Union, and reports the edges startup
	// covered.
	Boot(i int) (edges int, err error)
	// Step runs instance i's next step. A source that has to wait for it
	// returns ctx.Err() when ctx ends first, with nothing consumed.
	Step(ctx context.Context, i int) (Step, error)
	// Config renders instance i's current configuration assignment.
	Config(i int) string
	// Merge folds the coverage the step added into union (called when
	// the step found new edges).
	Merge(i int, union *coverage.Map) error
	// Gauge reads instance i's live figures (at a saturation, and for
	// every instance when the loop publishes the run's board entry).
	Gauge(i int) Gauge
	// Sync imports up to fuzz.SyncSeeds of every other instance's best
	// seeds into instance i, in index order, and reports how many.
	Sync(i int) (imported int, err error)
	// Saturated reports whether instance i's coverage has gone flat
	// (CMFuzz with configuration mutation on only).
	Saturated(i int) bool
	// Mutate mutates one configuration value of the saturated instance
	// and restarts it, filing restart crashes in Loop.Res.Bugs.
	Mutate(i int) MutationOutcome
	// Done ends the iteration: instance i's clock, sync schedule and
	// configuration are final until its next Step.
	Done(i int)
	// Result summarizes instance i once the campaign is over.
	Result(i int) (InstanceResult, error)
}

// A Loop is the campaign's virtual-clock event loop (paper §III-B2): N
// isolated instances stepped in (clock, index) order, periodic seed
// synchronization, configuration-value mutation on saturation. It owns
// the union coverage map, the sampled series, the bug ledger and every
// telemetry emission, the run's live board entry included; a Source
// supplies the steps. The in-process and the distributed campaign are
// this one loop over one source, which is why their artifacts are
// byte-identical.
//
// The exported fields are for a source's Boot and for the coordinator
// that drives the loop; between Boot and Finish only the loop changes
// them.
type Loop struct {
	Opts  Options // defaults applied
	Res   *Result
	Union *coverage.Map

	clock      []float64 // per-instance virtual clock
	nextSync   []float64 // per-instance next seed synchronization
	watermark  float64   // monotone observation clock across instances
	lastSample float64   // watermark of the last series sample

	host      *Host
	src       Source
	spans     []*trace.Span // one long-lived span per instance, carrying sync and config.mutate children
	horizon   float64
	mutate    bool
	cancelled bool
	// status is the run's live board entry, refreshed and published by
	// publish; its Instances are reused from one publish to the next.
	status telemetry.RunStatus
}

// NewLoop opens a fresh campaign on host. Plan, Boot, Advance, Finish
// follow; Close pairs with NewLoop.
func NewLoop(host *Host) *Loop {
	opts := host.Opts
	l := &Loop{
		Opts:     opts,
		Res:      &Result{Mode: opts.Mode, Subject: host.Sub.Info(), Series: &coverage.Series{}, Bugs: bugs.NewLedger(), ModelEntities: host.Model.Len()},
		Union:    coverage.NewMap(),
		clock:    make([]float64, opts.Instances),
		nextSync: make([]float64, opts.Instances),
		host:     host,
		horizon:  opts.Horizon(),
		mutate:   opts.Mode == ModeCMFuzz && !opts.DisableConfigMutation,
	}
	for i := range l.nextSync {
		l.nextSync[i] = syncInterval
	}
	return l
}

// Plan runs planner against the loop's ledger, recorder and trace, and
// records the figures of the plan it returns in the Result.
func (l *Loop) Plan(ctx context.Context, planner Planner) (*Plan, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	plan := planner(l.host, l.Res.Bugs, l.Opts.Telemetry, l.Opts.Trace)
	if rel := plan.Relation; rel != nil {
		l.Res.RelationEdges = rel.Graph.EdgeCount()
		l.Res.Probes = len(rel.Probed)
	}
	l.Res.Groups = plan.Groups
	return plan, nil
}

// Boot attaches src and boots every instance through it, in index order
// so startup ledger entries and telemetry land identically on every
// path, and publishes the run's board entry once every instance is up.
func (l *Loop) Boot(ctx context.Context, src Source) error {
	l.src = src
	tel := l.Opts.Telemetry
	for i := range l.clock {
		if err := ctx.Err(); err != nil {
			return err
		}
		span := l.Opts.Trace.Child("instance.boot", trace.A("instance", i))
		edges, err := src.Boot(i)
		if err != nil {
			span.End()
			return err
		}
		span.Set("edges", edges)
		span.End()
		tel.Emit(telemetry.Event{Type: telemetry.EvBoot, Instance: i, Config: src.Config(i), Edges: edges})
		tel.Count(telemetry.CtrBoots, 1)
	}
	l.Res.Series.Observe(0, l.Union.Count())
	// Siblings under the run's parent span, so each instance renders as
	// its own lane in the trace viewer.
	l.spans = make([]*trace.Span, len(l.clock))
	for i := range l.spans {
		l.spans[i] = l.Opts.Trace.Child("instance", trace.A("index", i))
	}
	l.publish(l.watermark)
	return nil
}

// Publish posts the run's board entry at the loop's position, between
// the samples that publish it otherwise: a dist restore, once it has
// re-run the campaign to its checkpointed bound.
func (l *Loop) Publish() { l.publish(l.watermark) }

// Horizon is the campaign's virtual end time in seconds.
func (l *Loop) Horizon() float64 { return l.horizon }

// next picks the instance with the lowest clock, ties to the lowest
// index: the interleaving is a function of the clocks alone.
func (l *Loop) next() int {
	i := 0
	for j := 1; j < len(l.clock); j++ {
		if l.clock[j] < l.clock[i] {
			i = j
		}
	}
	return i
}

// MinClock is the campaign's position: the lowest instance clock.
func (l *Loop) MinClock() float64 { return l.clock[l.next()] }

// Advance runs the event loop until every instance's clock has reached
// min(until, horizon). It is slicing-invariant: any sequence of Advance
// calls leaves the same state as one call to the last bound. When ctx
// ends first Advance stops between steps and returns ctx.Err() with the
// position intact; Finish then finalizes the partial campaign, or a
// later Advance carries on.
func (l *Loop) Advance(ctx context.Context, until float64) error {
	if until > l.horizon {
		until = l.horizon
	}
	tel, res := l.Opts.Telemetry, l.Res
	l.cancelled = false
	for {
		i := l.next()
		if l.clock[i] >= until {
			return nil
		}
		select {
		case <-ctx.Done():
			l.cancelled = true
			return ctx.Err()
		default:
		}
		step, err := l.src.Step(ctx, i)
		if err != nil {
			l.cancelled = err == ctx.Err()
			return err
		}
		l.clock[i] = charge(l.clock[i], step)
		t := l.clock[i]

		if step.Crash != nil {
			cfg := l.src.Config(i)
			isNew := res.Bugs.Record(step.Crash, i, t, cfg)
			tel.Emit(telemetry.Event{T: t, Type: telemetry.EvCrash, Instance: i,
				Crash: step.Crash.ID(), New: isNew, Config: cfg})
			tel.Count(telemetry.CtrCrashes, 1)
			if isNew {
				tel.Count(telemetry.CtrCrashesUnique, 1)
			}
		}
		if step.NewEdges > 0 {
			if err := l.src.Merge(i, l.Union); err != nil {
				return err
			}
		}
		if t > l.watermark {
			l.watermark = t
		}
		if l.watermark-l.lastSample >= sampleEvery ||
			(step.NewEdges > 0 && l.watermark-l.lastSample >= minSampleGap) {
			res.Series.Observe(l.watermark, l.Union.Count())
			l.lastSample = l.watermark
			tel.Emit(telemetry.Event{T: l.watermark, Type: telemetry.EvSample, Instance: i,
				Edges: l.Union.Count()})
			tel.Count(telemetry.CtrSamples, 1)
			l.publish(l.watermark)
		}

		// Seed synchronization.
		if t >= l.nextSync[i] {
			sync := l.spans[i].Child("sync")
			imported, err := l.src.Sync(i)
			if err != nil {
				sync.End()
				return err
			}
			// Advance nextSync past the instance clock. One expensive
			// step can jump several sync intervals at once; advancing by
			// a single interval would leave nextSync behind the clock and
			// fire a burst of back-to-back syncs on the following cheap
			// steps. The skipped intervals are counted, not replayed.
			skipped := 0
			for l.nextSync[i] += syncInterval; l.nextSync[i] <= t; l.nextSync[i] += syncInterval {
				skipped++
			}
			tel.Emit(telemetry.Event{T: t, Type: telemetry.EvSync, Instance: i,
				Seeds: imported, Skipped: skipped})
			tel.Count(telemetry.CtrSyncs, 1)
			if skipped > 0 {
				tel.Count(telemetry.CtrSyncSkipped, skipped)
			}
			sync.Set("seeds", imported)
			sync.End()
		}

		// CMFuzz adaptive configuration mutation on saturation.
		if l.mutate && l.src.Saturated(i) {
			tel.Emit(telemetry.Event{T: t, Type: telemetry.EvSaturation, Instance: i,
				Edges: l.src.Gauge(i).Edges})
			tel.Count(telemetry.CtrSaturations, 1)
			mut := l.spans[i].Child("config.mutate")
			out := l.src.Mutate(i)
			EmitMutation(tel, i, t, out)
			mut.End()
		}
		l.src.Done(i)
	}
}

// Finish observes the final series point, collects every instance's
// summary from the source, seals the Result and publishes the run done.
// After an Advance that ctx cut short the series and the board end at
// the watermark the campaign actually reached instead of the horizon,
// so neither claims coverage for virtual time that did not run.
func (l *Loop) Finish() (*Result, error) {
	res := l.Res
	finalT := l.horizon
	if l.cancelled {
		finalT = l.watermark
	}
	res.Series.Observe(finalT, l.Union.Count())
	res.FinalBranches = l.Union.Count()
	for i := range l.clock {
		ir, err := l.src.Result(i)
		if err != nil {
			return nil, err
		}
		res.TotalExecs += ir.Execs
		l.spans[i].Set("edges", ir.FinalBranches)
		l.spans[i].Set("execs", ir.Execs)
		l.spans[i].End()
		res.Instances = append(res.Instances, ir)
	}
	res.Counters = l.Opts.Telemetry.Counters()
	l.status.Done = true
	l.publish(finalT)
	return res, nil
}

// Run advances to the horizon and finishes. When ctx cuts the campaign
// short it returns the partial Result alongside ctx.Err().
func (l *Loop) Run(ctx context.Context) (*Result, error) {
	stopped := l.Advance(ctx, l.horizon)
	if stopped != nil && stopped != ctx.Err() {
		return nil, stopped
	}
	res, err := l.Finish()
	if err != nil {
		return nil, err
	}
	return res, stopped
}

// Close marks the run done on the board if Finish did not, at the
// watermark it reached. A run that never finished booting was never
// published and stays off the board.
func (l *Loop) Close() {
	if l.status.Instances != nil && !l.status.Done {
		l.status.Done = true
		l.publish(l.watermark)
	}
}

// publish posts the run's entry on the recorder's live board: the
// loop's position at virtual time t, read from the clocks, the union
// and the source. The loop publishes after Boot, at every coverage
// sample and in Finish, so the board lags the loop by at most one
// sampleEvery. A no-op without a recorder.
func (l *Loop) publish(t float64) {
	tel := l.Opts.Telemetry
	if !tel.Enabled() {
		return
	}
	st := &l.status
	if st.Instances == nil {
		st.Mode, st.Subject, st.HorizonSeconds = l.Opts.Mode.String(), l.Res.Subject.Protocol, l.horizon
		st.Instances = make([]telemetry.InstanceStatus, len(l.clock))
	}
	st.VirtualSeconds, st.Edges, st.Execs, st.Crashes = t, l.Union.Count(), 0, 0
	for i := range st.Instances {
		g := l.src.Gauge(i)
		st.Instances[i] = telemetry.InstanceStatus{Index: i, VirtualSeconds: l.clock[i],
			Edges: g.Edges, Execs: g.Execs, Crashes: g.Crashes, Mutations: g.Mutations,
			CorpusSeeds: g.Corpus, Config: l.src.Config(i)}
		st.Execs += g.Execs
		st.Crashes += g.Crashes
	}
	tel.Publish(*st)
}
