package parallel

import (
	"context"
	"fmt"
	"sync"

	"cmfuzz/internal/coverage"
	"cmfuzz/internal/fuzz"
)

// A Replica is the event loop's picture of one instance that runs in
// leases, rebuilt from its records. The instance may be a lease ahead of
// the loop, so everything the loop reads of it comes from here.
type Replica struct {
	Crashes, Muts int
	RestartFails  int    // not checkpointed: dist reads summaries from its workers
	Execs         int    // replayed steps since (re)boot: the engine's Execs counter
	Coverage      int    // the instance's own edge count at the replay position
	Config        string // its configuration at the replay position
	StartEdges    int
	// Mirror replays the instance's corpus — every new-edges record's seed
	// and every sync import, in the engine's order — so its Export is the
	// engine's at the loop's position.
	Mirror  *fuzz.Corpus
	Pending []fuzz.Seed // seeds collected at sync, imported by the next lease
	Batch   []LeaseStep // the lease being replayed, from Pos on
	Pos     int
}

// Replay is the record-replay half of a Source whose instances run in
// leases (Instance.RunLease): Config, Merge, Gauge, Sync, Saturated and
// Mutate. The embedding source supplies Boot, Step (over Next), Done
// (over Exhausted and Lease) and Result. It matches instances stepped one
// at a time because records reach the loop in the order the instance
// produced them, each delta was cut before any restart (StepN), and each
// mirror holds what the instance's corpus holds at the loop's position.
type Replay struct {
	Inst []Replica
	cur  *LeaseStep // the record the loop is on
}

// NewReplay returns the replay of n instances that have not run yet.
func NewReplay(n int) Replay {
	r := Replay{Inst: make([]Replica, n)}
	for i := range r.Inst {
		r.Inst[i].Mirror = fuzz.NewCorpus(0)
	}
	return r
}

// Booted records instance i's boot under config.
func (r *Replay) Booted(i int, config string, startEdges int) {
	r.Inst[i].Config, r.Inst[i].StartEdges, r.Inst[i].Coverage = config, startEdges, startEdges
}

// Next moves instance i to its next record and returns it, or reports
// false when the batch is exhausted.
func (r *Replay) Next(i int) (Step, bool) {
	in := &r.Inst[i]
	if in.Pos >= len(in.Batch) {
		return Step{}, false
	}
	r.cur = &in.Batch[in.Pos]
	in.Pos++
	in.Execs++
	if r.cur.Crash != nil {
		in.Crashes++
	}
	return r.cur.Step, true
}

// Exhausted reports whether instance i has no record left to replay.
func (r *Replay) Exhausted(i int) bool { return r.Inst[i].Pos >= len(r.Inst[i].Batch) }

// Lease starts instance i's next lease: it takes the seeds the last sync
// collected, which the lease imports first.
func (r *Replay) Lease(i int) []fuzz.Seed {
	in := &r.Inst[i]
	seeds := in.Pending
	in.Pending, in.Batch, in.Pos = nil, nil, 0
	return seeds
}

// Fill hands instance i the records its lease returned.
func (r *Replay) Fill(i int, recs []LeaseStep) { r.Inst[i].Batch, r.Inst[i].Pos = recs, 0 }

func (r *Replay) Config(i int) string { return r.Inst[i].Config }

// Merge applies the record's coverage delta. The instance's own map grew
// by exactly NewEdges, and its corpus gained the seed; both follow.
func (r *Replay) Merge(i int, union *coverage.Map) error {
	in := &r.Inst[i]
	if _, err := union.ApplyDelta(r.cur.Delta); err != nil {
		return fmt.Errorf("parallel: instance %d: coverage delta: %w", i, err)
	}
	in.Coverage += r.cur.NewEdges
	in.Mirror.Add(r.cur.Seed)
	return nil
}

func (r *Replay) Gauge(i int) Gauge {
	in := &r.Inst[i]
	return Gauge{Edges: in.Coverage, Execs: in.Execs, Crashes: in.Crashes, Mutations: in.Muts, Corpus: in.Mirror.Len()}
}

// Sync exports from every other instance's mirror at this loop position.
// The seeds merge into i's mirror now and reach the instance with its
// next lease, before it steps again (a horizon-crossing sync's never do:
// it never steps again).
func (r *Replay) Sync(i int) int {
	var all []fuzz.Seed
	for j := range r.Inst {
		if j != i {
			all = append(all, r.Inst[j].Mirror.Export(4)...)
		}
	}
	for _, s := range all {
		r.Inst[i].Mirror.Add(s)
	}
	r.Inst[i].Pending = all
	return len(all)
}

// Saturated reports whether saturation fired on this step; the lease ran
// the mutation already, which commutes with the step's sync.
func (r *Replay) Saturated(int) bool { return r.cur.SatFired }

// Mutate replays the recorded mutation: its restart crashes into sink,
// its outcome to the loop.
func (r *Replay) Mutate(i int, sink CrashSink) MutationOutcome {
	in, rec := &r.Inst[i], r.cur
	for k := range rec.MutationCrashes {
		cr := &rec.MutationCrashes[k]
		sink.Record(&cr.Crash, cr.Instance, cr.T, cr.Config)
	}
	in.Muts += rec.Mutation.Mutations
	in.RestartFails += rec.Mutation.RestartFails
	in.Config = rec.Config
	// A restart absorbed fresh startup coverage into the instance's map:
	// resync to the post-absorb edge count the record carries.
	in.Coverage = rec.Coverage
	return *rec.Mutation
}

// leaseSource runs Run's instances in this process, each on a goroutine
// of its own from one of its syncs to the next (RunLease, as a dist
// worker's lane does), and replays their records in (clock, index) order
// (Replay, as the dist coordinator does). With at most one lease in
// flight per instance, the instances run side by side and every artifact
// is a function of the records alone, at any GOMAXPROCS.
type leaseSource struct {
	Replay
	loop     *Loop
	specs    []InstanceSpec
	insts    []*Instance
	inflight []chan leaseEnd // per instance; nil when no lease is out
	leases   sync.WaitGroup
}

// leaseEnd is a lease's records, or the value it panicked with.
type leaseEnd struct {
	recs     []LeaseStep
	panicked any
}

func newLeaseSource(l *Loop, specs []InstanceSpec) *leaseSource {
	return &leaseSource{Replay: NewReplay(len(specs)), loop: l, specs: specs, inflight: make([]chan leaseEnd, len(specs))}
}

func (s *leaseSource) Boot(i int) (int, error) {
	in, err := s.loop.host.Boot(s.specs[i], s.loop.Res.Bugs)
	if err != nil {
		return 0, err
	}
	s.insts = append(s.insts, in)
	s.loop.Union.Union(in.engine.CoverageMap())
	s.Booted(i, in.cfg.String(), in.startEdges)
	return in.startEdges, nil
}

// Step replays instance i's next record, waiting for its lease when the
// batch is exhausted; a lease's panic re-raises here, on the loop's
// goroutine.
func (s *leaseSource) Step(ctx context.Context, i int) (Step, error) {
	for {
		if step, ok := s.Next(i); ok {
			return step, nil
		}
		if s.inflight[i] == nil {
			return Step{}, fmt.Errorf("parallel: instance %d has no lease in flight", i)
		}
		select {
		case end := <-s.inflight[i]:
			s.inflight[i] = nil
			if end.panicked != nil {
				panic(end.panicked)
			}
			s.Fill(i, end.recs)
		case <-ctx.Done():
			return Step{}, ctx.Err()
		}
	}
}

// Done hands instance i its next lease once its batch is replayed, unless
// it has run out the horizon.
func (s *leaseSource) Done(i int) {
	if s.Exhausted(i) && s.loop.Clock[i] < s.loop.horizon {
		s.dispatch(i)
	}
}

func (s *leaseSource) dispatch(i int) {
	end := make(chan leaseEnd, 1)
	s.inflight[i] = end
	in, seeds, boundary, horizon, parent := s.insts[i], s.Lease(i), s.loop.NextSync[i], s.loop.horizon, s.loop.spans[i]
	s.leases.Add(1)
	go func() {
		defer s.leases.Done()
		var e leaseEnd
		defer func() { e.panicked = recover(); end <- e }()
		span := parent.Child("instance.lease")
		defer span.End()
		var syncDue bool
		e.recs, syncDue = in.RunLease(seeds, boundary, horizon)
		span.Set("records", len(e.recs))
		span.Set("sync_due", syncDue)
	}()
}

func (s *leaseSource) Result(i int) (InstanceResult, error) {
	in := &s.Inst[i]
	return InstanceResult{
		Index:           s.specs[i].Index,
		Config:          in.Config,
		Group:           s.specs[i].Group.Members,
		FinalBranches:   in.Coverage,
		Execs:           in.Execs,
		Crashes:         in.Crashes,
		ConfigMutations: in.Muts,
		RestartFailures: in.RestartFails,
	}, nil
}

// close joins every lease still in flight and closes the instances.
func (s *leaseSource) close() {
	s.leases.Wait()
	for _, in := range s.insts {
		in.Close()
	}
}
