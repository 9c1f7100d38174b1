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
	RestartFails  int
	Execs         int    // replayed steps since (re)boot: the engine's Execs counter
	Coverage      int    // the instance's own edge count at the replay position
	Config        string // its configuration at the replay position
	// Mirror replays the instance's corpus — every new-edges record's seed
	// and every sync import, in the engine's order — so its Export is the
	// engine's at the loop's position.
	Mirror  *Mirror
	Pending []fuzz.Seed // seeds collected at sync, imported by the next lease
	Batch   []LeaseStep // the lease being replayed, from Pos on
	Pos     int
}

// A BootReport is what booting an instance reports: its configuration,
// the edges its startup covered, its whole coverage map as a delta, and
// the crashes startup hit, in order (those also when the boot failed).
type BootReport struct {
	Config     string
	StartEdges int
	Delta      []byte
	Crashes    []CrashRec
}

// A Transport is where a LeaseSource's instances live and its leases run
// (goroutines of this process, or a dist coordinator's workers). A lease
// imports seeds, then steps until the clock crosses boundary or the
// horizon; Await returns ctx.Err(), consuming nothing, if ctx ends first.
type Transport struct {
	Boot  func(i int) (BootReport, error)
	Send  func(i int, seeds []fuzz.Seed, boundary float64)
	Await func(ctx context.Context, i int) ([]LeaseStep, error)
}

// A LeaseSource is the event loop's Source for instances that run in
// leases (Instance.RunLease), one at a time per instance, from one of
// their syncs to the next: it replays their records in (clock, index)
// order and keeps the books, and its Transport says where the instances
// are. It is the only Source outside tests, for Run and the dist
// coordinator alike. Its replay matches instances stepped one at a time:
// records reach the loop in the order the instance produced them, each
// delta was cut before any restart (StepN), and each mirror holds the
// seeds the instance's corpus holds at the loop's position (digests, and
// the messages of every seed a sync may export).
type LeaseSource struct {
	Inst  []Replica
	Specs []InstanceSpec
	cur   *LeaseStep // the record the loop is on
	loop  *Loop
	t     Transport
}

// NewLeaseSource returns l's source over t for the planned specs.
func NewLeaseSource(l *Loop, specs []InstanceSpec, t Transport) *LeaseSource {
	return &LeaseSource{Inst: make([]Replica, len(specs)), Specs: specs, loop: l, t: t}
}

// Boot boots instance i through the transport and files the report: its
// startup crashes go into the ledger in order, then err is returned if
// the boot failed; otherwise the startup coverage goes into the union and
// the replica starts from the report, as the freshly booted instance
// does.
func (s *LeaseSource) Boot(i int) (int, error) {
	rep, err := s.t.Boot(i)
	for k := range rep.Crashes {
		cr := &rep.Crashes[k]
		s.loop.Res.Bugs.Record(&cr.Crash, cr.Instance, cr.T, cr.Config)
	}
	if err != nil {
		return 0, err
	}
	if _, err := s.loop.Union.ApplyDelta(rep.Delta); err != nil {
		return 0, fmt.Errorf("parallel: instance %d: startup coverage: %w", i, err)
	}
	s.Inst[i] = Replica{Config: rep.Config, Coverage: rep.StartEdges, Mirror: NewMirror()}
	return rep.StartEdges, nil
}

// Step replays instance i's next record, awaiting its lease when the
// batch is exhausted.
func (s *LeaseSource) Step(ctx context.Context, i int) (Step, error) {
	in := &s.Inst[i]
	for in.Pos >= len(in.Batch) {
		recs, err := s.t.Await(ctx, i)
		if err != nil {
			return Step{}, err
		}
		in.Batch, in.Pos = recs, 0
	}
	s.cur = &in.Batch[in.Pos]
	in.Pos++
	in.Execs++
	if s.cur.Crash != nil {
		in.Crashes++
	}
	return s.cur.Step, nil
}

// Done sends instance i its next lease once its batch is replayed, unless
// it has run out the horizon. The lease takes the seeds the last sync
// collected, which it imports first.
func (s *LeaseSource) Done(i int) {
	if in := &s.Inst[i]; in.Pos >= len(in.Batch) && s.loop.clock[i] < s.loop.horizon {
		seeds := in.Pending
		in.Pending, in.Batch, in.Pos = nil, nil, 0
		s.t.Send(i, seeds, s.loop.nextSync[i])
	}
}

func (s *LeaseSource) Config(i int) string { return s.Inst[i].Config }

// Merge applies the record's coverage delta. The instance's own map grew
// by exactly NewEdges, and its corpus gained the seed; both follow.
func (s *LeaseSource) Merge(i int, union *coverage.Map) error {
	in := &s.Inst[i]
	if _, err := union.ApplyDelta(s.cur.Delta); err != nil {
		return fmt.Errorf("parallel: instance %d: coverage delta: %w", i, err)
	}
	in.Coverage += s.cur.NewEdges
	in.Mirror.Add(s.cur.Seed, s.cur.Digest, s.cur.Ship)
	return nil
}

func (s *LeaseSource) Gauge(i int) Gauge {
	in := &s.Inst[i]
	return Gauge{Edges: in.Coverage, Execs: in.Execs, Crashes: in.Crashes, Mutations: in.Muts, Corpus: in.Mirror.Len()}
}

// Sync exports from every other instance's mirror at this loop position.
// The seeds merge into i's mirror now and reach the instance with its
// next lease, before it steps again (a horizon-crossing sync's never do:
// it never steps again). A mirror that cannot export, because a record
// left out the messages of a seed that reached its export floor, fails
// the campaign before any lease carries the sync's imports.
func (s *LeaseSource) Sync(i int) (int, error) {
	var all []fuzz.Seed
	for j := range s.Inst {
		if j != i {
			seeds, err := s.Inst[j].Mirror.Export(fuzz.SyncSeeds)
			if err != nil {
				return 0, fmt.Errorf("parallel: sync of instance %d: instance %d %w", i, j, err)
			}
			all = append(all, seeds...)
		}
	}
	s.Inst[i].Mirror.Import(all)
	s.Inst[i].Pending = all
	return len(all), nil
}

// Saturated reports whether saturation fired on this step: whether the
// record carries a mutation. The lease ran the mutation already, which
// commutes with the step's sync.
func (s *LeaseSource) Saturated(int) bool { return s.cur.Mutation != nil }

// Mutate replays the recorded mutation: its restart crashes into the
// ledger in order, its outcome to the loop.
func (s *LeaseSource) Mutate(i int) MutationOutcome {
	in, out := &s.Inst[i], s.cur.Mutation
	for k := range out.Crashes {
		cr := &out.Crashes[k]
		s.loop.Res.Bugs.Record(&cr.Crash, cr.Instance, cr.T, cr.Config)
	}
	in.Muts += out.Mutations
	in.RestartFails += out.RestartFails
	in.Config = out.Config
	// A restart absorbed fresh startup coverage into the instance's map:
	// resync to the post-absorb edge count the outcome carries.
	in.Coverage = out.Coverage
	return *out
}

// Result summarizes instance i from its replayed counters.
func (s *LeaseSource) Result(i int) (InstanceResult, error) {
	in := &s.Inst[i]
	return InstanceResult{
		Index:           s.Specs[i].Index,
		Config:          in.Config,
		Group:           s.Specs[i].Group.Members,
		FinalBranches:   in.Coverage,
		Execs:           in.Execs,
		Crashes:         in.Crashes,
		ConfigMutations: in.Muts,
		RestartFailures: in.RestartFails,
	}, nil
}

// goLeases is Run's transport: the instances live in this process and
// each lease runs on a goroutine of its own, as on a dist worker's lane.
// With at most one lease in flight per instance, the instances run side
// by side and share nothing.
type goLeases struct {
	loop     *Loop
	specs    []InstanceSpec
	insts    []*Instance
	inflight []chan leaseEnd // per instance, its latest lease
	leases   sync.WaitGroup
}

// leaseEnd is a lease's records, or the value it panicked with.
type leaseEnd struct {
	recs     []LeaseStep
	panicked any
}

func (g *goLeases) boot(i int) (BootReport, error) {
	in, rep, err := g.loop.host.Boot(g.specs[i])
	if err == nil {
		g.insts = append(g.insts, in)
	}
	return rep, err
}

func (g *goLeases) send(i int, seeds []fuzz.Seed, boundary float64) {
	end := make(chan leaseEnd, 1)
	g.inflight[i] = end
	in, horizon, parent := g.insts[i], g.loop.horizon, g.loop.spans[i]
	g.leases.Add(1)
	go func() {
		defer g.leases.Done()
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

// await takes instance i's lease; its panic re-raises here, on the
// loop's goroutine.
func (g *goLeases) await(ctx context.Context, i int) ([]LeaseStep, error) {
	select {
	case end := <-g.inflight[i]:
		if end.panicked != nil {
			panic(end.panicked)
		}
		return end.recs, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// close joins every lease still in flight and closes the instances.
func (g *goLeases) close() {
	g.leases.Wait()
	for _, in := range g.insts {
		in.Close()
	}
}
