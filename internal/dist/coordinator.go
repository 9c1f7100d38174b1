package dist

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/fuzz"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/telemetry"
	"cmfuzz/internal/telemetry/trace"
)

// Config tunes the coordinator's failure detection. The zero value gets
// sensible defaults; the campaign semantics (and hence the Result) do
// not depend on any of these — they only decide how fast a dead worker
// is noticed.
type Config struct {
	// RPCTimeout bounds every request/response exchange, including the
	// execution of a whole lease batch worker-side (default 30s).
	RPCTimeout time.Duration
	// HeartbeatInterval is how often idle workers are pinged
	// (default 2s). Zero keeps the default; negative disables
	// heartbeats (useful for deterministic tests).
	HeartbeatInterval time.Duration
	// PingRetries is how many extra pings a silent worker gets, with
	// jittered exponential backoff between attempts, before it is
	// declared dead (default 3).
	PingRetries int
}

func (c *Config) setDefaults() {
	if c.RPCTimeout == 0 {
		c.RPCTimeout = 30 * time.Second
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 2 * time.Second
	}
	if c.PingRetries == 0 {
		c.PingRetries = 3
	}
}

var errWorkerDead = errors.New("dist: worker is dead")

// errPaused is fill's signal that the caller's context fired while a
// lease reply was pending. The reply channel is buffered, so the
// dispatcher is never blocked by the abandoned wait; the reply is
// consumed by the next Advance (or by the checkpoint drain).
var errPaused = errors.New("dist: advance interrupted")

// workerConn is the coordinator's view of one connected worker. The
// connection mutex serializes RPCs; the heartbeat goroutine uses
// TryLock so it never queues behind (or splices frames into) an
// in-flight campaign RPC — a pending reply already proves liveness.
type workerConn struct {
	id   int
	name string
	conn net.Conn
	br   *bufio.Reader
	fw   frameWriter // reusable frame scratch, guarded by mu

	mu        sync.Mutex
	dead      atomic.Bool
	lastReply atomic.Int64 // unix nanos of the last frame received
	execs     atomic.Int64 // cumulative execs across this worker's instances
	syncBytes atomic.Int64 // cumulative sync payload bytes shipped
}

// rpc performs one request/response exchange under the per-RPC
// deadline. Stale Pongs (late heartbeat replies) are skipped: Pongs are
// empty and interchangeable, so dropping one loses nothing. Any framing
// or deadline error kills the connection — a partially read frame
// cannot be resynchronized.
func (wc *workerConn) rpc(typ byte, payload []byte, want byte, timeout time.Duration) ([]byte, error) {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	return wc.rpcLocked(typ, payload, want, timeout)
}

func (wc *workerConn) rpcLocked(typ byte, payload []byte, want byte, timeout time.Duration) ([]byte, error) {
	if wc.dead.Load() {
		return nil, errWorkerDead
	}
	wc.conn.SetDeadline(time.Now().Add(timeout))
	defer wc.conn.SetDeadline(time.Time{})
	if err := wc.fw.write(wc.conn, typ, payload); err != nil {
		wc.dead.Store(true)
		return nil, err
	}
	for {
		rtyp, rp, err := readFrame(wc.br)
		if err != nil {
			wc.dead.Store(true)
			return nil, err
		}
		wc.lastReply.Store(time.Now().UnixNano())
		if rtyp == msgPong && want != msgPong {
			continue
		}
		if rtyp == msgError {
			return nil, fmt.Errorf("dist: worker %q: %s", wc.name, rp)
		}
		if rtyp != want {
			wc.dead.Store(true)
			return nil, fmt.Errorf("dist: worker %q: got message %d, want %d", wc.name, rtyp, want)
		}
		return rp, nil
	}
}

// WorkerStatus is a point-in-time snapshot of one worker, for the
// monitor bridge.
type WorkerStatus struct {
	Name      string
	Alive     bool
	Execs     int64
	SyncBytes int64
	LastReply time.Time
}

// An Observer receives dist-layer operational callbacks. Like Stats it
// lives outside the telemetry counter map — wire timings and byte
// counts must never leak into campaign artifacts. The zero Observer is
// a no-op.
type Observer struct {
	// Lease fires after every successful lease round-trip with the
	// replayable record count, request/reply payload sizes, and the
	// wall-clock round-trip time. Called from per-worker dispatcher
	// goroutines; implementations must be safe for concurrent use.
	Lease func(instance, records, reqBytes, repBytes int, seconds float64, syncDue bool)
	// Death fires when the campaign loop declares a worker dead, once
	// per worker per campaign (after the Stats/telemetry accounting).
	Death func(worker string)
}

// Stats aggregates the distributed-run bookkeeping that exists only in
// dist (lease traffic, failures). It deliberately lives outside the
// telemetry counter map: byte counts depend on wire encoding, and
// folding them into counters would break the byte-identity guarantee
// against in-process runs.
type Stats struct {
	// SyncBytes is the total lease traffic: request plus reply payload
	// bytes across every lease RPC (the campaign's entire steady-state
	// wire volume — seeds out, step records back).
	SyncBytes     int64
	WorkerDeaths  int
	Reassignments int
}

// A Coordinator owns the global half of one distributed campaign: the
// scheduling plan, the virtual-clock event loop, the union coverage
// map, the series, the ledger, and telemetry. Workers own the
// instances. For the same subject, options, and seed, Run produces a
// Result byte-identical to parallel.Run's.
//
// The campaign lifecycle is decomposed so a scheduler can multiplex
// many campaigns over one pool and survive restarts:
//
//	Start    plan, assign, boot, dispatch the first leases
//	Advance  replay the event loop up to a virtual-clock bound
//	Checkpoint / Restore   serialize between Advance slices
//	Finish   collect per-instance results, seal the Result
//	Close    join dispatchers, release or shut down the fleet
//
// Run composes them for the classic single-campaign shape.
type Coordinator struct {
	sub       subject.Subject
	opts      parallel.Options
	cfg       Config
	pool      *Pool
	ownPool   bool
	partition *Partition
	campaign  uint32

	syncBytes     atomic.Int64
	workerDeaths  atomic.Int64
	reassignments atomic.Int64

	dispWG sync.WaitGroup

	st *runState
	// tracer is the campaign tracer (nil when tracing is off): worker
	// span records from lease replies are ingested into it under
	// per-worker process lanes.
	tracer *trace.Tracer
	obs    Observer
	// deathCounted dedups worker-death accounting per campaign (the
	// replay loop may notice the same dead worker many times; a shared
	// pool may have many campaigns each noticing it once).
	deathCounted map[*workerConn]bool
	endRun       func()
	instSpans    []*trace.Span
	watermark    float64
	lastSample   float64
	minSampleGap float64
	cancelled    bool
	finished     bool
	closed       bool
	// checkpointed holds while the blob the last Checkpoint returned (or
	// Restore loaded) still describes the replay state: every dispatched
	// lease and every replayed record clears it.
	checkpointed bool
}

// NewCoordinator prepares a standalone coordinator for one campaign of
// sub under opts, with a private worker pool. Workers attach via
// AddConn before Run is called.
func NewCoordinator(sub subject.Subject, opts parallel.Options, cfg Config) *Coordinator {
	cfg.setDefaults()
	return &Coordinator{
		sub:          sub,
		opts:         opts,
		cfg:          cfg,
		pool:         NewPool(cfg),
		ownPool:      true,
		deathCounted: make(map[*workerConn]bool),
	}
}

// NewCoordinatorOn prepares a coordinator that shares an existing
// worker pool with other campaigns. The pool outlives the campaign:
// Close releases this campaign's instances (msgRelease) but leaves the
// connections and heartbeats to the pool's owner.
func NewCoordinatorOn(pool *Pool, sub subject.Subject, opts parallel.Options) *Coordinator {
	return &Coordinator{
		sub:          sub,
		opts:         opts,
		cfg:          pool.cfg,
		pool:         pool,
		campaign:     pool.NextCampaignID(),
		deathCounted: make(map[*workerConn]bool),
	}
}

// AddConn registers a freshly accepted worker connection on the
// coordinator's private pool.
func (c *Coordinator) AddConn(conn net.Conn) error { return c.pool.AddConn(conn) }

// Workers snapshots every registered worker for the monitor bridge.
func (c *Coordinator) Workers() []WorkerStatus { return c.pool.Workers() }

// SetObserver installs obs. Call before Start or Restore; the campaign
// never mutates it afterwards.
func (c *Coordinator) SetObserver(obs Observer) { c.obs = obs }

// SetPartition restricts the campaign to a leased partition of the
// shared pool: Start/Restore capture the partition's live members as
// the worker set instead of the whole pool, so concurrent campaigns
// on disjoint partitions never touch each other's connections. Call
// before Start or Restore. The caller keeps ownership of the
// partition (Close does not Release it).
func (c *Coordinator) SetPartition(pt *Partition) { c.partition = pt }

// workerSet captures the campaign's workers: the partition's live
// members when one is set, otherwise the whole pool.
func (c *Coordinator) workerSet() ([]*workerConn, error) {
	if c.partition != nil {
		workers := c.partition.live()
		if len(workers) == 0 {
			return nil, errors.New("dist: partition has no live workers")
		}
		return workers, nil
	}
	workers := c.pool.snapshot()
	if len(workers) == 0 {
		return nil, errors.New("dist: no workers connected")
	}
	return workers, nil
}

// Checkpointed reports whether the campaign is exactly where its last
// Checkpoint (or the checkpoint it was Restored from) left it: nothing
// replayed, nothing dispatched, no lease in flight since. A scheduler
// that persisted that blob can set such a coordinator aside and pick it
// up later — or drop it and Restore from disk — without writing again.
func (c *Coordinator) Checkpointed() bool { return c.checkpointed && !c.closed }

// Stats reports the dist-only bookkeeping. Safe to call concurrently
// with Run.
func (c *Coordinator) Stats() Stats {
	return Stats{
		SyncBytes:     c.syncBytes.Load(),
		WorkerDeaths:  int(c.workerDeaths.Load()),
		Reassignments: int(c.reassignments.Load()),
	}
}

// alive returns the live worker whose id is at or after from, wrapping
// around; nil when every worker is dead.
func (c *Coordinator) alive(from int) *workerConn {
	workers := c.st.workers
	n := len(workers)
	for k := 0; k < n; k++ {
		wc := workers[(from+k)%n]
		if !wc.dead.Load() {
			return wc
		}
	}
	return nil
}

// leaseJournal is one dispatched lease, remembered so Restore can
// replay the instance's exact post-boot history: re-sending the same
// boundaries and seed imports to a freshly booted instance reconstructs
// the engine, corpus, RNG, and saturation state deterministically.
type leaseJournal struct {
	Boundary float64
	Seeds    []fuzz.Seed
}

// runState is the coordinator-owned per-instance campaign state — the
// exact fields the in-process event loop keeps on its Instance structs,
// plus the replay bookkeeping the lease protocol needs: a corpus mirror
// per instance (so sync exports are computed locally at the exact
// event-loop position, without a wire round-trip) and the in-flight
// lease batches being replayed.
type runState struct {
	host       *parallel.Host
	opts       parallel.Options
	specs      []parallel.InstanceSpec
	workers    []*workerConn // pool snapshot taken at Start/Restore
	owner      []*workerConn
	clock      []float64
	nextSync   []float64
	crashes    []int
	muts       []int
	execs      []int // replayed steps since (re)boot — the engine's Execs counter
	curCov     []int // instance's own edge count at the replay position
	curConfig  []string
	startEdges []int
	// mirror replays each instance's corpus: Add on every new-edges
	// record, plus the sync imports, in the same order the worker-side
	// engine applies them, so mirror.Export == worker ExportSeeds.
	mirror  []*fuzz.Corpus
	pending [][]fuzz.Seed // seeds collected at sync, shipped with the next lease
	// batch/pos is the lease reply currently being replayed; inflight
	// marks a dispatched lease whose reply has not been consumed.
	batch    [][]leaseRecord
	pos      []int
	inflight []bool
	replyCh  []chan leaseReply
	// jobs are the per-worker dispatcher queues; slot maps a worker to
	// its position in the workers slice (pool-global ids don't index a
	// partition subset, so both are keyed by connection).
	jobs map[*workerConn]chan leaseJob
	slot map[*workerConn]int
	// journal/resumeClock record each instance's lease history since its
	// last (re)boot, for checkpoint/resume replay.
	journal     [][]leaseJournal
	resumeClock []float64
	horizon     float64
	res         *parallel.Result
	global      *coverage.Map
	tel         *telemetry.Recorder
}

// A leaseJob is one lease RPC queued on a worker's dispatcher.
type leaseJob struct {
	instance int
	payload  []byte
	ch       chan leaseReply
}

// A leaseReply is a decoded lease result (or the transport/decode
// failure that killed it).
type leaseReply struct {
	recs    []leaseRecord
	syncDue bool
	err     error
}

// dispatcher owns this campaign's lease traffic for one worker: jobs
// are executed strictly in FIFO order (wc.mu serializes the round-trips
// against heartbeats and other campaigns), so leases for different
// instances on the same worker pipeline without interleaving frames. It
// exits when jobs closes.
func (c *Coordinator) dispatcher(wc *workerConn, jobs <-chan leaseJob) {
	defer c.dispWG.Done()
	for job := range jobs {
		t0 := time.Now()
		p, err := wc.rpc(msgLease, job.payload, msgLeaseResult, c.cfg.RPCTimeout)
		if err != nil {
			job.ch <- leaseReply{err: err}
			continue
		}
		recs, syncDue, spans, workerNow, err := decodeLeaseResult(p)
		if err != nil {
			wc.dead.Store(true)
			job.ch <- leaseReply{err: err}
			continue
		}
		if len(recs) == 0 {
			// A lease always executes at least one step (the budget is
			// checked after stepping); an empty reply means the worker
			// lost its instance state.
			wc.dead.Store(true)
			job.ch <- leaseReply{err: errors.New("dist: empty lease reply")}
			continue
		}
		if len(spans) > 0 {
			// Align the worker timeline to ours: the worker's clock read
			// at encode time maps to now, so worker spans land where the
			// reply arrived (shifted late by the return wire time — a
			// bounded skew this layer cannot observe, documented in
			// DESIGN.md).
			c.tracer.IngestForeign(wc.name, c.tracer.Now()-workerNow, spans)
		}
		wc.execs.Add(int64(len(recs)))
		nb := int64(len(job.payload) + len(p))
		wc.syncBytes.Add(nb)
		c.syncBytes.Add(nb)
		if c.obs.Lease != nil {
			c.obs.Lease(job.instance, len(recs), len(job.payload), len(p), time.Since(t0).Seconds(), syncDue)
		}
		job.ch <- leaseReply{recs: recs, syncDue: syncDue}
	}
}

// dispatch hands instance i its next lease: the seeds its last sync
// collected, and a budget up to its next sync boundary or the horizon.
func (c *Coordinator) dispatch(st *runState, i int) {
	l := lease{Campaign: c.campaign, Index: i, Boundary: st.nextSync[i], Horizon: st.horizon, Seeds: st.pending[i]}
	st.journal[i] = append(st.journal[i], leaseJournal{Boundary: st.nextSync[i], Seeds: st.pending[i]})
	c.checkpointed = false
	st.pending[i] = nil
	st.batch[i] = nil
	st.pos[i] = 0
	st.inflight[i] = true
	st.jobs[st.owner[i]] <- leaseJob{instance: i, payload: encodeLease(l), ch: st.replyCh[i]}
}

// fill consumes instance i's in-flight lease reply into its batch,
// keeping any not-yet-replayed records. A lease that fails because its
// worker died is retried whole on a surviving worker: the reply is
// all-or-nothing, so zero records were replayed and the re-booted
// instance resumes at the lease's start clock — which is exactly the
// coordinator's current clock for i. A cancelled ctx returns errPaused
// without consuming anything (the buffered reply channel means the
// dispatcher never blocks on the abandoned wait).
func (c *Coordinator) fill(ctx context.Context, st *runState, i int) error {
	if !st.inflight[i] {
		return fmt.Errorf("dist: instance %d has no lease in flight", i)
	}
	var rep leaseReply
	select {
	case rep = <-st.replyCh[i]:
	default:
		select {
		case rep = <-st.replyCh[i]:
		case <-ctx.Done():
			return errPaused
		}
	}
	st.inflight[i] = false
	if rep.err != nil {
		wc := st.owner[i]
		if !wc.dead.Load() {
			return rep.err // application error: campaign-fatal
		}
		c.markDead(wc, st.tel)
		if rerr := c.reassign(st, i); rerr != nil {
			return rerr
		}
		c.dispatch(st, i)
		return nil
	}
	if rest := st.batch[i][st.pos[i]:]; len(rest) > 0 {
		merged := make([]leaseRecord, 0, len(rest)+len(rep.recs))
		st.batch[i] = append(append(merged, rest...), rep.recs...)
	} else {
		st.batch[i] = rep.recs
	}
	st.pos[i] = 0
	return nil
}

// nextRecord returns instance i's next replay record, blocking on the
// in-flight lease reply when the current batch is exhausted.
func (c *Coordinator) nextRecord(ctx context.Context, st *runState, i int) (*leaseRecord, bool, error) {
	for st.pos[i] >= len(st.batch[i]) {
		if err := c.fill(ctx, st, i); err != nil {
			return nil, false, err
		}
	}
	rec := &st.batch[i][st.pos[i]]
	st.pos[i]++
	return rec, st.pos[i] >= len(st.batch[i]), nil
}

// markDead records a worker failure exactly once per campaign (campaign
// loop only).
func (c *Coordinator) markDead(wc *workerConn, tel *telemetry.Recorder) {
	wc.dead.Store(true)
	if !c.deathCounted[wc] {
		c.deathCounted[wc] = true
		c.workerDeaths.Add(1)
		tel.Count(telemetry.CtrWorkerDeaths, 1)
		if c.obs.Death != nil {
			c.obs.Death(wc.name)
		}
	}
}

// bootOn boots instance i on wc (resuming at resumeClock), replays the
// startup crash records into the ledger, and merges the startup
// coverage delta into the global map.
func (c *Coordinator) bootOn(wc *workerConn, st *runState, i int, resumeClock float64) error {
	p, err := wc.rpc(msgBoot, encodeBootReq(bootReq{Campaign: c.campaign, Index: i, ResumeClock: resumeClock}), msgBootResult, c.cfg.RPCTimeout)
	if err != nil {
		return err
	}
	br, err := decodeBootResult(p)
	if err != nil {
		wc.dead.Store(true)
		return err
	}
	for _, cr := range br.Crashes {
		crash := cr.Crash
		st.res.Bugs.Record(&crash, cr.Instance, cr.T, cr.Config)
	}
	if br.Err != "" {
		return errors.New(br.Err)
	}
	if _, err := st.global.ApplyDelta(br.Delta); err != nil {
		wc.dead.Store(true)
		return err
	}
	st.owner[i] = wc
	st.curConfig[i] = br.Config
	st.startEdges[i] = br.StartEdges
	st.curCov[i] = br.StartEdges
	return nil
}

// bootQuiet re-boots instance i on wc at resumeClock during Restore,
// discarding the startup crash records and coverage delta — the
// checkpointed ledger and global map already contain them. Only the
// owner assignment survives; config/edges bookkeeping is restored from
// the checkpoint.
func (c *Coordinator) bootQuiet(wc *workerConn, st *runState, i int, resumeClock float64) error {
	p, err := wc.rpc(msgBoot, encodeBootReq(bootReq{Campaign: c.campaign, Index: i, ResumeClock: resumeClock}), msgBootResult, c.cfg.RPCTimeout)
	if err != nil {
		return err
	}
	br, err := decodeBootResult(p)
	if err != nil {
		wc.dead.Store(true)
		return err
	}
	if br.Err != "" {
		return errors.New(br.Err)
	}
	st.owner[i] = wc
	return nil
}

// reassign moves instance i off its dead owner onto the next live
// worker, resuming at the coordinator-owned clock. The dead worker's
// corpus progress for the instance is lost — the fresh instance reboots
// from its original spec — but the global map, series, ledger, and
// schedule are coordinator-owned and survive intact.
func (c *Coordinator) reassign(st *runState, i int) error {
	for {
		wc := c.alive(st.slot[st.owner[i]] + 1)
		if wc == nil {
			return errors.New("dist: no live workers left")
		}
		c.reassignments.Add(1)
		st.tel.Count(telemetry.CtrReassignments, 1)
		err := c.bootOn(wc, st, i, st.clock[i])
		if err == nil {
			st.tel.Count(telemetry.CtrBoots, 1)
			// The fresh instance starts with an empty corpus and a zeroed
			// exec counter; the mirror must match it. The lease journal
			// restarts from this boot, too.
			st.execs[i] = 0
			st.mirror[i] = fuzz.NewCorpus(0)
			st.journal[i] = nil
			st.resumeClock[i] = st.clock[i]
			return nil
		}
		if wc.dead.Load() {
			c.markDead(wc, st.tel)
			st.owner[i] = wc // advance the search past this worker
			continue
		}
		return err // application-level boot failure: campaign-fatal, as in-process
	}
}

// rpcI sends one instance-targeted RPC, transparently reassigning the
// instance and retrying when its owner has died.
func (c *Coordinator) rpcI(st *runState, i int, typ byte, payload []byte, want byte) ([]byte, error) {
	for {
		wc := st.owner[i]
		p, err := wc.rpc(typ, payload, want, c.cfg.RPCTimeout)
		if err == nil {
			return p, nil
		}
		if !wc.dead.Load() {
			return nil, err // worker alive but request failed: not recoverable by reassignment
		}
		c.markDead(wc, st.tel)
		if rerr := c.reassign(st, i); rerr != nil {
			return nil, rerr
		}
	}
}

// Start plans the campaign, ships the plan to every worker, boots all
// instances, and dispatches the first leases. After Start the campaign
// advances via Advance; every Start must be paired with Close.
func (c *Coordinator) Start(ctx context.Context) error {
	if c.st != nil {
		return errors.New("dist: coordinator already started")
	}
	workers, err := c.workerSet()
	if err != nil {
		return err
	}
	host, err := parallel.NewHost(c.sub, c.opts)
	if err != nil {
		return err
	}
	opts := host.Opts
	info := c.sub.Info()
	tel := opts.Telemetry
	prog := opts.Progress
	if opts.Label == "" {
		opts.Label = opts.Mode.String()
	}
	prog.StartRun(opts.Label, opts.Mode.String(), info.Protocol, opts.VirtualHours*3600, opts.Instances)
	c.endRun = func() { prog.EndRun(opts.Label) }

	res := &parallel.Result{
		Mode:          opts.Mode,
		Subject:       info,
		Series:        &coverage.Series{},
		Bugs:          bugs.NewLedger(),
		ModelEntities: host.Model.Len(),
	}

	if err := ctx.Err(); err != nil {
		return err
	}

	plan := host.Plan(res.Bugs, tel, opts.Trace)
	res.RelationEdges = plan.RelationEdges
	res.Probes = plan.Probes
	res.Groups = plan.Groups

	// Ship the whole plan to every worker: each boots only the
	// instances it is told to, but holding all specs lets any worker
	// adopt a reassigned instance later. Observability sinks are
	// stripped from the wire options (workers replay into none of
	// them); the Trace flag alone asks workers to run their own tracer
	// and ship span records back for stitching.
	c.tracer = opts.Trace.Tracer()
	wireOpts := opts
	wireOpts.Telemetry = nil
	wireOpts.Trace = nil
	wireOpts.Progress = nil
	wireOpts.Label = ""
	assignPayload := encodeAssign(assign{Campaign: c.campaign, Subject: info.Protocol, Trace: opts.Trace != nil, LiveSpec: liveSpecOf(c.sub), Opts: wireOpts, Specs: plan.Specs})
	for _, wc := range workers {
		if _, err := wc.rpc(msgAssign, assignPayload, msgAssignOK, c.cfg.RPCTimeout); err != nil {
			return fmt.Errorf("dist: assign to worker %q: %w", wc.name, err)
		}
	}

	if c.ownPool {
		c.pool.StartHeartbeats()
	}

	st := c.newRunState(host, opts, plan.Specs, workers, res, coverage.NewMap(), tel)

	// Boot every instance, round-robin across workers, in instance
	// order — the same order the in-process loop boots in, so ledger
	// entries and telemetry events from startup land identically.
	c.st = st
	for i, spec := range plan.Specs {
		if err := ctx.Err(); err != nil {
			return err
		}
		wc := c.alive(i % len(workers))
		if wc == nil {
			return errors.New("dist: no live workers left")
		}
		bootSpan := opts.Trace.Child("instance.boot", trace.A("instance", spec.Index))
		st.owner[i] = wc
		if err := c.bootOn(wc, st, i, 0); err != nil {
			if wc.dead.Load() {
				c.markDead(wc, tel)
				if rerr := c.reassign(st, i); rerr != nil {
					bootSpan.End()
					return rerr
				}
			} else {
				bootSpan.End()
				return fmt.Errorf("parallel: instance %d failed to start: %w", i, err)
			}
		}
		st.nextSync[i] = opts.SyncInterval
		bootSpan.Set("edges", st.startEdges[i])
		bootSpan.End()
		tel.Emit(telemetry.Event{Type: telemetry.EvBoot, Instance: i,
			Config: st.curConfig[i], Edges: st.startEdges[i]})
		tel.Count(telemetry.CtrBoots, 1)
		if prog.Enabled() {
			prog.SetInstanceConfig(opts.Label, i, st.curConfig[i])
		}
	}

	res.Series.Observe(0, st.global.Count())
	c.lastSample = 0
	c.watermark = 0
	c.minSampleGap = opts.SampleEvery / 10

	c.startLoop(st)
	for i := range st.specs {
		c.dispatch(st, i)
	}
	return nil
}

// newRunState allocates the per-instance state vectors.
func (c *Coordinator) newRunState(host *parallel.Host, opts parallel.Options, specs []parallel.InstanceSpec,
	workers []*workerConn, res *parallel.Result, global *coverage.Map, tel *telemetry.Recorder) *runState {
	n := len(specs)
	st := &runState{
		host:        host,
		opts:        opts,
		specs:       append([]parallel.InstanceSpec(nil), specs...),
		workers:     workers,
		owner:       make([]*workerConn, n),
		clock:       make([]float64, n),
		nextSync:    make([]float64, n),
		crashes:     make([]int, n),
		muts:        make([]int, n),
		execs:       make([]int, n),
		curCov:      make([]int, n),
		curConfig:   make([]string, n),
		startEdges:  make([]int, n),
		mirror:      make([]*fuzz.Corpus, n),
		pending:     make([][]fuzz.Seed, n),
		batch:       make([][]leaseRecord, n),
		pos:         make([]int, n),
		inflight:    make([]bool, n),
		replyCh:     make([]chan leaseReply, n),
		jobs:        make(map[*workerConn]chan leaseJob, len(workers)),
		slot:        make(map[*workerConn]int, len(workers)),
		journal:     make([][]leaseJournal, n),
		resumeClock: make([]float64, n),
		horizon:     opts.VirtualHours * 3600,
		res:         res,
		global:      global,
		tel:         tel,
	}
	for i := 0; i < n; i++ {
		st.mirror[i] = fuzz.NewCorpus(0)
		st.replyCh[i] = make(chan leaseReply, 1)
	}
	for wi, wc := range workers {
		st.slot[wc] = wi
	}
	return st
}

// startLoop creates the instance trace spans and launches one
// dispatcher per worker. The dispatchers drain in Close before the
// pool (or release) tears the connections down.
func (c *Coordinator) startLoop(st *runState) {
	c.instSpans = make([]*trace.Span, len(st.specs))
	for i := range c.instSpans {
		c.instSpans[i] = st.opts.Trace.Child("instance", trace.A("index", i))
	}
	for _, wc := range st.workers {
		st.jobs[wc] = make(chan leaseJob, len(st.specs))
		c.dispWG.Add(1)
		go c.dispatcher(wc, st.jobs[wc])
	}
}

// MinClock reports the campaign's replay position: the minimum
// per-instance virtual clock. Valid after Start or Restore.
func (c *Coordinator) MinClock() float64 {
	st := c.st
	if st == nil || len(st.clock) == 0 {
		return 0
	}
	m := st.clock[0]
	for _, t := range st.clock[1:] {
		if t < m {
			m = t
		}
	}
	return m
}

// Horizon reports the campaign's virtual end time.
func (c *Coordinator) Horizon() float64 {
	if c.st == nil {
		return c.opts.VirtualHours * 3600
	}
	return c.st.horizon
}

// Progress reports the replay position, the union edge count, and the
// replayed exec total — the fleet scheduler's reward signal.
func (c *Coordinator) Progress() (clock float64, edges, execs int) {
	st := c.st
	if st == nil {
		return 0, 0, 0
	}
	total := 0
	for _, e := range st.execs {
		total += e
	}
	return c.MinClock(), st.global.Count(), total
}

// Recorder returns the campaign's telemetry recorder (the restored one
// after Restore). Artifact writers use it after Finish.
func (c *Coordinator) Recorder() *telemetry.Recorder {
	if c.st == nil {
		return c.opts.Telemetry
	}
	return c.st.tel
}

// Advance replays the distributed event loop until every instance's
// virtual clock reaches min(until, horizon), dispatching fresh leases
// as batches drain. It mirrors parallel.Run's loop statement for
// statement — the replay is slicing-invariant, so any sequence of
// Advance calls produces the same artifacts as one uninterrupted run.
// A cancelled ctx returns ctx.Err() with the replay position intact;
// the in-flight leases stay pending and the next Advance (or a
// Checkpoint drain) consumes them.
func (c *Coordinator) Advance(ctx context.Context, until float64) error {
	st := c.st
	if st == nil {
		return errors.New("dist: coordinator not started")
	}
	if c.finished || c.closed {
		return errors.New("dist: campaign already finished")
	}
	opts := st.opts
	tel := st.tel
	prog := opts.Progress
	res := st.res
	n := len(st.specs)
	horizon := st.horizon
	if until > horizon {
		until = horizon
	}

	// The replay event loop. It is parallel.Run's loop statement for
	// statement, with the engine step replaced by the next lease record:
	// records arrive batched per instance but are consumed in global
	// (clock, index) min-scan order — the heap order the in-process loop
	// steps in — so every ledger entry, telemetry event, series sample,
	// and counter lands identically.
	for {
		i := 0
		for j := 1; j < n; j++ {
			if st.clock[j] < st.clock[i] {
				i = j
			}
		}
		if st.clock[i] >= until {
			break
		}
		select {
		case <-ctx.Done():
			c.cancelled = true
		default:
		}
		if c.cancelled {
			break
		}

		rec, lastOfBatch, err := c.nextRecord(ctx, st, i)
		if err != nil {
			if errors.Is(err, errPaused) {
				c.cancelled = true
				break
			}
			return err
		}
		c.checkpointed = false
		st.execs[i]++
		st.clock[i] += opts.StepCost + opts.ByteCost*float64(rec.bytes)

		if rec.crash != nil {
			st.crashes[i]++
			isNew := res.Bugs.Record(rec.crash, i, st.clock[i], st.curConfig[i])
			tel.Emit(telemetry.Event{T: st.clock[i], Type: telemetry.EvCrash, Instance: i,
				Crash: rec.crash.ID(), New: isNew, Config: st.curConfig[i]})
			tel.Count(telemetry.CtrCrashes, 1)
			if isNew {
				tel.Count(telemetry.CtrCrashesUnique, 1)
			}
		}
		if rec.newEdges > 0 {
			if _, err := st.global.ApplyDelta(rec.delta); err != nil {
				return fmt.Errorf("dist: coverage delta from worker %q: %w", st.owner[i].name, err)
			}
			// The instance's own map grew by exactly newEdges, and its
			// corpus gained the seed; replay both into the mirrors.
			st.curCov[i] += rec.newEdges
			st.mirror[i].Add(rec.seed)
		}
		if st.clock[i] > c.watermark {
			c.watermark = st.clock[i]
		}
		if c.watermark-c.lastSample >= opts.SampleEvery ||
			(rec.newEdges > 0 && c.watermark-c.lastSample >= c.minSampleGap) {
			res.Series.Observe(c.watermark, st.global.Count())
			c.lastSample = c.watermark
			tel.Emit(telemetry.Event{T: c.watermark, Type: telemetry.EvSample, Instance: i,
				Edges: st.global.Count()})
			tel.Count(telemetry.CtrSamples, 1)
			prog.SetUnion(opts.Label, c.watermark, st.global.Count())
		}
		if prog.Enabled() {
			prog.StepInstance(opts.Label, i, st.clock[i],
				st.curCov[i], st.execs[i], st.crashes[i], st.muts[i], st.mirror[i].Len())
		}

		// Seed synchronization, replayed from the corpus mirrors: export
		// from every other instance (in index order, exactly as the
		// in-process loop iterates) at this exact event-loop position.
		// The collected seeds merge into i's mirror now — matching the
		// in-process ImportSeeds — and ship to i's engine with its next
		// lease; i does not step again before that lease, so the
		// deferred wire import is invisible.
		if st.clock[i] >= st.nextSync[i] {
			sync := c.instSpans[i].Child("sync")
			var all []fuzz.Seed
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				all = append(all, st.mirror[j].Export(4)...)
			}
			for _, s := range all {
				st.mirror[i].Add(s)
			}
			st.pending[i] = all
			skipped := 0
			for st.nextSync[i] += opts.SyncInterval; st.nextSync[i] <= st.clock[i]; st.nextSync[i] += opts.SyncInterval {
				skipped++
			}
			tel.Emit(telemetry.Event{T: st.clock[i], Type: telemetry.EvSync, Instance: i,
				Seeds: len(all), Skipped: skipped})
			tel.Count(telemetry.CtrSyncs, 1)
			if skipped > 0 {
				tel.Count(telemetry.CtrSyncSkipped, skipped)
			}
			sync.Set("seeds", len(all))
			sync.End()
		}

		// Saturation fired worker-side inside the lease; replay its
		// telemetry, ledger records, and counters here, in the same
		// order the in-process loop emits them (after sync). Mutation
		// commutes with sync — mutation touches the rng, target, and
		// engine map; sync touches only corpora — so the worker running
		// the mutation before the coordinator replays the sync does not
		// reorder any observable effect.
		if rec.satFired {
			tel.Emit(telemetry.Event{T: st.clock[i], Type: telemetry.EvSaturation, Instance: i,
				Edges: st.curCov[i]})
			tel.Count(telemetry.CtrSaturations, 1)
			if m := rec.mutation; m != nil {
				mut := c.instSpans[i].Child("config.mutate")
				for _, cr := range m.Crashes {
					crash := cr.Crash
					res.Bugs.Record(&crash, cr.Instance, cr.T, cr.Config)
				}
				st.muts[i] += m.Outcome.Mutations
				parallel.EmitMutation(tel, i, st.clock[i], m.Outcome)
				if m.Outcome.Restarted && prog.Enabled() {
					prog.SetInstanceConfig(opts.Label, i, rec.config)
				}
				mut.End()
			}
			st.curConfig[i] = rec.config
			// A restart absorbed fresh startup coverage into the
			// instance's map; resync the replayed edge count to the
			// post-absorb value the worker reported.
			st.curCov[i] = rec.coverage
		}

		// Batch exhausted: hand the instance its next lease, unless it
		// just ran out the campaign horizon. A horizon-crossing sync
		// skips its import-only lease — the in-process loop does import
		// there, but the instance never steps again, so the corpus
		// difference is invisible in every artifact.
		if lastOfBatch && st.clock[i] < horizon {
			c.dispatch(st, i)
		}
	}

	if c.cancelled {
		return ctx.Err()
	}
	return nil
}

// drainInflight blocks until no instance has a lease reply pending,
// folding the drained records into the per-instance batches for the
// next Advance to replay. Checkpoint requires this quiescent state.
func (c *Coordinator) drainInflight() error {
	st := c.st
	for i := range st.inflight {
		for st.inflight[i] {
			if err := c.fill(context.Background(), st, i); err != nil {
				return err
			}
		}
	}
	return nil
}

// Finish observes the final series sample, collects every instance's
// result from its worker, and seals the Result. After a cancelled
// Advance it finalizes the partial campaign exactly as parallel.Run
// does.
func (c *Coordinator) Finish(ctx context.Context) (*parallel.Result, error) {
	st := c.st
	if st == nil {
		return nil, errors.New("dist: coordinator not started")
	}
	if c.finished {
		return nil, errors.New("dist: campaign already finished")
	}
	opts := st.opts
	res := st.res
	finalT := st.horizon
	if c.cancelled {
		finalT = c.watermark
	}
	res.Series.Observe(finalT, st.global.Count())
	res.FinalBranches = st.global.Count()
	opts.Progress.SetUnion(opts.Label, finalT, st.global.Count())
	for i := range st.specs {
		p, err := c.rpcI(st, i, msgFinalize, encodeIndexReq(indexReq{Campaign: c.campaign, Index: i}), msgInstanceResult)
		if err != nil {
			return nil, err
		}
		ir, err := decodeInstanceResult(p)
		if err != nil {
			return nil, err
		}
		res.TotalExecs += ir.Execs
		c.instSpans[i].Set("edges", ir.FinalBranches)
		c.instSpans[i].Set("execs", ir.Execs)
		c.instSpans[i].End()
		res.Instances = append(res.Instances, ir)
	}
	res.Counters = st.tel.Counters()
	c.finished = true
	return res, nil
}

// Close tears the campaign down: the dispatcher goroutines are joined
// (no goroutine outlives Close, even after a mid-lease cancellation),
// the progress run ends, and the fleet is released — a standalone
// coordinator shuts its private pool down; a shared-pool campaign sends
// a best-effort Release so workers retire its instances while other
// campaigns keep running. Idempotent.
func (c *Coordinator) Close() {
	if c.closed {
		return
	}
	c.closed = true
	if c.st != nil {
		for _, jobs := range c.st.jobs {
			close(jobs)
		}
		c.dispWG.Wait()
	}
	if c.endRun != nil {
		c.endRun()
	}
	if c.ownPool {
		c.pool.Close()
		return
	}
	if c.st != nil {
		payload := encodeRelease(c.campaign)
		for _, wc := range c.st.workers {
			if wc.dead.Load() {
				continue
			}
			wc.rpc(msgRelease, payload, msgReleaseOK, c.cfg.RPCTimeout)
		}
	}
}

// Run executes the whole distributed campaign: Start, Advance to the
// horizon, Finish, Close. See the package comment for the byte-identity
// argument.
func (c *Coordinator) Run(ctx context.Context) (*parallel.Result, error) {
	defer c.Close()
	if err := c.Start(ctx); err != nil {
		return nil, err
	}
	if err := c.Advance(ctx, c.st.horizon); err != nil && !c.cancelled {
		return nil, err
	}
	res, err := c.Finish(ctx)
	if err != nil {
		return nil, err
	}
	if c.cancelled {
		return res, ctx.Err()
	}
	return res, nil
}
