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

	"cmfuzz/internal/fuzz"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/telemetry"
	"cmfuzz/internal/telemetry/metrics"
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
}

func (c *Config) setDefaults() {
	if c.RPCTimeout == 0 {
		c.RPCTimeout = 30 * time.Second
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 2 * time.Second
	}
}

var errWorkerDead = errors.New("dist: worker is dead")

// shutdownGrace is how long a closing pool waits for a worker to take
// its Shutdown frame before dropping the connection on it.
const shutdownGrace = time.Second

// workerConn is the coordinator's view of one connected worker. Any
// number of requests may be outstanding on it: send tags each with an id
// and the connection's reader goroutine hands every reply to whoever
// waits for its id, so leases, control messages and heartbeats of any
// campaign share the connection without queueing behind one another.
type workerConn struct {
	name string
	conn net.Conn
	br   *bufio.Reader

	wmu sync.Mutex  // serializes frames onto conn
	fw  frameWriter // reusable frame scratch, guarded by wmu

	mu        sync.Mutex
	calls     map[uint32]call // requests awaiting their reply; nil once dead
	lastID    uint32
	dead      atomic.Bool
	cause     error        // what killed the connection, guarded by mu
	lastReply atomic.Int64 // unix nanos of the last frame received
	execs     atomic.Int64 // cumulative execs across this worker's instances
	syncBytes atomic.Int64 // cumulative sync payload bytes shipped
}

// A call is one outstanding request: where its reply goes, and the timer
// that gives up on it.
type call struct {
	ch    chan reply // buffered: exactly one reply or failure is delivered
	timer *time.Timer
}

// A reply is the frame that answered a request (stamped when it was
// read), or the failure that ended the wait.
type reply struct {
	typ     byte
	payload []byte
	at      time.Time
	err     error
}

// send writes one request and returns the channel its reply will arrive
// on. The deadline covers the whole exchange — the write, any queueing
// for a lane worker-side, the execution — and a request that outlives it
// kills the connection, as does a failed write: there is no telling
// what a silent worker is doing with the instances it holds.
func (wc *workerConn) send(typ byte, payload []byte, timeout time.Duration) <-chan reply {
	ch := make(chan reply, 1)
	wc.mu.Lock()
	if wc.calls == nil {
		ch <- reply{err: fmt.Errorf("%w: %v", errWorkerDead, wc.cause)}
		wc.mu.Unlock()
		return ch
	}
	wc.lastID++
	id := wc.lastID
	wc.calls[id] = call{ch: ch, timer: time.AfterFunc(timeout, func() {
		wc.kill(fmt.Errorf("dist: worker %q: no reply to message %d within %v", wc.name, typ, timeout))
	})}
	wc.mu.Unlock()
	wc.wmu.Lock()
	err := wc.fw.write(wc.conn, typ, id, payload)
	wc.wmu.Unlock()
	if err != nil {
		wc.kill(err)
	}
	return ch
}

// kill declares the worker dead: the connection is closed, which ends
// the reader, and every outstanding request fails with err.
func (wc *workerConn) kill(err error) { wc.end(err, true) }

// end closes the connection and fails every outstanding request with
// err; only the first call fails requests. A pool shutting down ends its
// connections in good order — a best-effort Shutdown first, and the
// workers are not declared dead (the reader's EOF that follows finds the
// connection already ended). The Shutdown is bounded: a worker that has
// stopped reading gets shutdownGrace to take it, and so does any send
// still blocked in its write, whose failure then closes the connection
// under the waiting Shutdown.
func (wc *workerConn) end(err error, died bool) {
	wc.mu.Lock()
	calls := wc.calls
	if calls != nil {
		wc.calls, wc.cause = nil, err
		if died {
			wc.dead.Store(true)
		}
	}
	wc.mu.Unlock()
	if calls == nil {
		if died {
			wc.conn.Close()
		}
		return
	}
	if !died {
		wc.conn.SetWriteDeadline(time.Now().Add(shutdownGrace))
		wc.wmu.Lock()
		wc.fw.write(wc.conn, msgShutdown, 0, nil)
		wc.wmu.Unlock()
	}
	wc.conn.Close()
	for _, c := range calls {
		c.timer.Stop()
		c.ch <- reply{err: err}
	}
}

// readLoop routes replies to their requests until the connection ends.
// A reply nobody waits for — its id unknown or already given up on — is
// dropped. Any framing error kills the connection: a partially read
// frame cannot be resynchronized.
func (wc *workerConn) readLoop() {
	for {
		typ, id, payload, err := readFrame(wc.br)
		if err != nil {
			wc.kill(err)
			return
		}
		now := time.Now()
		wc.lastReply.Store(now.UnixNano())
		wc.mu.Lock()
		c, ok := wc.calls[id]
		delete(wc.calls, id)
		wc.mu.Unlock()
		if ok {
			c.timer.Stop()
			c.ch <- reply{typ: typ, payload: payload, at: now}
		}
	}
}

// expect unwraps a reply: a transport failure as it is, a worker-side
// Error as an application error (the connection stays up), and any type
// but want as a protocol violation that kills the connection.
func (wc *workerConn) expect(rep reply, want byte) ([]byte, error) {
	switch {
	case rep.err != nil:
		return nil, rep.err
	case rep.typ == msgError:
		return nil, fmt.Errorf("dist: worker %q: %s", wc.name, rep.payload)
	case rep.typ != want:
		err := fmt.Errorf("dist: worker %q: got message %d, want %d", wc.name, rep.typ, want)
		wc.kill(err)
		return nil, err
	}
	return rep.payload, nil
}

// rpc performs one request/response exchange.
func (wc *workerConn) rpc(typ byte, payload []byte, want byte, timeout time.Duration) ([]byte, error) {
	return wc.expect(<-wc.send(typ, payload, timeout), want)
}

// WorkerStatus is a point-in-time snapshot of one worker.
type WorkerStatus struct {
	Name      string
	Alive     bool
	Execs     int64
	SyncBytes int64
	LastReply time.Time
}

// An Observer receives dist-layer operational callbacks. It lives
// outside the telemetry counter map — wire timings, byte counts and
// worker failures must never leak into campaign artifacts. The zero
// Observer is a no-op.
type Observer struct {
	// Lease fires after every successful lease round-trip with the
	// replayable record count, request/reply payload sizes, and the
	// wall-clock round-trip time (request written to reply read). Called
	// from the campaign's own goroutine as it consumes the reply; a shared
	// implementation must still be safe for concurrent campaigns.
	Lease func(instance, records, reqBytes, repBytes int, seconds float64, syncDue bool)
	// Death fires when the campaign loop declares a worker dead, once
	// per worker per campaign. The instances it held are replayed on
	// survivors, so no artifact shows the death.
	Death func(worker string)
	// Reassign fires each time the campaign loop boots an instance a
	// dead worker held on another worker, before the boot.
	Reassign func(instance int, worker string)
}

// A Coordinator owns the global half of one distributed campaign: the
// scheduling plan and the event loop (a parallel.Loop, with its union
// coverage map, series, ledger, and telemetry), which it feeds the step
// records its workers send back. Workers own the instances. The loop's
// source is parallel.LeaseSource, the one parallel.Run uses, and the
// coordinator is only its transport: where an instance boots, how a
// lease goes out and its reply comes back, and what a worker's death
// sets off. So for the same subject, options, and seed, Run produces a
// Result byte-identical to parallel.Run's.
//
// The campaign lifecycle is decomposed so a scheduler can multiplex
// many campaigns over one pool and survive restarts:
//
//	Start    plan, assign, boot, dispatch the first leases
//	Advance  run the event loop up to a virtual-clock bound
//	Checkpoint / Restore   record the position between Advance slices, and re-run to it
//	Finish   seal the Result from the replayed counters
//	Close    release or shut down the fleet
//
// Run composes them for the classic single-campaign shape.
type Coordinator struct {
	sub      subject.Subject
	opts     parallel.Options
	cfg      Config
	pool     *Pool
	ownPool  bool
	campaign uint32

	loop *parallel.Loop
	src  *parallel.LeaseSource // nil until Start or Restore
	// workers are the pool's workers that took the plan at Start: the
	// campaign's instances live on them, and only them, until Close.
	workers []*workerConn
	inst    []replica
	// tracer is the campaign tracer (nil when tracing is off): worker
	// span records from lease replies are ingested into it under
	// per-worker process lanes.
	tracer *trace.Tracer
	obs    Observer
	// deathCounted dedups worker-death accounting per campaign (the
	// replay loop may notice the same dead worker many times; a shared
	// pool may have many campaigns each noticing it once).
	deathCounted map[*workerConn]bool
	finished     bool
	closed       bool
	// at is where the last Advance that completed (or Start) left the
	// campaign: what Checkpoint records.
	at position
	// onReply, set by tests, sees (and may change) the records of every
	// lease reply the loop is handed, as they arrive.
	onReply func(i int, recs []parallel.LeaseStep)
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

// Workers snapshots every registered worker.
func (c *Coordinator) Workers() []WorkerStatus { return c.pool.Workers() }

// Instrument registers the metric families of the coordinator's pool on
// reg (Pool.Instrument).
func (c *Coordinator) Instrument(reg *metrics.Registry) { c.pool.Instrument(reg) }

// SetObserver installs obs. Call before Start or Restore; the campaign
// never mutates it afterwards.
func (c *Coordinator) SetObserver(obs Observer) { c.obs = obs }

// Stranded reports whether every worker that took the campaign's plan
// has died: its instances have nowhere left to be replayed, and only a
// Restore on the pool's live workers can continue it.
func (c *Coordinator) Stranded() bool { return c.src != nil && c.alive(0) == nil }

// slot is wc's position in the campaign's worker set (pool-global ids
// don't index it: a worker attached after Start is not in it).
func (c *Coordinator) slot(wc *workerConn) int {
	for k, w := range c.workers {
		if w == wc {
			return k
		}
	}
	return -1
}

// alive returns the live worker at or after position from in the
// campaign's worker set, wrapping around; nil when every worker is dead.
func (c *Coordinator) alive(from int) *workerConn {
	n := len(c.workers)
	for k := 0; k < n; k++ {
		wc := c.workers[(from+k)%n]
		if !wc.dead.Load() {
			return wc
		}
	}
	return nil
}

// leaseJournal is one dispatched lease, remembered so replay can
// rebuild the instance's exact history after its worker dies: re-sending
// the same boundaries and seed imports to a freshly booted instance
// reconstructs the engine, corpus, RNG, and saturation state
// deterministically.
type leaseJournal struct {
	Boundary float64
	Seeds    []fuzz.Seed
}

// A replica is the wire's half of one instance: the worker that owns
// it, the dispatched lease whose reply has not been consumed (nil when
// there is none) with its send time and request size, and the lease
// history replay re-sends: every lease since the instance's boot at
// clock 0.
type replica struct {
	owner    *workerConn
	inflight <-chan reply
	sent     time.Time
	reqBytes int
	journal  []leaseJournal
	// steps is the instance's last lease reply, decoded, which the loop
	// replays as its batch. Done sends the next lease only once the
	// batch is replayed, so the next reply decodes into the same array.
	steps []parallel.LeaseStep
}

// boot is the transport's Boot (dispatch its Send, await its Await):
// instance i of campaign k, of I instances, on worker (k·I + i) mod n of
// the n that took the plan, or the next live one after it — so
// campaigns sharing a pool spread over it, and a standalone coordinator
// (k = 0) deals its instances round-robin from the first worker. The
// loop asks in instance order, so ledger entries and telemetry events
// from startup land as they do in-process.
func (c *Coordinator) boot(i int) (parallel.BootReport, error) {
	wc := c.alive((int(c.campaign)*len(c.inst) + i) % len(c.workers))
	if wc == nil {
		return parallel.BootReport{}, errors.New("dist: no live workers left")
	}
	rep, err := c.bootOn(wc, i)
	if err != nil && wc.dead.Load() {
		return c.rehome(i, err)
	}
	return rep, err
}

// dispatch journals instance i's next lease — the seeds its last sync
// collected, and a budget up to boundary (its next sync) or the horizon —
// and sends it.
func (c *Coordinator) dispatch(i int, seeds []fuzz.Seed, boundary float64) {
	j := leaseJournal{Boundary: boundary, Seeds: seeds}
	c.inst[i].journal = append(c.inst[i].journal, j)
	c.send(i, j)
}

// await consumes instance i's in-flight lease reply as its records. A
// lease that fails because its worker died, the last in the instance's
// journal, is sent again once rehome has booted the instance afresh on a
// survivor and replay has re-sent it every lease before (and checked
// the live mirror against the one it rebuilds), which puts it back
// where the loop is: the reply is all-or-nothing, so the loop
// replayed none of the lost lease, and the campaign goes on as if the
// worker had lived. A survivor that dies during the replay hands it to
// the next. The survivor pays wall time in proportion to the
// instance's history. The replay runs to its end whatever ctx says — a
// chain cut short would leave the instance somewhere the loop cannot
// name — and each of its exchanges is bounded by RPCTimeout.
func (c *Coordinator) await(ctx context.Context, i int) ([]parallel.LeaseStep, error) {
	in := &c.inst[i]
	for {
		rep, err := c.take(ctx, i)
		if err != nil {
			return nil, err
		}
		recs, err := c.leaseResult(i, rep)
		if err == nil {
			return recs, nil
		}
		// Replay the journal up to the lost lease, whose imports are
		// pending again as they were before it was sent: the live mirror
		// holds them already.
		last := len(in.journal) - 1
		lost, r := in.journal[last], &c.src.Inst[i]
		in.journal, r.Pending = in.journal[:last], lost.Seeds
		for err != nil {
			if _, err = c.rehome(i, err); err != nil {
				return nil, err
			}
			err = c.replay(i)
		}
		in.journal, r.Pending = append(in.journal, lost), nil
		c.send(i, lost)
	}
}

// send puts one of instance i's journaled leases on its owner's
// connection: the one place a lease is issued, for the first time
// (dispatch) or again (replay, await). The reply is picked up by take.
func (c *Coordinator) send(i int, j leaseJournal) {
	in := &c.inst[i]
	payload := marshal(&lease{Campaign: c.campaign, Index: i, Boundary: j.Boundary, Horizon: c.loop.Horizon(), Seeds: j.Seeds}, (*codec).lease)
	in.sent, in.reqBytes = time.Now(), len(payload)
	in.inflight = in.owner.send(msgLease, payload, c.cfg.RPCTimeout)
}

// take takes instance i's in-flight lease reply. A ctx that ends first
// returns ctx.Err() without consuming anything: the reply waits in its
// channel and the next Advance picks it up.
func (c *Coordinator) take(ctx context.Context, i int) (reply, error) {
	in := &c.inst[i]
	var rep reply
	select {
	case rep = <-in.inflight:
	default:
		select {
		case rep = <-in.inflight:
		case <-ctx.Done():
			return reply{}, ctx.Err()
		}
	}
	in.inflight = nil
	return rep, nil
}

// replay rebuilds instance i, freshly booted on a survivor of its
// worker's death — engine, corpus, RNG, saturation state worker-side —
// by re-sending it, one at a time, the leases it was sent before. A
// reply that does not come back is the error await hands to rehome.
//
// The records that come back were replayed by the loop already (it
// awaits a lease only once the last one's batch is replayed), so they
// are only counted, as the loop counts what it replays: the chain must
// re-execute exactly those records, with their crashes and mutations,
// and rebuild a corpus mirror that holds exactly the live one's seeds,
// digest for digest, or the campaign fails naming the instance. The
// rebuilt mirror follows the engine's order: each lease's imports as it
// is re-sent, the seed (or digest) of every new-edges record, then the
// pending imports.
func (c *Coordinator) replay(i int) error {
	in, r := &c.inst[i], &c.src.Inst[i]
	redone := parallel.Replica{Mirror: parallel.NewMirror()} // what the chain re-executed, and its mirror
	for _, j := range in.journal {
		redone.Mirror.Import(j.Seeds)
		c.send(i, j)
		rep, err := c.take(context.Background(), i)
		if err != nil {
			return err
		}
		var lr leaseResult
		if err := decodeLease(in.owner, rep, &lr); err != nil {
			return fmt.Errorf("dist: replay of instance %d: %w", i, err)
		}
		for k := range lr.Steps {
			s := &lr.Steps[k]
			redone.Execs++
			if s.Crash != nil {
				redone.Crashes++
			}
			if s.NewEdges > 0 {
				redone.Mirror.Add(s.Seed, s.Digest, s.Ship)
			}
			if s.Mutation != nil {
				redone.Muts += s.Mutation.Mutations
			}
		}
	}
	if redone.Execs != r.Execs || redone.Crashes != r.Crashes || redone.Muts != r.Muts {
		return fmt.Errorf("dist: replay of instance %d re-executed %d records with %d crashes and %d mutations; the loop replayed %d, with %d crashes and %d mutations",
			i, redone.Execs, redone.Crashes, redone.Muts, r.Execs, r.Crashes, r.Muts)
	}
	redone.Mirror.Import(r.Pending)
	if k := r.Mirror.Diff(redone.Mirror); k >= 0 {
		return fmt.Errorf("dist: replay of instance %d rebuilt a corpus mirror of %d seeds that differs from the loop's %d at seed %d",
			i, redone.Mirror.Len(), r.Mirror.Len(), k)
	}
	return nil
}

// decodeLease unwraps and decodes a lease reply from wc into lr, whose
// Steps it appends to (the zero value on an error). A reply that does
// not decode, or holds no record, kills the worker.
func decodeLease(wc *workerConn, rep reply, lr *leaseResult) error {
	p, err := wc.expect(rep, msgLeaseResult)
	if err != nil {
		*lr = leaseResult{}
		return err
	}
	err = unmarshalInto(p, lr, (*codec).leaseResult)
	if err == nil && len(lr.Steps) == 0 {
		// A lease always executes at least one step (the budget is
		// checked after stepping); an empty reply means the worker
		// lost its instance state.
		err = errors.New("dist: empty lease reply")
	}
	if err != nil {
		wc.kill(err)
	}
	return err
}

// leaseResult decodes instance i's lease reply into the instance's
// recycled step buffer and does the per-lease accounting. The records
// are valid until the instance's next reply.
func (c *Coordinator) leaseResult(i int, rep reply) ([]parallel.LeaseStep, error) {
	in := &c.inst[i]
	wc := in.owner
	lr := leaseResult{Steps: in.steps[:0]}
	err := decodeLease(wc, rep, &lr)
	// The records past this reply's last alias an older payload: zero
	// them, so the buffer holds this reply alone.
	clear(in.steps[min(len(lr.Steps), len(in.steps)):])
	in.steps = lr.Steps
	if err != nil {
		return nil, err
	}
	if len(lr.Spans) > 0 {
		// Align the worker timeline to ours: the worker's clock read at
		// encode time maps to the reply's arrival, so worker spans land
		// where the reply arrived (shifted late by the return wire time —
		// a bounded skew this layer cannot observe, documented in
		// DESIGN.md).
		arrived := c.tracer.Now() - time.Since(rep.at)
		c.tracer.IngestForeign(wc.name, arrived-lr.WorkerNow, lr.Spans)
	}
	wc.execs.Add(int64(len(lr.Steps)))
	wc.syncBytes.Add(int64(in.reqBytes + len(rep.payload)))
	rtt := rep.at.Sub(in.sent).Seconds()
	c.pool.leaseLatency.Observe(rtt)
	if c.obs.Lease != nil {
		c.obs.Lease(i, len(lr.Steps), in.reqBytes, len(rep.payload), rtt, lr.SyncDue)
	}
	if c.onReply != nil {
		c.onReply(i, lr.Steps)
	}
	return lr.Steps, nil
}

// markDead records a worker failure exactly once per campaign (campaign
// loop only).
func (c *Coordinator) markDead(wc *workerConn) {
	if !c.deathCounted[wc] {
		c.deathCounted[wc] = true
		if c.obs.Death != nil {
			c.obs.Death(wc.name)
		}
	}
}

// rehome answers a request of instance i's that failed with err: a
// worker that is still alive failed it on purpose and err is returned —
// campaign-fatal, as in-process; a dead one is counted and the instance
// booted afresh on the next live worker (reassign).
func (c *Coordinator) rehome(i int, err error) (parallel.BootReport, error) {
	wc := c.inst[i].owner
	if !wc.dead.Load() {
		return parallel.BootReport{}, err
	}
	c.markDead(wc)
	return c.reassign(i)
}

// bootOn boots instance i on wc, which owns it from then on, at clock 0,
// where its journal starts.
func (c *Coordinator) bootOn(wc *workerConn, i int) (parallel.BootReport, error) {
	c.inst[i].owner = wc
	p, err := wc.rpc(msgBoot, marshal(&bootReq{Campaign: c.campaign, Index: i}, (*codec).bootReq), msgBootResult, c.cfg.RPCTimeout)
	if err != nil {
		return parallel.BootReport{}, err
	}
	br, err := unmarshal(p, (*codec).bootResult)
	if err != nil {
		wc.kill(err)
		return parallel.BootReport{}, err
	}
	if br.Err != "" {
		return br.BootReport, errors.New(br.Err)
	}
	return br.BootReport, nil
}

// reassign moves instance i off its dead owner onto the next live
// worker, booted from its spec, and returns the boot's report. Only the
// loop's Boot files a report; an instance booted after it is replayed up
// to the loop's position instead, whose books hold what it did.
func (c *Coordinator) reassign(i int) (parallel.BootReport, error) {
	for {
		wc := c.alive(c.slot(c.inst[i].owner) + 1)
		if wc == nil {
			return parallel.BootReport{}, errors.New("dist: no live workers left")
		}
		if c.obs.Reassign != nil {
			c.obs.Reassign(i, wc.name)
		}
		rep, err := c.bootOn(wc, i) // wc owns i now, so a dead one is searched past
		if err == nil {
			return rep, nil
		}
		if !wc.dead.Load() {
			return rep, err // application-level boot failure: campaign-fatal, as in-process
		}
		c.markDead(wc)
	}
}

// Start plans the campaign, ships the plan to every live worker, boots
// all instances, and dispatches the first leases. After Start the
// campaign advances via Advance; every Start must be paired with Close.
func (c *Coordinator) Start(ctx context.Context) error {
	if c.src != nil {
		return errors.New("dist: coordinator already started")
	}
	workers := c.pool.snapshot()
	if len(workers) == 0 {
		return errors.New("dist: no workers connected")
	}
	host, err := parallel.NewHost(c.sub, c.opts)
	if err != nil {
		return err
	}
	c.loop = parallel.NewLoop(host)
	plan, err := c.loop.Plan(ctx, (*parallel.Host).Plan)
	if err != nil {
		return err
	}
	// Ship the whole plan to every live worker: each boots only the
	// instances it is told to, but holding all specs lets any worker
	// adopt a reassigned instance later. A worker that dies taking it is
	// counted like any death and left out; the campaign fails only when
	// no worker took it. Observability sinks are
	// stripped from the wire options (workers replay into none of
	// them); the Trace flag alone asks workers to run their own tracer
	// and ship span records back for stitching.
	opts := c.loop.Opts
	c.tracer = opts.Trace.Tracer()
	wireOpts := opts
	wireOpts.Telemetry = nil
	wireOpts.Trace = nil
	assignPayload := marshal(&assign{Campaign: c.campaign, Subject: c.sub.Info().Protocol, Trace: opts.Trace != nil, LiveSpec: liveSpecOf(c.sub), Opts: wireOpts, Specs: plan.Specs}, (*codec).assign)
	for _, wc := range workers {
		if wc.dead.Load() {
			continue
		}
		if _, err := wc.rpc(msgAssign, assignPayload, msgAssignOK, c.cfg.RPCTimeout); err != nil {
			if !wc.dead.Load() {
				return fmt.Errorf("dist: assign to worker %q: %w", wc.name, err)
			}
			c.markDead(wc)
			continue
		}
		c.workers = append(c.workers, wc)
	}
	if len(c.workers) == 0 {
		return errors.New("dist: no live workers left")
	}
	if c.ownPool {
		c.pool.StartHeartbeats()
	}

	c.inst = make([]replica, len(plan.Specs))
	c.src = parallel.NewLeaseSource(c.loop, plan.Specs, parallel.Transport{Boot: c.boot, Send: c.dispatch, Await: c.await})
	if err := c.loop.Boot(ctx, c.src); err != nil {
		return err
	}
	for i := range c.inst {
		c.src.Done(i)
	}
	c.at.clock, c.at.edges, c.at.execs = c.Progress()
	return nil
}

// MinClock reports the campaign's position: the minimum per-instance
// virtual clock. Valid after Start or Restore.
func (c *Coordinator) MinClock() float64 {
	if c.src == nil {
		return 0
	}
	return c.loop.MinClock()
}

// Horizon reports the campaign's virtual end time.
func (c *Coordinator) Horizon() float64 {
	if c.loop == nil {
		return c.opts.Horizon()
	}
	return c.loop.Horizon()
}

// Progress reports the replay position, the union edge count, and the
// replayed exec total — the fleet scheduler's reward signal.
func (c *Coordinator) Progress() (clock float64, edges, execs int) {
	if c.src == nil {
		return 0, 0, 0
	}
	for i := range c.src.Inst {
		execs += c.src.Inst[i].Execs
	}
	return c.loop.MinClock(), c.loop.Union.Count(), execs
}

// Recorder returns the campaign's telemetry recorder (a fresh one after
// Restore on a coordinator that had none). Artifact writers use it after
// Finish.
func (c *Coordinator) Recorder() *telemetry.Recorder {
	if c.loop == nil {
		return c.opts.Telemetry
	}
	return c.loop.Opts.Telemetry
}

// Advance runs the event loop until every instance's virtual clock
// reaches min(until, horizon), dispatching fresh leases as batches
// drain (parallel.Loop.Advance over the lease source, so any sequence
// of Advance calls produces the same artifacts as one uninterrupted
// run). A cancelled ctx returns ctx.Err() with the replay position
// intact; the in-flight leases stay pending and the next Advance
// consumes them. Only an Advance that completes moves the position
// Checkpoint records.
func (c *Coordinator) Advance(ctx context.Context, until float64) error {
	if c.src == nil {
		return errors.New("dist: coordinator not started")
	}
	if c.finished || c.closed {
		return errors.New("dist: campaign already finished")
	}
	if err := c.loop.Advance(ctx, until); err != nil {
		return err
	}
	if until > c.at.bound {
		c.at.bound = until
	}
	c.at.clock, c.at.edges, c.at.execs = c.Progress()
	return nil
}

// Finish observes the final series sample and seals the Result, whose
// instance summaries are the replayed counters (a worker's engine may be
// a lease past the loop). After a cancelled Advance it finalizes the
// partial campaign at the watermark reached.
func (c *Coordinator) Finish(ctx context.Context) (*parallel.Result, error) {
	if c.src == nil {
		return nil, errors.New("dist: coordinator not started")
	}
	if c.finished {
		return nil, errors.New("dist: campaign already finished")
	}
	res, err := c.loop.Finish()
	if err != nil {
		return nil, err
	}
	c.finished = true
	return res, nil
}

// Close tears the campaign down: the loop closes (an unfinished run is
// marked done on the board) and the fleet is released — a standalone coordinator shuts its private pool down (which
// joins its connections' readers, so no goroutine outlives Close even
// after a mid-lease cancellation); a shared-pool campaign sends a
// best-effort Release so workers retire its instances — once its leases
// still in flight have run out, their replies dropped — while other
// campaigns keep running. Idempotent.
func (c *Coordinator) Close() {
	if c.closed {
		return
	}
	c.closed = true
	if c.loop != nil {
		c.loop.Close()
	}
	if c.ownPool {
		c.pool.Close()
		return
	}
	payload := marshal(&c.campaign, u32[uint32])
	for _, wc := range c.workers {
		if !wc.dead.Load() {
			wc.rpc(msgRelease, payload, msgReleaseOK, c.cfg.RPCTimeout)
		}
	}
}

// Run executes the whole distributed campaign: Start, Advance to the
// horizon, Finish, Close. A cancelled ctx yields the partial Result
// alongside ctx.Err(), as parallel.Run does.
func (c *Coordinator) Run(ctx context.Context) (*parallel.Result, error) {
	defer c.Close()
	if err := c.Start(ctx); err != nil {
		return nil, err
	}
	res, err := c.loop.Run(ctx)
	c.finished = res != nil
	return res, err
}
