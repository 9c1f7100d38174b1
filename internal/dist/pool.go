package dist

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"cmfuzz/internal/telemetry/metrics"
)

// A Pool owns a fleet of worker connections: the Hello/Welcome
// handshake, liveness heartbeats, and final teardown. A standalone
// Coordinator creates a private pool, so the single-campaign API is
// unchanged; the fleet service creates one shared pool and runs many
// coordinators on it concurrently — each campaign's RPCs are
// namespaced by campaign id, and a connection carries any number of
// them at once, each reply routed back by its request id.
//
// Workers can additionally be leased out as disjoint Partitions
// (AcquirePreferring/Release), which is how the concurrent fleet scheduler
// gives each campaign its own slice of the fleet: a coordinator
// handed a partition drives only those connections, so campaigns
// sharing the pool never contend for the same worker.
type Pool struct {
	cfg Config

	mu      sync.Mutex
	workers []*workerConn
	leased  map[*workerConn]bool

	stopHeartbeat chan struct{}
	hbWG          sync.WaitGroup
	hbStarted     bool
	readWG        sync.WaitGroup // the connections' reader goroutines
	closed        bool

	nextCampaign uint32

	// leaseLatency observes the round trip of every lease reply of every
	// campaign on the pool; nil until Instrument.
	leaseLatency *metrics.Histogram
}

var errPoolClosed = errors.New("dist: pool is closed")

// NewPool prepares an empty worker pool. Workers attach via AddConn.
func NewPool(cfg Config) *Pool {
	cfg.setDefaults()
	return &Pool{cfg: cfg, leased: make(map[*workerConn]bool), stopHeartbeat: make(chan struct{})}
}

// AddConn performs the Hello/Welcome handshake on a freshly accepted
// worker connection and registers the worker. The worker speaks first,
// so with synchronous transports (net.Pipe) the worker's Serve loop
// must already be running.
//
// Admission is elastic: a worker attached after the pool went live
// simply joins the free set (and gets its own heartbeat pinger when
// heartbeats are already running), so the next partition acquisition —
// the fleet scheduler's next round — can hand it to a campaign.
// Campaigns that captured their worker set earlier are unaffected.
func (p *Pool) AddConn(conn net.Conn) error {
	conn.SetDeadline(time.Now().Add(p.cfg.RPCTimeout))
	defer conn.SetDeadline(time.Time{})
	br := bufio.NewReaderSize(conn, 64<<10)
	typ, _, payload, err := readFrame(br)
	if err != nil {
		return fmt.Errorf("dist: worker handshake: %w", err)
	}
	if typ != msgHello {
		return fmt.Errorf("dist: worker handshake: got message %d, want Hello", typ)
	}
	// The version byte leads every hello, so a worker speaking another
	// version is told so whatever that version put after it.
	if len(payload) > 0 && payload[0] != protocolVersion {
		writeFrame(conn, msgError, 0, []byte("protocol version mismatch"))
		return fmt.Errorf("dist: worker speaks protocol %d, want %d", payload[0], protocolVersion)
	}
	h, err := unmarshal(payload, (*codec).hello)
	if err != nil {
		return err
	}
	if err := writeFrame(conn, msgWelcome, 0, nil); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		conn.Close()
		return errPoolClosed
	}
	wc := &workerConn{name: h.Name, conn: conn, br: br, calls: make(map[uint32]call)}
	wc.lastReply.Store(time.Now().UnixNano())
	p.workers = append(p.workers, wc)
	p.readWG.Add(1)
	go func() {
		defer p.readWG.Done()
		wc.readLoop()
	}()
	if p.hbStarted && p.cfg.HeartbeatInterval > 0 {
		p.hbWG.Add(1)
		go p.heartbeat(wc)
	}
	return nil
}

// A Partition is a leased, disjoint subset of the pool's workers, in
// ascending attach order. The holder (one campaign's coordinator)
// owns the members' lease-RPC traffic until Release; heartbeats and
// teardown stay with the pool. A dead member shrinks only its own
// partition — the holder reassigns the dead worker's instances within
// the partition, never across one.
type Partition struct {
	pool    *Pool
	workers []*workerConn
}

// AcquirePreferring leases up to n free live workers, removing them
// from the free set. It returns nil when no free live worker exists
// (the caller's scheduling round has no capacity for another
// partition); a short partition — fewer than n — is returned when the
// free set is smaller than asked. It leases with partition affinity:
// free live workers named in prefer first (in attach order among
// themselves), and only then the remainder from the rest of the free
// set in deterministic attach order. A campaign that parks and re-acquires
// lands back on the machines it ran on before whenever they are still
// free. Nothing of the campaign survives a park on the worker itself —
// Coordinator.Close releases its instances — so what the preference
// buys is only what the machine keeps (OS page cache, a live target's
// files on disk). Keeping the instances themselves is AcquireExact's
// job.
func (p *Pool) AcquirePreferring(n int, prefer []string) *Partition {
	if n <= 0 {
		return nil
	}
	preferred := make(map[string]bool, len(prefer))
	for _, name := range prefer {
		preferred[name] = true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var got []*workerConn
	take := func(wantPreferred bool) {
		for _, wc := range p.workers {
			if len(got) == n {
				return
			}
			if wc.dead.Load() || p.leased[wc] {
				continue
			}
			if preferred[wc.name] != wantPreferred {
				continue
			}
			got = append(got, wc)
			p.leased[wc] = true
		}
	}
	take(true)
	take(false)
	if len(got) == 0 {
		return nil
	}
	return &Partition{pool: p, workers: got}
}

// AcquireExact leases the live workers c captured at Start/Restore — the
// connections that hold c's booted instances — so a coordinator that was
// set aside between slices (its partition released, nothing closed)
// continues its lease loop where it stopped, with nothing re-booted and
// nothing re-executed. Members are matched by connection, never by name:
// a worker that died and re-attached under its old name is a different
// connection with none of c's state on it. All or nothing; a miss leases
// nothing and says what the caller can do about it: "leased" — a member
// is in another partition, and c is intact for whoever waits — or "dead"
// — an instance of c sits on a worker that has died (or c never
// started), so there is nothing to continue and the caller falls back to
// Close and Restore. A captured worker whose death c has already
// absorbed, its instances re-homed within the set, is simply left out.
func (p *Pool) AcquireExact(c *Coordinator) (*Partition, string) {
	if len(c.inst) == 0 {
		return nil, "dead"
	}
	for i := range c.inst {
		if c.inst[i].owner.dead.Load() {
			return nil, "dead"
		}
	}
	var held []*workerConn
	for _, wc := range c.workers {
		if !wc.dead.Load() {
			held = append(held, wc)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, wc := range held {
		if p.leased[wc] {
			return nil, "leased"
		}
	}
	for _, wc := range held {
		p.leased[wc] = true
	}
	return &Partition{pool: p, workers: held}, ""
}

// Release returns the partition's members to the pool's free set
// (dead members stay out — they are unleased but never re-acquired).
// The partition is empty afterwards; Release is idempotent.
func (pt *Partition) Release() {
	if pt == nil || pt.pool == nil {
		return
	}
	pt.pool.mu.Lock()
	for _, wc := range pt.workers {
		delete(pt.pool.leased, wc)
	}
	pt.pool.mu.Unlock()
	pt.workers = nil
}

// Live reports how many members are still alive — the capacity the
// holder actually has after any mid-slice worker deaths.
func (pt *Partition) Live() int {
	if pt == nil {
		return 0
	}
	n := 0
	for _, wc := range pt.workers {
		if !wc.dead.Load() {
			n++
		}
	}
	return n
}

// Names lists the partition's live members, for status surfaces.
func (pt *Partition) Names() []string {
	if pt == nil {
		return nil
	}
	out := make([]string, 0, len(pt.workers))
	for _, wc := range pt.workers {
		if !wc.dead.Load() {
			out = append(out, wc.name)
		}
	}
	return out
}

// live returns the partition's live members in attach order, for a
// coordinator capturing its worker set at Start/Restore.
func (pt *Partition) live() []*workerConn {
	if pt == nil {
		return nil
	}
	out := make([]*workerConn, 0, len(pt.workers))
	for _, wc := range pt.workers {
		if !wc.dead.Load() {
			out = append(out, wc)
		}
	}
	return out
}

// FreeLive reports how many live workers are currently unleased — the
// capacity a scheduling round can still partition out.
func (p *Pool) FreeLive() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, wc := range p.workers {
		if !wc.dead.Load() && !p.leased[wc] {
			n++
		}
	}
	return n
}

// snapshot returns the registered workers. Coordinators capture it once
// at Start, so a worker added later never changes a running campaign's
// round-robin assignment.
func (p *Pool) snapshot() []*workerConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*workerConn(nil), p.workers...)
}

// Workers snapshots every registered worker.
func (p *Pool) Workers() []WorkerStatus {
	workers := p.snapshot()
	out := make([]WorkerStatus, 0, len(workers))
	for _, wc := range workers {
		out = append(out, WorkerStatus{
			Name:      wc.name,
			Alive:     !wc.dead.Load(),
			Execs:     wc.execs.Load(),
			SyncBytes: wc.syncBytes.Load(),
			LastReply: time.Unix(0, wc.lastReply.Load()),
		})
	}
	return out
}

// Instrument registers the pool's metric families on reg:
//
//	cmfuzz_workers_alive                      workers currently responding
//	cmfuzz_sync_bytes_total                   lease traffic, all workers
//	cmfuzz_worker_alive{...}                  1 while the worker responds
//	cmfuzz_worker_execs_per_second{...}       per-worker throughput between scrapes
//	cmfuzz_worker_sync_bytes{...}             per-worker lease traffic
//	cmfuzz_worker_heartbeat_age_seconds{...}  time since the last reply
//	cmfuzz_lease_latency_seconds              lease round trips, every campaign
//
// Per-worker series are labeled worker=<index>,name=<reported name>;
// the index disambiguates fleets whose nodes report the same name. The
// throughput gauge is a metrics.Rate of the worker's exec count. Call
// once, before any campaign on the pool starts; a nil registry
// registers nothing.
func (p *Pool) Instrument(reg *metrics.Registry) { p.instrument(reg, time.Now) }

// instrument is Instrument reading the wall clock from now.
func (p *Pool) instrument(reg *metrics.Registry, now func() time.Time) {
	p.leaseLatency = reg.Histogram("cmfuzz_lease_latency_seconds",
		"Round-trip time of one worker lease RPC, request encode to reply decode.", nil)
	reg.GaugeFunc("cmfuzz_workers_alive",
		"Distributed-campaign workers currently responding.", func() float64 {
			alive := 0
			for _, ws := range p.Workers() {
				if ws.Alive {
					alive++
				}
			}
			return float64(alive)
		})
	// Metric names predate the lease protocol; they keep the sync_bytes
	// spelling so existing dashboards and alerts stay valid.
	reg.CounterFunc("cmfuzz_sync_bytes_total",
		"Lease request and reply bytes shipped between coordinator and workers.", func() float64 {
			total := int64(0)
			for _, ws := range p.Workers() {
				total += ws.SyncBytes
			}
			return float64(total)
		})

	var mu sync.Mutex
	var rates []metrics.Rate // per worker index
	reg.Collect(func(set func(name, help string, value float64, labels ...metrics.Label)) {
		workers := p.Workers()
		mu.Lock()
		defer mu.Unlock()
		t := now()
		if n := len(workers) - len(rates); n > 0 {
			rates = append(rates, make([]metrics.Rate, n)...)
		}
		for i, ws := range workers {
			wl := metrics.L("worker", strconv.Itoa(i))
			nl := metrics.L("name", ws.Name)
			alive := 0.0
			if ws.Alive {
				alive = 1
			}
			set("cmfuzz_worker_alive", "1 while the worker responds to the coordinator.", alive, wl, nl)
			set("cmfuzz_worker_sync_bytes", "Lease request and reply bytes shipped to and from this worker.",
				float64(ws.SyncBytes), wl, nl)
			set("cmfuzz_worker_execs_per_second",
				"Protocol executions per wall-clock second on this worker, between scrapes.",
				rates[i].Next(t, float64(ws.Execs)), wl, nl)
			age := 0.0
			if ws.LastReply.UnixNano() > 0 {
				age = max(t.Sub(ws.LastReply).Seconds(), 0)
			}
			set("cmfuzz_worker_heartbeat_age_seconds",
				"Seconds since the worker's last reply (RPC or heartbeat).", age, wl, nl)
		}
	})
}

// NextCampaignID hands out pool-unique campaign ids for coordinators
// sharing this pool's connections.
func (p *Pool) NextCampaignID() uint32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nextCampaign++
	return p.nextCampaign
}

// StartHeartbeats launches one liveness pinger per currently registered
// worker. Idempotent; a nonpositive heartbeat interval disables it.
func (p *Pool) StartHeartbeats() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.hbStarted || p.cfg.HeartbeatInterval <= 0 {
		p.hbStarted = true
		return
	}
	p.hbStarted = true
	for _, wc := range p.workers {
		p.hbWG.Add(1)
		go p.heartbeat(wc)
	}
}

// heartbeat pings wc until the pool closes or the worker dies. A ping is
// an ordinary request: it shares the connection with whatever leases are
// in flight, the worker's reader answers it without waiting for a lane,
// and one that goes unanswered for RPCTimeout kills the connection like
// any other.
func (p *Pool) heartbeat(wc *workerConn) {
	defer p.hbWG.Done()
	ticker := time.NewTicker(p.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-p.stopHeartbeat:
			return
		case <-ticker.C:
		}
		pong := wc.send(msgPing, nil, p.cfg.RPCTimeout)
		select {
		case <-p.stopHeartbeat:
			return
		case rep := <-pong:
			if _, err := wc.expect(rep, msgPong); err != nil {
				wc.kill(err)
				return
			}
		}
	}
}

// Close stops the heartbeats, sends a best-effort Shutdown to every
// live worker, closes the connections and joins their readers.
// Idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	workers := append([]*workerConn(nil), p.workers...)
	p.mu.Unlock()
	close(p.stopHeartbeat)
	p.hbWG.Wait()
	for _, wc := range workers {
		wc.end(errPoolClosed, false)
	}
	p.readWG.Wait()
}
