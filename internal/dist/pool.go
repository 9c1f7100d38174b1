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
// A coordinator takes its plan to every live worker at Start and keeps
// its instances on those workers until it closes, beside whatever other
// campaigns the same workers run.
type Pool struct {
	cfg Config

	mu      sync.Mutex
	workers []*workerConn

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
	return &Pool{cfg: cfg, stopHeartbeat: make(chan struct{})}
}

// AddConn performs the Hello/Welcome handshake on a freshly accepted
// worker connection and registers the worker. The worker speaks first,
// so with synchronous transports (net.Pipe) the worker's Serve loop
// must already be running.
//
// Admission is elastic: a worker attached after the pool went live
// simply joins it (and gets its own heartbeat pinger when heartbeats
// are already running), so the next campaign to Start or Restore — the
// fleet scheduler's next cold grant — boots on it too. Campaigns that
// captured their worker set earlier are unaffected.
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

// snapshot returns the registered workers. Coordinators capture it once
// at Start, so a worker added later never joins a running campaign's
// worker set.
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

// NextCampaignID hands out pool-unique campaign ids, from 0, for
// coordinators sharing this pool's connections. The id also spreads
// campaigns over the pool (Coordinator.boot).
func (p *Pool) NextCampaignID() uint32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	id := p.nextCampaign
	p.nextCampaign++
	return id
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
