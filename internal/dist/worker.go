package dist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"syscall"
	"time"

	"cmfuzz/internal/live"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/spec"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/telemetry/trace"
	"cmfuzz/internal/wire"
)

// WorkerConfig parameterizes a worker node.
type WorkerConfig struct {
	// Name identifies the worker in coordinator logs and metrics.
	Name string
	// Resolve maps the subject name carried in the Assign message to a
	// local subject implementation. Both sides must resolve the same
	// name to behaviorally identical subjects or determinism is lost.
	Resolve func(name string) (subject.Subject, error)
}

// A Worker owns whole campaign instances — engine, booted target,
// mutation RNG, saturation tracker — and executes RPCs from the
// coordinator. It runs the identical per-instance code the in-process
// campaign uses; only the global bookkeeping lives on the coordinator.
// Between scheduler touchpoints it executes whole leases autonomously:
// import seeds, step until the boundary, stream every record back in
// one reply.
//
// Serve reads frames on one goroutine and executes leases on
// runtime.GOMAXPROCS(0) lanes, so a worker uses every core of its
// machine over its one connection. The coordinator never has two leases
// in flight for one instance and instances share nothing between sync
// points, so any lane may take any lease; replies leave as lanes finish,
// tagged with their request's id. Everything else (Assign, Boot,
// Release) runs on the reader, after the addressed campaign's
// in-flight leases have drained — which is why the campaign and instance
// maps need no lock: only the reader touches them.
//
// Every instance-addressed message carries a campaign id, and the
// worker keeps an independent context per campaign, so one connection
// can serve many concurrent campaigns (the fleet service) — a Release
// retires one campaign's instances without disturbing the others.
type Worker struct {
	cfg   WorkerConfig
	camps map[uint32]*workerCampaign

	// Replies are written whole, one Write per frame, under wmu. The
	// first write that fails closes the connection, which ends Serve.
	wmu  sync.Mutex
	fw   frameWriter
	werr error
}

// workerCampaign is one campaign's worker-side state: the assigned plan
// plus whatever instances this worker has booted for it.
type workerCampaign struct {
	host  *parallel.Host
	specs map[int]parallel.InstanceSpec
	insts map[int]*parallel.Instance
	// traced asks the lanes to record this campaign's lease spans (the
	// Assign's Trace flag).
	traced bool
	// leases counts the campaign's leases handed to lanes and not yet
	// answered; the reader waits on it before any message that changes
	// what those leases are running on.
	leases sync.WaitGroup
}

func (wc *workerCampaign) closeInstances() {
	for _, in := range wc.insts {
		in.Close()
	}
	wc.insts = map[int]*parallel.Instance{}
}

// A leaseJob is one decoded lease on its way to a lane, with everything
// the reader looked up for it.
type leaseJob struct {
	id       uint32
	wc       *workerCampaign
	in       *parallel.Instance
	l        lease
	reqBytes int
	decode   time.Duration // what decoding the request took, for the span
}

// A lane executes leases one at a time and owns what a lease needs
// scratch for: the reply encoder and a span tracer — per lane, not per
// campaign, so a reply's span section is exactly the lease the lane just
// ran however many of the campaign's leases are running beside it.
type lane struct {
	index, of int
	enc       codec // encodes into a Writer the lane reuses
	tracer    *trace.Tracer
}

// laneBacklog is how many decoded leases may wait for a lane before the
// reader stops reading. A coordinator keeps at most one lease per
// instance in flight, so this is reached only by a worker hosting more
// running instances than that; the reader then stalls (and pings wait)
// until a lane frees up, which is the old serial behaviour.
const laneBacklog = 256

// NewWorker returns a worker ready to Serve a coordinator connection.
func NewWorker(cfg WorkerConfig) *Worker {
	return &Worker{cfg: cfg}
}

// isDisconnect reports whether err is one of the shapes an abrupt peer
// disconnect takes: clean EOF, EOF mid-frame (coordinator died between
// header and payload), or local/remote teardown of the socket. A worker
// that outlives its coordinator should exit cleanly, not with a
// confusing transport error after a healthy campaign.
func isDisconnect(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}

// Serve runs the worker protocol over conn until the coordinator sends
// Shutdown or the connection drops. It sends the Hello immediately, so
// the coordinator's accept path can complete the handshake. Abrupt
// disconnects (coordinator death, conn teardown) exit cleanly. Leases
// still executing when the connection ends run to their boundary — a
// lease has no cancellation point — and their replies are dropped; Serve
// returns once the lanes have stopped and every instance is closed.
func (w *Worker) Serve(conn net.Conn) error {
	jobs := make(chan leaseJob, laneBacklog)
	var lanes sync.WaitGroup
	n := runtime.GOMAXPROCS(0)
	for i := 0; i < n; i++ {
		lanes.Add(1)
		go func(ln *lane) {
			defer lanes.Done()
			for job := range jobs {
				w.reply(conn, msgLeaseResult, job.id, ln.run(job))
				job.wc.leases.Done()
			}
		}(&lane{index: i, of: n, enc: codec{w: &wire.Writer{}}})
	}
	err := w.read(conn, jobs)
	conn.Close()
	close(jobs)
	lanes.Wait()
	w.closeInstances()
	// A failed reply write closes the connection, so all the reader sees of
	// it is a disconnect: the write's error is the cause then.
	if w.werr != nil && (err == nil || isDisconnect(err)) {
		err = w.werr
	}
	if isDisconnect(err) {
		return nil
	}
	return err
}

// read is Serve's reader: the handshake, then one frame at a time until
// Shutdown (nil) or a transport error. Leases go to the lanes; every
// other request is answered here.
func (w *Worker) read(conn net.Conn, jobs chan<- leaseJob) error {
	w.reply(conn, msgHello, 0, marshal(&hello{Name: w.cfg.Name, Version: protocolVersion}, (*codec).hello))
	br := bufio.NewReaderSize(conn, 64<<10)
	typ, _, _, err := readFrame(br)
	if err != nil {
		return err
	}
	if typ != msgWelcome {
		return fmt.Errorf("dist: worker handshake: got message %d, want Welcome", typ)
	}
	for {
		typ, id, payload, err := readFrame(br)
		if err != nil {
			return err
		}
		switch typ {
		case msgShutdown:
			return nil
		case msgLease:
			if job, err := w.admit(id, payload); err != nil {
				w.reply(conn, msgError, id, []byte(err.Error()))
			} else {
				jobs <- job
			}
		default:
			// Report a failure; the coordinator decides whether the
			// campaign survives. Every request gets exactly one reply.
			rtyp, rp, err := w.handle(typ, payload)
			if err != nil {
				rtyp, rp = msgError, []byte(err.Error())
			}
			w.reply(conn, rtyp, id, rp)
		}
	}
}

// reply writes one frame. A failed write closes the connection: the
// reader's next read then fails and Serve winds down, returning the
// write's error.
func (w *Worker) reply(conn net.Conn, typ byte, id uint32, payload []byte) {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	if err := w.fw.write(conn, typ, id, payload); err != nil && w.werr == nil {
		w.werr = err
		conn.Close()
	}
}

func (w *Worker) closeInstances() {
	for _, wc := range w.camps {
		wc.closeInstances()
	}
}

// drained returns campaign id's context once none of its leases is
// executing (nil for an unknown campaign).
func (w *Worker) drained(id uint32) *workerCampaign {
	wc := w.camps[id]
	if wc != nil {
		wc.leases.Wait()
	}
	return wc
}

// admit decodes a lease and resolves what it addresses, counting it
// in flight for its campaign before the reader moves on to a frame that
// might retire that campaign.
func (w *Worker) admit(id uint32, payload []byte) (leaseJob, error) {
	start := time.Now()
	l, err := unmarshal(payload, (*codec).lease)
	if err != nil {
		return leaseJob{}, err
	}
	wc := w.camps[l.Campaign]
	if wc == nil {
		return leaseJob{}, fmt.Errorf("dist: lease for unassigned campaign %d", l.Campaign)
	}
	in := wc.insts[l.Index]
	if in == nil {
		return leaseJob{}, fmt.Errorf("dist: lease for unbooted instance %d", l.Index)
	}
	wc.leases.Add(1)
	return leaseJob{id: id, wc: wc, in: in, l: l, reqBytes: len(payload), decode: time.Since(start)}, nil
}

// run executes one lease and returns the encoded reply, valid until the
// lane's next lease.
func (ln *lane) run(job leaseJob) []byte {
	l := job.l
	// Lease spans (no-ops when tracing is off): the root covers the
	// execution, with decode backfilled via Complete since the reader did
	// it before the lease reached a lane.
	var tr *trace.Tracer
	if job.wc.traced {
		if ln.tracer == nil {
			ln.tracer = trace.New()
		}
		tr = ln.tracer
	}
	root := tr.Start("lease", trace.A("instance", l.Index))
	now := tr.Now()
	root.Complete("lease.decode", now-job.decode, now, trace.A("bytes", job.reqBytes))
	steps := root.Child("lease.steps", trace.A("seeds", len(l.Seeds)))
	recs, syncDue := job.in.RunLease(l.Seeds, l.Boundary, l.Horizon)
	steps.Set("records", len(recs))
	steps.End()
	encode := tr.Now()
	ln.enc.w.Reset()
	for k := range recs {
		if r := &recs[k]; r.NewEdges > 0 {
			r.Digest = r.Seed.Digest()
		}
		ln.enc.step(&recs[k])
	}
	root.Complete("lease.encode", encode, tr.Now())
	root.End()
	// The span section rides after the terminator: everything above has
	// ended and the lane ran nothing else meanwhile, so the drain is this
	// lease's whole span tree (plus the lane's clock for alignment). Ids
	// are strided by lane to stay unique within the worker; the track is
	// the lane, so overlapping leases render on separate rows.
	spans := tr.DrainRecords()
	for k := range spans {
		s := &spans[k]
		s.ID = s.ID*ln.of + ln.index
		if s.Parent >= 0 {
			s.Parent = s.Parent*ln.of + ln.index
		}
		s.Track = ln.index
	}
	ln.enc.leaseTail(&leaseResult{SyncDue: syncDue, Spans: spans, WorkerNow: tr.Now()})
	return ln.enc.w.Bytes()
}

// handle answers every request but a lease. It runs on the reader, and
// waits out the addressed campaign's in-flight leases first.
func (w *Worker) handle(typ byte, payload []byte) (byte, []byte, error) {
	switch typ {
	case msgPing:
		return msgPong, nil, nil

	case msgAssign:
		a, err := unmarshal(payload, (*codec).assign)
		if err != nil {
			return 0, nil, err
		}
		target := spec.Campaign{Subject: a.Subject}
		if a.LiveSpec != "" {
			// Live target: the spec travels inline, so any worker can
			// spawn and drive the external server locally.
			ls, err := live.ParseSpec([]byte(a.LiveSpec))
			if err != nil {
				return 0, nil, fmt.Errorf("dist: %w", err)
			}
			target.Live = &ls
		}
		sub, err := target.Target(w.cfg.Resolve)
		if err != nil {
			return 0, nil, fmt.Errorf("dist: subject %q: %w", a.Subject, err)
		}
		host, err := parallel.NewHost(sub, a.Opts)
		if err != nil {
			return 0, nil, err
		}
		// A re-Assign of the same campaign replaces its instance map;
		// close what the previous assignment booted first or its live
		// targets leak. Other campaigns on the connection are untouched.
		if prev := w.drained(a.Campaign); prev != nil {
			prev.closeInstances()
		}
		if w.camps == nil {
			w.camps = make(map[uint32]*workerCampaign)
		}
		wc := &workerCampaign{
			host:   host,
			specs:  make(map[int]parallel.InstanceSpec, len(a.Specs)),
			insts:  make(map[int]*parallel.Instance),
			traced: a.Trace,
		}
		for _, s := range a.Specs {
			wc.specs[s.Index] = s
		}
		w.camps[a.Campaign] = wc
		return msgAssignOK, nil, nil

	case msgRelease:
		id, err := unmarshal(payload, u32[uint32])
		if err != nil {
			return 0, nil, err
		}
		// Releasing an unknown campaign is fine: release is idempotent
		// and the coordinator sends it best-effort during teardown.
		if wc := w.drained(id); wc != nil {
			wc.closeInstances()
			delete(w.camps, id)
		}
		return msgReleaseOK, nil, nil

	case msgBoot:
		b, err := unmarshal(payload, (*codec).bootReq)
		if err != nil {
			return 0, nil, err
		}
		wc := w.drained(b.Campaign)
		if wc == nil {
			return 0, nil, fmt.Errorf("dist: boot for unassigned campaign %d", b.Campaign)
		}
		spec, ok := wc.specs[b.Index]
		if !ok {
			return 0, nil, fmt.Errorf("dist: boot for unassigned instance %d", b.Index)
		}
		// The report carries the full startup map; from here on only new
		// words travel.
		in, rep, err := wc.host.Boot(spec)
		br := bootResult{BootReport: rep}
		if err != nil {
			br.Err = err.Error()
		} else {
			wc.insts[b.Index] = in
		}
		return msgBootResult, marshal(&br, (*codec).bootResult), nil

	default:
		return 0, nil, fmt.Errorf("dist: unexpected message type %d", typ)
	}
}

// Dial connects to a coordinator at addr, retrying with jittered
// exponential backoff: each failed attempt doubles the base delay (50ms
// up to 5s) and adds up to 100% jitter, so a fleet of workers restarted
// together does not stampede the coordinator.
func Dial(addr string, attempts int, seed int64) (net.Conn, error) {
	if attempts <= 0 {
		attempts = 1
	}
	rng := rand.New(rand.NewSource(seed))
	backoff := 50 * time.Millisecond
	var lastErr error
	for i := 0; i < attempts; i++ {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		if i == attempts-1 {
			break
		}
		time.Sleep(backoff + time.Duration(rng.Int63n(int64(backoff))))
		if backoff < 5*time.Second {
			backoff *= 2
		}
	}
	return nil, fmt.Errorf("dist: dial %s after %d attempts: %w", addr, attempts, lastErr)
}
