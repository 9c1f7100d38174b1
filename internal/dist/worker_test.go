package dist

import (
	"errors"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/protocols"
	"cmfuzz/internal/subject"
)

// countingSubject wraps a real subject and counts instances that are
// currently open (started and not yet closed).
type countingSubject struct {
	subject.Subject
	open atomic.Int32
}

func (s *countingSubject) NewInstance() subject.Instance {
	return &countingInstance{Instance: s.Subject.NewInstance(), open: &s.open}
}

type countingInstance struct {
	subject.Instance
	open    *atomic.Int32
	counted bool
}

func (in *countingInstance) Start(cfg map[string]string, tr *coverage.Trace) error {
	err := in.Instance.Start(cfg, tr)
	if err == nil && !in.counted {
		in.counted = true
		in.open.Add(1)
	}
	return err
}

func (in *countingInstance) Close() {
	if in.counted {
		in.counted = false
		in.open.Add(-1)
	}
	in.Instance.Close()
}

// TestReassignClosesPreviousInstances pins the msgAssign lifecycle fix:
// a second Assign must Close every instance the first campaign booted
// before replacing the instance map, or their targets leak.
func TestReassignClosesPreviousInstances(t *testing.T) {
	base, err := protocols.ByName("DNS")
	if err != nil {
		t.Fatal(err)
	}
	cs := &countingSubject{Subject: base}
	w := NewWorker(WorkerConfig{
		Name:    "w",
		Resolve: func(string) (subject.Subject, error) { return cs, nil },
	})

	opts := parallel.Options{
		Mode: parallel.ModePeach, Instances: 2, VirtualHours: 0.1, Seed: 1, Concurrency: 1,
	}
	host, err := parallel.NewHost(cs, opts)
	if err != nil {
		t.Fatal(err)
	}
	plan := host.Plan(bugs.NewLedger(), nil, nil)
	payload := marshal(&assign{Subject: "DNS", Opts: opts, Specs: plan.Specs}, (*codec).assign)

	bootAll := func() {
		if typ, _, err := w.handle(msgAssign, payload); err != nil || typ != msgAssignOK {
			t.Fatalf("assign: type %d, err %v", typ, err)
		}
		for i := 0; i < 2; i++ {
			typ, p, err := w.handle(msgBoot, marshal(&bootReq{Index: i}, (*codec).bootReq))
			if err != nil || typ != msgBootResult {
				t.Fatalf("boot %d: type %d, err %v", i, typ, err)
			}
			br, err := unmarshal(p, (*codec).bootResult)
			if err != nil || br.Err != "" {
				t.Fatalf("boot %d failed: %v %q", i, err, br.Err)
			}
		}
	}

	bootAll()
	if got := cs.open.Load(); got != 2 {
		t.Fatalf("open instances after first campaign = %d, want 2", got)
	}
	// Re-Assign: the two live targets from the first campaign must be
	// closed before the fresh instance map replaces them.
	bootAll()
	if got := cs.open.Load(); got != 2 {
		t.Fatalf("open instances after re-assign = %d, want 2 (previous campaign leaked)", got)
	}
	w.closeInstances()
	if got := cs.open.Load(); got != 0 {
		t.Fatalf("open instances after close = %d, want 0", got)
	}
}

// TestServeNormalizesAbruptDisconnect pins the Serve exit-path fix: a
// coordinator that vanishes — cleanly, mid-frame, or by conn teardown —
// must yield a nil Serve error, not a transport error after a healthy
// campaign.
func TestServeNormalizesAbruptDisconnect(t *testing.T) {
	cases := []struct {
		name string
		peer func(t *testing.T, conn net.Conn)
	}{
		{"clean close after welcome", func(t *testing.T, conn net.Conn) {
			if _, _, _, err := readFrame(conn); err != nil { // hello
				t.Error(err)
			}
			if err := writeFrame(conn, msgWelcome, 0, nil); err != nil {
				t.Error(err)
			}
			conn.Close()
		}},
		{"mid-frame death", func(t *testing.T, conn net.Conn) {
			if _, _, _, err := readFrame(conn); err != nil {
				t.Error(err)
			}
			if err := writeFrame(conn, msgWelcome, 0, nil); err != nil {
				t.Error(err)
			}
			// Three bytes of a nine-byte header, then death: the worker
			// sees io.ErrUnexpectedEOF, not io.EOF.
			conn.Write([]byte{0, 0, 0})
			conn.Close()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cConn, wConn := net.Pipe()
			done := make(chan error, 1)
			w := NewWorker(WorkerConfig{Name: "w"})
			go func() { done <- w.Serve(wConn) }()
			tc.peer(t, cConn)
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("Serve returned %v, want nil", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Serve did not exit")
			}
		})
	}

	// Sanity: isDisconnect covers the error shapes the satellite names.
	for _, err := range []error{io.EOF, io.ErrUnexpectedEOF, io.ErrClosedPipe, net.ErrClosed} {
		if !isDisconnect(err) {
			t.Fatalf("isDisconnect(%v) = false", err)
		}
	}
	if isDisconnect(errInjectedDist) {
		t.Fatal("isDisconnect treats an arbitrary error as a disconnect")
	}
}

// TestServeReturnsReplyWriteError pins what Serve reports when a reply
// cannot be written: the write error itself, not the closed-connection
// read error that follows it (which is a disconnect shape and would read
// as a clean exit).
func TestServeReturnsReplyWriteError(t *testing.T) {
	cConn, wConn := net.Pipe()
	defer cConn.Close()
	done := make(chan error, 1)
	w := NewWorker(WorkerConfig{Name: "w"})
	// The Hello goes out; the Pong does not.
	go func() { done <- w.Serve(&failingWriter{Conn: wConn, after: 1}) }()
	if _, _, _, err := readFrame(cConn); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(cConn, msgWelcome, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(cConn, msgPing, 1, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, errInjectedDist) {
			t.Fatalf("Serve returned %v, want the reply's write error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not exit")
	}
}

var errInjectedDist = errTest("boom")

// failingWriter fails every Write after the first `after` with
// errInjectedDist, which is no disconnect shape.
type failingWriter struct {
	net.Conn
	after int
}

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.after == 0 {
		return 0, errInjectedDist
	}
	f.after--
	return f.Conn.Write(p)
}

type errTest string

func (e errTest) Error() string { return string(e) }

// A testPeer plays the coordinator's end of a worker connection by hand:
// it tags requests with ids and reads whatever comes back.
type testPeer struct {
	t    *testing.T
	conn net.Conn
	next uint32
}

// servePeer starts w.Serve on a pipe, completes the handshake and
// returns the coordinator's end plus Serve's result channel.
func servePeer(t *testing.T, w *Worker) (*testPeer, <-chan error) {
	t.Helper()
	cConn, wConn := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- w.Serve(wConn) }()
	if typ, _, _, err := readFrame(cConn); err != nil || typ != msgHello {
		t.Fatalf("hello: type %d, err %v", typ, err)
	}
	if err := writeFrame(cConn, msgWelcome, 0, nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cConn.Close() })
	return &testPeer{t: t, conn: cConn}, done
}

func (p *testPeer) send(typ byte, payload []byte) uint32 {
	p.t.Helper()
	p.next++
	if err := writeFrame(p.conn, typ, p.next, payload); err != nil {
		p.t.Fatal(err)
	}
	return p.next
}

type peerReply struct {
	typ     byte
	id      uint32
	payload []byte
}

func (p *testPeer) recv() peerReply {
	p.t.Helper()
	typ, id, payload, err := readFrame(p.conn)
	if err != nil {
		p.t.Fatal(err)
	}
	return peerReply{typ, id, payload}
}

// call is one lock-step exchange; the reply must echo the request's id.
func (p *testPeer) call(typ byte, payload []byte, want byte) []byte {
	p.t.Helper()
	id := p.send(typ, payload)
	rep := p.recv()
	if rep.id != id || rep.typ != want {
		p.t.Fatalf("request %d (type %d): reply id %d type %d %q, want type %d", id, typ, rep.id, rep.typ, rep.payload, want)
	}
	return rep.payload
}

// TestWorkerHostsConcurrentCampaigns pins the multi-campaign contract on
// a worker with several lanes: one connection hosts instances from two
// campaigns, their leases are in flight together and come back tagged,
// a Release of one campaign sent while its leases are still running
// waits them out — each is answered in full, before the ReleaseOK — and
// retires exactly that campaign's instances (idempotently), and the
// surviving campaign keeps serving leases.
func TestWorkerHostsConcurrentCampaigns(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	base, err := protocols.ByName("DNS")
	if err != nil {
		t.Fatal(err)
	}
	cs := &countingSubject{Subject: base}
	w := NewWorker(WorkerConfig{
		Name:    "w",
		Resolve: func(string) (subject.Subject, error) { return cs, nil },
	})

	opts := parallel.Options{
		Mode: parallel.ModePeach, Instances: 2, VirtualHours: 0.1, Seed: 1, Concurrency: 1,
	}
	host, err := parallel.NewHost(cs, opts)
	if err != nil {
		t.Fatal(err)
	}
	plan := host.Plan(bugs.NewLedger(), nil, nil)
	peer, served := servePeer(t, w)

	for _, id := range []uint32{1, 2} {
		peer.call(msgAssign, marshal(&assign{Campaign: id, Subject: "DNS", Opts: opts, Specs: plan.Specs}, (*codec).assign), msgAssignOK)
		for i := 0; i < 2; i++ {
			p := peer.call(msgBoot, marshal(&bootReq{Campaign: id, Index: i}, (*codec).bootReq), msgBootResult)
			if br, err := unmarshal(p, (*codec).bootResult); err != nil || br.Err != "" {
				t.Fatalf("boot %d/%d failed: %v %q", id, i, err, br.Err)
			}
		}
	}
	if got := cs.open.Load(); got != 4 {
		t.Fatalf("open instances with two campaigns = %d, want 4", got)
	}

	// Four leases, the two campaigns interleaved, then the Release of
	// campaign 1 behind them — all written before any reply is read.
	leases := map[uint32]uint32{} // request id -> campaign
	for _, l := range []lease{
		{Campaign: 1, Index: 0}, {Campaign: 2, Index: 0}, {Campaign: 1, Index: 1}, {Campaign: 2, Index: 1},
	} {
		l.Boundary, l.Horizon = 60, 360
		leases[peer.send(msgLease, marshal(&l, (*codec).lease))] = l.Campaign
	}
	campaign1 := uint32(1)
	release1 := marshal(&campaign1, u32[uint32])
	release := peer.send(msgRelease, release1)
	pending := 2 // campaign 1's leases not yet answered
	for n := 0; n < 5; n++ {
		rep := peer.recv()
		if rep.id == release {
			if rep.typ != msgReleaseOK {
				t.Fatalf("release: type %d %q", rep.typ, rep.payload)
			}
			if pending != 0 {
				t.Fatalf("ReleaseOK arrived with %d of the campaign's leases unanswered", pending)
			}
			if got := cs.open.Load(); got != 2 {
				t.Fatalf("open instances after releasing campaign 1 = %d, want 2", got)
			}
			continue
		}
		campaign, ok := leases[rep.id]
		if !ok || rep.typ != msgLeaseResult {
			t.Fatalf("reply id %d type %d %q, want a lease result for one of %v", rep.id, rep.typ, rep.payload, leases)
		}
		delete(leases, rep.id)
		if lr, err := unmarshal(rep.payload, (*codec).leaseResult); err != nil || len(lr.Steps) == 0 {
			t.Fatalf("campaign %d lease: %d records, err %v", campaign, len(lr.Steps), err)
		}
		if campaign == 1 {
			pending--
		}
	}

	// Campaign 2 keeps serving; campaign 1's state is gone.
	peer.call(msgLease, marshal(&lease{Campaign: 2, Index: 0, Boundary: 120, Horizon: 360}, (*codec).lease), msgLeaseResult)
	peer.call(msgLease, marshal(&lease{Campaign: 1, Index: 0, Boundary: 120, Horizon: 360}, (*codec).lease), msgError)
	peer.call(msgBoot, marshal(&bootReq{Campaign: 1, Index: 0}, (*codec).bootReq), msgError)
	// Release is idempotent.
	peer.call(msgRelease, release1, msgReleaseOK)

	peer.send(msgShutdown, nil)
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if got := cs.open.Load(); got != 0 {
		t.Fatalf("open instances after Serve returned = %d, want 0", got)
	}
}
