package dist_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"cmfuzz/internal/dist"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/protocols"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/telemetry"
)

// faultConn fails every operation after `limit` successful writes,
// simulating a worker process dying mid-campaign at a deterministic
// point in the RPC sequence (net.Pipe carries no kernel buffering, so
// the failure interleaving is reproducible).
type faultConn struct {
	net.Conn
	writes int
	limit  int
}

var errInjected = errors.New("injected worker failure")

func (f *faultConn) Write(p []byte) (int, error) {
	if f.writes >= f.limit {
		return 0, errInjected
	}
	f.writes++
	return f.Conn.Write(p)
}

// deathCounters are the telemetry counters worker deaths used to write
// into a campaign's artifacts. No build writes them now: a death is
// replayed away, and only Stats and the Observer see it.
var deathCounters = []string{"worker_deaths", "group_reassignments"}

// TestWorkerDeathReassignsInstances kills one of two workers partway
// through a campaign and asserts the coordinator notices, rebuilds the
// dead worker's instances on the survivor by replaying their journals,
// counts the failure in Stats, and ends with parallel.Run's artifact
// tree, byte for byte: the death costs wall time, never results.
func TestWorkerDeathReassignsInstances(t *testing.T) {
	sub := mustSubject(t, "DNS")
	options := func(rec *telemetry.Recorder) parallel.Options {
		return parallel.Options{
			Mode: parallel.ModeCMFuzz, VirtualHours: 0.25, Seed: 5, Concurrency: 1,
			Telemetry: rec,
		}
	}
	resolve := func(name string) (subject.Subject, error) { return protocols.ByName(name) }
	recA := telemetry.New()
	inproc, err := parallel.Run(context.Background(), sub, options(recA))
	if err != nil {
		t.Fatal(err)
	}
	dirA := filepath.Join(t.TempDir(), "inproc")
	writeAll(t, dirA, inproc, recA)

	rec := telemetry.New()
	opts := options(rec)

	// Heartbeats off: the death must be detected synchronously by the
	// campaign loop's own RPC failure, keeping the test deterministic.
	coord := dist.NewCoordinator(sub, opts, dist.Config{HeartbeatInterval: -1})
	serveErr := make(chan error, 2)
	for i := 0; i < 2; i++ {
		cConn, wConn := net.Pipe()
		w := dist.NewWorker(dist.WorkerConfig{Name: fmt.Sprintf("w%d", i), Resolve: resolve})
		go func() { serveErr <- w.Serve(wConn) }()
		conn := net.Conn(cConn)
		if i == 0 {
			// Enough writes to get through welcome, assign, both boots,
			// and the first lease per owned instance (6 total), then die
			// when the second round of leases is dispatched.
			conn = &faultConn{Conn: cConn, limit: 6}
		}
		if err := coord.AddConn(conn); err != nil {
			t.Fatal(err)
		}
	}

	res, err := coord.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		<-serveErr
	}

	if len(res.Instances) != 4 {
		t.Fatalf("got %d instance results, want 4", len(res.Instances))
	}
	if res.FinalBranches == 0 || res.TotalExecs == 0 {
		t.Fatalf("campaign did not make progress: %d branches, %d execs", res.FinalBranches, res.TotalExecs)
	}
	last := res.Series.Points()[len(res.Series.Points())-1]
	if want := opts.VirtualHours * 3600; last.T < want {
		t.Fatalf("campaign stopped at %.1f virtual seconds, want %.1f", last.T, want)
	}

	st := coord.Stats()
	if st.WorkerDeaths != 1 {
		t.Fatalf("worker deaths = %d, want 1", st.WorkerDeaths)
	}
	// Worker 0 owned instances 0 and 2 (round-robin over two workers);
	// both must have been re-booted on the survivor.
	if st.Reassignments != 2 {
		t.Fatalf("reassignments = %d, want 2", st.Reassignments)
	}
	for _, k := range deathCounters {
		if _, ok := res.Counters[k]; ok {
			t.Fatalf("the death reached the telemetry counters: %+v", res.Counters)
		}
	}

	var alive, dead int
	for _, ws := range coord.Workers() {
		if ws.Alive {
			alive++
		} else {
			dead++
		}
	}
	if alive != 1 || dead != 1 {
		t.Fatalf("worker status: %d alive, %d dead, want 1/1", alive, dead)
	}
	dir := filepath.Join(t.TempDir(), "dist")
	writeAll(t, dir, res, rec)
	diffTrees(t, "campaign that lost a worker", readTree(t, dirA), readTree(t, dir))
}

// readFaultConn delivers `limit` reads and loses everything after: the
// next frame the worker sends is taken off the pipe and dropped, and the
// connection is broken from then on — the worker accepted its leases,
// ran them, and died with the replies undelivered.
type readFaultConn struct {
	net.Conn
	reads int
	limit int
}

func (f *readFaultConn) Read(p []byte) (int, error) {
	n, err := f.Conn.Read(p)
	if f.reads >= f.limit {
		return 0, errInjected
	}
	f.reads++
	return n, err
}

// TestWorkerDeathMidLease kills a worker between lease dispatch and
// lease reply, with both of its instances' leases in flight on the one
// connection. A reply is all-or-nothing and the connection's death fails
// every request outstanding on it, so zero records from either lease may
// be replayed: the coordinator must rebuild both instances on the
// survivor, send their leases again and still run the campaign to the
// horizon. Which of the two replies is the one that gets lost varies
// with how the worker's lanes finish; the artifacts must not, so the
// scenario runs several times and every tree is diffed against
// parallel.Run's.
func TestWorkerDeathMidLease(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	sub := mustSubject(t, "DNS")
	options := func(rec *telemetry.Recorder) parallel.Options {
		return parallel.Options{
			Mode: parallel.ModeCMFuzz, VirtualHours: 0.25, Seed: 5, Concurrency: 1,
			Telemetry: rec,
		}
	}
	resolve := func(name string) (subject.Subject, error) { return protocols.ByName(name) }
	recA := telemetry.New()
	inproc, err := parallel.Run(context.Background(), sub, options(recA))
	if err != nil {
		t.Fatal(err)
	}
	dirA := filepath.Join(t.TempDir(), "inproc")
	writeAll(t, dirA, inproc, recA)
	want := readTree(t, dirA)

	for run := 0; run < 4; run++ {
		rec := telemetry.New()
		opts := options(rec)
		coord := dist.NewCoordinator(sub, opts, dist.Config{HeartbeatInterval: -1})
		serveErr := make(chan error, 2)
		for i := 0; i < 2; i++ {
			cConn, wConn := net.Pipe()
			w := dist.NewWorker(dist.WorkerConfig{Name: fmt.Sprintf("w%d", i), Resolve: resolve})
			go func() { serveErr <- w.Serve(wConn) }()
			conn := net.Conn(cConn)
			if i == 0 {
				// Reads 1-4 carry hello, assignOK, and both boot results;
				// the fifth is the first lease reply to come back.
				conn = &readFaultConn{Conn: cConn, limit: 4}
			}
			if err := coord.AddConn(conn); err != nil {
				t.Fatal(err)
			}
		}

		res, err := coord.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			<-serveErr
		}

		if len(res.Instances) != 4 {
			t.Fatalf("got %d instance results, want 4", len(res.Instances))
		}
		last := res.Series.Points()[len(res.Series.Points())-1]
		if want := opts.VirtualHours * 3600; last.T < want {
			t.Fatalf("campaign stopped at %.1f virtual seconds, want %.1f", last.T, want)
		}
		// Worker 0 owned instances 0 and 2; the lost reply took both
		// leases with it, and each was retried whole on the survivor.
		st := coord.Stats()
		if st.WorkerDeaths != 1 || st.Reassignments != 2 {
			t.Fatalf("deaths/reassignments = %d/%d, want 1/2", st.WorkerDeaths, st.Reassignments)
		}
		dir := filepath.Join(t.TempDir(), "dist")
		writeAll(t, dir, res, rec)
		diffTrees(t, fmt.Sprintf("run %d against parallel.Run", run), want, readTree(t, dir))
	}
}

// TestRunLocalCancellation checks ctx cancellation propagates through
// the distributed path the same way it does through parallel.Run: a
// partial, well-formed Result alongside ctx.Err().
func TestRunLocalCancellation(t *testing.T) {
	sub := mustSubject(t, "DNS")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := parallel.Options{Mode: parallel.ModeCMFuzz, VirtualHours: 0.25, Seed: 5, Concurrency: 1}
	if _, _, err := dist.RunLocal(ctx, sub, opts, 2, dist.Config{HeartbeatInterval: -1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunLocalFailedAttachLeaksNothing pins RunLocal's error path: a
// worker that cannot be attached (here: a handshake deadline already in
// the past) must not strand its own Serve goroutine on the unread Hello,
// nor the workers attached before it on their idle connections.
func TestRunLocalFailedAttachLeaksNothing(t *testing.T) {
	sub := mustSubject(t, "DNS")
	before := runtime.NumGoroutine()
	opts := parallel.Options{Mode: parallel.ModeCMFuzz, VirtualHours: 0.25, Seed: 5, Concurrency: 1}
	for _, workers := range []int{1, 3} {
		if _, _, err := dist.RunLocal(context.Background(), sub, opts, workers, dist.Config{RPCTimeout: time.Nanosecond}); err == nil {
			t.Fatal("RunLocal attached a worker under an expired handshake deadline")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
