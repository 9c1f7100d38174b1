package dist_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cmfuzz/internal/dist"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/protocols"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/telemetry"
)

// leaseGauge counts leases on the wire: up when the coordinator writes a
// Lease, down when the worker writes its LeaseResult, remembering the
// most ever outstanding and how many leases were written in all. Every
// frame is one Write, so the type byte is where the frame layout says.
type leaseGauge struct{ now, peak, sent atomic.Int64 }

func (g *leaseGauge) saw(frame []byte, typ byte, delta int64) {
	if !isFrame(frame, typ) {
		return
	}
	if delta > 0 {
		g.sent.Add(delta)
	}
	n := g.now.Add(delta)
	for {
		peak := g.peak.Load()
		if n <= peak || g.peak.CompareAndSwap(peak, n) {
			return
		}
	}
}

func isFrame(frame []byte, typ byte) bool {
	return len(frame) > dist.FrameTypeOffset && frame[dist.FrameTypeOffset] == typ
}

// gaugedConn is one end of a worker's pipe, reporting the frames written
// into it.
type gaugedConn struct {
	net.Conn
	g     *leaseGauge
	typ   byte
	delta int64
	// holdFor, on the worker's end, holds its first reply until the
	// coordinator has written that many leases. net.Pipe is synchronous,
	// so without it a lane could answer the first lease before the
	// coordinator writes the next, and a replay that keeps every chain
	// in flight would show one lease out at a time. A replay that waits
	// for each reply before the next lease never gets that far: the held
	// write gives up after holdTimeout, and starved records it.
	holdFor int64
	held    atomic.Bool
	starved atomic.Bool
}

const holdTimeout = 10 * time.Second

func (c *gaugedConn) Write(p []byte) (int, error) {
	if c.holdFor > 0 && isFrame(p, c.typ) && c.held.CompareAndSwap(false, true) {
		for deadline := time.Now().Add(holdTimeout); c.g.sent.Load() < c.holdFor; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				c.starved.Store(true)
				return 0, errors.New("first lease reply held in vain")
			}
		}
	}
	c.g.saw(p, c.typ, c.delta)
	return c.Conn.Write(p)
}

// TestRestoreReplaysOnEveryLane: Restore re-runs the campaign through
// the path every lease takes, so a resume uses however many lanes the
// worker has. A 4-instance checkpoint restored onto one worker must put
// a lease of every instance on the wire before the first reply is let
// through (a serial re-execution never has more than one out, and fails
// the test when the hold times out), never more than one per instance,
// and finish with the in-process run's artifact tree at every core
// count. And a worker that dies mid-re-run costs the campaign nothing:
// its instances are re-booted on the survivor, replayed, and the tree
// is still the undisturbed run's — telemetry counters included — while
// Stats reports the death.
func TestRestoreReplaysOnEveryLane(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	sub := mustSubject(t, "DNS")
	ctx := context.Background()
	resolve := func(name string) (subject.Subject, error) { return protocols.ByName(name) }

	recA := telemetry.New()
	resA, err := parallel.Run(ctx, sub, baseOptions(recA))
	if err != nil {
		t.Fatal(err)
	}
	dirA := filepath.Join(t.TempDir(), "inproc")
	writeAll(t, dirA, resA, recA)
	want := readTree(t, dirA)

	// Paused at t=1000: every instance is inside its second sync window,
	// so each journal holds two leases.
	src := dist.NewCoordinator(sub, baseOptions(telemetry.New()), dist.Config{HeartbeatInterval: -1})
	wait := addPipeWorkers(t, src.AddConn, 1)
	if err := src.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := src.Advance(ctx, 1000); err != nil {
		t.Fatal(err)
	}
	blob, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	src.Close()
	wait()

	// finish runs the restored campaign out and diffs its tree.
	finish := func(label string, coord *dist.Coordinator, join func()) {
		t.Helper()
		if err := coord.Advance(ctx, coord.Horizon()); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		res, err := coord.Finish(ctx)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		coord.Close()
		join()
		dir := filepath.Join(t.TempDir(), "restored")
		writeAll(t, dir, res, coord.Recorder())
		diffTrees(t, label, want, readTree(t, dir))
	}

	const instances = parallel.DefaultInstances
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		label := fmt.Sprintf("restored at GOMAXPROCS %d", procs)
		var gauge leaseGauge
		coord := dist.NewCoordinator(sub, parallel.Options{}, dist.Config{HeartbeatInterval: -1})
		cConn, wConn := net.Pipe()
		w := dist.NewWorker(dist.WorkerConfig{Name: "w", Resolve: resolve})
		serveErr := make(chan error, 1)
		worker := &gaugedConn{Conn: wConn, g: &gauge, typ: dist.MsgLeaseResult, delta: -1, holdFor: instances}
		go func() { serveErr <- w.Serve(worker) }()
		if err := coord.AddConn(&gaugedConn{Conn: cConn, g: &gauge, typ: dist.MsgLease, delta: +1}); err != nil {
			t.Fatal(err)
		}
		err := coord.Restore(ctx, blob)
		if worker.starved.Load() {
			t.Fatalf("%s: the first replay reply waited %v for one lease per instance and saw %d of %d: the replay is serial", label, holdTimeout, gauge.sent.Load(), instances)
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if now, peak := gauge.now.Load(), gauge.peak.Load(); now != 0 || peak != instances {
			t.Fatalf("%s: %d leases still out after Restore, at most %d in flight at once; want 0 and one chain per instance (%d)", label, now, peak, instances)
		}
		finish(label, coord, func() {
			if err := <-serveErr; err != nil {
				t.Error(err)
			}
		})
	}

	// Two workers; the first lease reply worker 0 sends back during the
	// re-run is lost and the connection with it (reads 1-4 carry hello,
	// assignOK and the boots of instances 0 and 2).
	runtime.GOMAXPROCS(4)
	coord := dist.NewCoordinator(sub, parallel.Options{}, dist.Config{HeartbeatInterval: -1})
	var st failures
	coord.SetObserver(st.observer())
	serveErr := make(chan error, 2)
	for i := 0; i < 2; i++ {
		cConn, wConn := net.Pipe()
		w := dist.NewWorker(dist.WorkerConfig{Name: fmt.Sprintf("w%d", i), Resolve: resolve})
		go func() { serveErr <- w.Serve(wConn) }()
		conn := net.Conn(cConn)
		if i == 0 {
			conn = &readFaultConn{Conn: cConn, limit: 4}
		}
		if err := coord.AddConn(conn); err != nil {
			t.Fatal(err)
		}
	}
	if err := coord.Restore(ctx, blob); err != nil {
		t.Fatalf("restore with a worker dying mid-replay: %v", err)
	}
	if st.deaths != 1 || st.reassignments != 2 {
		t.Fatalf("deaths/reassignments after Restore = %d/%d, want 1/2", st.deaths, st.reassignments)
	}
	finish("restored through a worker death", coord, func() {
		for i := 0; i < 2; i++ {
			<-serveErr
		}
	})
}

// TestRestoreRecountsRestartFailures: checkpoint.bin does not carry an
// instance's restart failures, so Restore's re-run counts them again. CoAP, CMFuzz, seed 3, 8 vh has one, on
// instance 3 at 26,470.8 s; checkpointed at 27,000 s and restored onto
// three fresh workers, the campaign must finish with parallel.Run's tree,
// that failure included.
func TestRestoreRecountsRestartFailures(t *testing.T) {
	sub := mustSubject(t, "CoAP")
	ctx := context.Background()
	options := func(rec *telemetry.Recorder) parallel.Options {
		return parallel.Options{Mode: parallel.ModeCMFuzz, VirtualHours: 8, Seed: 3, Concurrency: 1, Telemetry: rec}
	}
	recA := telemetry.New()
	resA, err := parallel.Run(ctx, sub, options(recA))
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range resA.Instances {
		if want := map[bool]int{true: 1}[i == 3]; in.RestartFailures != want {
			t.Fatalf("in-process instance %d has %d restart failures, want %d: the campaign this test is about has moved", i, in.RestartFailures, want)
		}
	}
	dirA := filepath.Join(t.TempDir(), "inproc")
	writeAll(t, dirA, resA, recA)

	src := dist.NewCoordinator(sub, options(telemetry.New()), dist.Config{HeartbeatInterval: -1})
	wait := addPipeWorkers(t, src.AddConn, 2)
	if err := src.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := src.Advance(ctx, 27000); err != nil {
		t.Fatal(err)
	}
	blob, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	src.Close()
	wait()

	coord := dist.NewCoordinator(sub, parallel.Options{}, dist.Config{HeartbeatInterval: -1})
	wait = addPipeWorkers(t, coord.AddConn, 3)
	if err := coord.Restore(ctx, blob); err != nil {
		t.Fatal(err)
	}
	if err := coord.Advance(ctx, coord.Horizon()); err != nil {
		t.Fatal(err)
	}
	res, err := coord.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	coord.Close()
	wait()
	dir := filepath.Join(t.TempDir(), "restored")
	writeAll(t, dir, res, coord.Recorder())
	diffTrees(t, "restored after a restart failure", readTree(t, dirA), readTree(t, dir))
}
