package dist_test

import (
	"bytes"
	"context"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"cmfuzz/internal/dist"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/protocols"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/telemetry"
)

// addPipeWorkers attaches n in-process pipe workers to add (a
// Coordinator or Pool AddConn). The returned func joins the worker
// goroutines; call it after the coordinator has shut the fleet down.
func addPipeWorkers(t *testing.T, add func(net.Conn) error, n int) func() {
	t.Helper()
	serveErr := make(chan error, n)
	for i := 0; i < n; i++ {
		cConn, wConn := net.Pipe()
		w := dist.NewWorker(dist.WorkerConfig{Name: "w", Resolve: func(name string) (subject.Subject, error) {
			return protocols.ByName(name)
		}})
		go func() { serveErr <- w.Serve(wConn) }()
		if err := add(cConn); err != nil {
			t.Fatal(err)
		}
	}
	return func() {
		for i := 0; i < n; i++ {
			if err := <-serveErr; err != nil {
				t.Error(err)
			}
		}
	}
}

func diffTrees(t *testing.T, label string, want, got map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: artifact sets differ: %d files vs %d", label, len(want), len(got))
	}
	for rel, a := range want {
		b, ok := got[rel]
		if !ok {
			t.Fatalf("%s: missing artifact %s", label, rel)
		}
		if a != b {
			t.Fatalf("%s: artifact %s diverged:\n--- want ---\n%s\n--- got ---\n%s", label, rel, a, b)
		}
	}
}

// TestCheckpointResumeByteIdentity pins the crash-safe lifecycle: a
// campaign advanced in slices with checkpoints taken mid-lease (t=557,
// inside the first sync window), at a sync boundary (t=1200) and after
// an Advance that ctx cut short (which must be the t=1200 checkpoint,
// byte for byte), then restored onto fresh coordinators with fresh
// workers — even a different worker count — must produce artifacts
// byte-identical to an uninterrupted in-process run. A restored
// coordinator's checkpoint is the one it was restored from.
func TestCheckpointResumeByteIdentity(t *testing.T) {
	sub := mustSubject(t, "DNS")
	ctx := context.Background()

	recA := telemetry.New()
	resA, err := parallel.Run(ctx, sub, baseOptions(recA))
	if err != nil {
		t.Fatal(err)
	}
	dirA := filepath.Join(t.TempDir(), "baseline")
	writeAll(t, dirA, resA, recA)
	treeA := readTree(t, dirA)

	// Sliced run: the same coordinator advances through three checkpoints
	// and finishes. Checkpoint touches no worker, so taking one must not
	// perturb the replay.
	recB := telemetry.New()
	coord := dist.NewCoordinator(sub, baseOptions(recB), dist.Config{HeartbeatInterval: -1})
	wait := addPipeWorkers(t, coord.AddConn, 2)
	if err := coord.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := coord.Advance(ctx, 557); err != nil {
		t.Fatal(err)
	}
	ck1, err := coord.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Advance(ctx, 1200); err != nil {
		t.Fatal(err)
	}
	ck2, err := coord.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	_, _, before := coord.Progress()
	fuse := &fuseCtx{Context: ctx, after: 200, done: make(chan struct{})}
	if err := coord.Advance(fuse, 1800); err != context.Canceled {
		t.Fatalf("Advance under a fuse = %v, want context.Canceled", err)
	}
	if _, _, after := coord.Progress(); after == before {
		t.Fatalf("the cut-short Advance replayed nothing (%d execs): the test checks nothing", after)
	}
	ck3, err := coord.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ck3, ck2) {
		t.Fatalf("checkpoint after a cut-short Advance differs from the one at its last completed bound:\n%x\n%x", ck3, ck2)
	}
	if err := coord.Advance(ctx, coord.Horizon()); err != nil {
		t.Fatal(err)
	}
	resB, err := coord.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	coord.Close()
	wait()
	dirB := filepath.Join(t.TempDir(), "sliced")
	writeAll(t, dirB, resB, recB)
	diffTrees(t, "sliced run", treeA, readTree(t, dirB))

	// Resume each checkpoint on a brand-new coordinator (simulating a
	// coordinator crash after the checkpoint was persisted). The
	// mid-lease resume runs on a different worker count than the
	// original fleet: instance placement must not leak into artifacts.
	for _, tc := range []struct {
		name    string
		blob    []byte
		workers int
	}{
		{"mid-lease", ck1, 3},
		{"sync-boundary", ck2, 2},
		{"cut-short", ck3, 1},
	} {
		c2 := dist.NewCoordinator(sub, baseOptions(telemetry.New()), dist.Config{HeartbeatInterval: -1})
		wait2 := addPipeWorkers(t, c2.AddConn, tc.workers)
		if err := c2.Restore(ctx, tc.blob); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if again, err := c2.Checkpoint(); err != nil || !bytes.Equal(again, tc.blob) {
			t.Fatalf("%s: the restored coordinator checkpoints to %x (%v), restored from %x", tc.name, again, err, tc.blob)
		}
		if err := c2.Advance(ctx, c2.Horizon()); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		res2, err := c2.Finish(ctx)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		c2.Close()
		wait2()
		dir2 := filepath.Join(t.TempDir(), "resume")
		writeAll(t, dir2, res2, c2.Recorder())
		diffTrees(t, "resume from "+tc.name, treeA, readTree(t, dir2))
	}
}

// TestCancelledRunReleasesGoroutines pins the lifecycle audit: after a
// campaign is cancelled mid-run — including mid-lease, with replies in
// flight — every coordinator-side goroutine (connection readers, heartbeats)
// must be joined by the time Run returns. Run under -race this also
// shakes out unsynchronized teardown.
func TestCancelledRunReleasesGoroutines(t *testing.T) {
	sub := mustSubject(t, "DNS")
	before := runtime.NumGoroutine()
	opts := parallel.Options{Mode: parallel.ModeCMFuzz, VirtualHours: 0.25, Seed: 5, Concurrency: 1}
	for rep := 0; rep < 3; rep++ {
		ctx, cancel := context.WithCancel(context.Background())
		if rep == 0 {
			cancel() // cancelled before the first record is replayed
		} else {
			go func() {
				time.Sleep(time.Duration(rep) * 10 * time.Millisecond)
				cancel() // cancelled mid-lease
			}()
		}
		dist.RunLocal(ctx, sub, opts, 2, dist.Config{})
		cancel()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after cancelled runs: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// fuseCtx cancels itself the after-th time its Done channel is asked
// for. Coordinator.Advance asks at least once per replayed record, so
// the cancellation lands mid-Advance.
type fuseCtx struct {
	context.Context
	mu    sync.Mutex
	after int
	done  chan struct{}
}

func (f *fuseCtx) Done() <-chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.after > 0 {
		if f.after--; f.after == 0 {
			close(f.done)
		}
	}
	return f.done
}

func (f *fuseCtx) Err() error {
	select {
	case <-f.done:
		return context.Canceled
	default:
		return nil
	}
}
