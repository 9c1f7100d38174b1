package dist_test

import (
	"bytes"
	"context"
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
// inside the first sync window) and at a sync boundary (t=1200), then
// restored onto fresh coordinators with fresh workers — even a
// different worker count — must produce artifacts byte-identical to an
// uninterrupted in-process run.
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

	// Sliced run: the same coordinator advances through two checkpoints
	// and finishes. Checkpoint drains in-flight leases, so taking one
	// must not perturb the replay.
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
	} {
		c2 := dist.NewCoordinator(sub, baseOptions(telemetry.New()), dist.Config{HeartbeatInterval: -1})
		wait2 := addPipeWorkers(t, c2.AddConn, tc.workers)
		if err := c2.Restore(ctx, tc.blob); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
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

// TestCheckpointed pins the predicate a scheduler uses to decide that a
// coordinator can be set aside (or dropped) without writing a
// checkpoint: true exactly while the last Checkpoint, or the blob
// Restore loaded, still describes the replay state.
func TestCheckpointed(t *testing.T) {
	sub := mustSubject(t, "DNS")
	ctx := context.Background()
	want := func(c *dist.Coordinator, when string, v bool) {
		t.Helper()
		if got := c.Checkpointed(); got != v {
			t.Fatalf("Checkpointed %s = %v, want %v", when, got, v)
		}
	}

	coord := dist.NewCoordinator(sub, baseOptions(telemetry.New()), dist.Config{HeartbeatInterval: -1})
	wait := addPipeWorkers(t, coord.AddConn, 2)
	want(coord, "before Start", false)
	if err := coord.Start(ctx); err != nil {
		t.Fatal(err)
	}
	want(coord, "after Start", false)
	if err := coord.Advance(ctx, 400); err != nil {
		t.Fatal(err)
	}
	want(coord, "after Advance", false)
	blob, err := coord.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	want(coord, "after Checkpoint", true)
	if err := coord.Advance(ctx, 400); err != nil {
		t.Fatal(err)
	}
	want(coord, "after an Advance that had nothing to replay", true)

	if err := coord.Advance(ctx, 800); err != nil {
		t.Fatal(err)
	}
	want(coord, "after Advance past the checkpoint", false)
	coord.Close()
	wait()

	restored := dist.NewCoordinator(sub, baseOptions(telemetry.New()), dist.Config{HeartbeatInterval: -1})
	wait = addPipeWorkers(t, restored.AddConn, 2)
	if err := restored.Restore(ctx, blob); err != nil {
		t.Fatal(err)
	}
	want(restored, "after Restore", true)
	if clock := restored.MinClock(); clock < 400 {
		t.Fatalf("restored clock = %v, want >= 400", clock)
	}
	// An Advance cancelled before it replays anything leaves the
	// coordinator where the checkpoint has it.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if err := restored.Advance(cctx, 800); err != context.Canceled {
		t.Fatalf("cancelled Advance = %v", err)
	}
	want(restored, "after a cancelled Advance that replayed nothing", true)
	restored.Close()
	want(restored, "after Close", false)
	wait()
}

// TestRestoresParentCheckpoint guards checkpoint.bin across the commits
// that changed its layout. Each fixture was written by an older build,
// of a DNS CMFuzz campaign of 2 instances over 0.5 vh with saturation
// window 30, paused with records still to replay — crashes, new-edge
// deltas and saturation mutations among them:
//
//   - checkpoint_v1.bin.gz, version 1, written before step records
//     could carry a latency charge: seed 11, paused at t=800 with 399
//     records to replay. It stores the corpus mirrors, which Restore holds
//     to the ones replay rebuilds.
//   - checkpoint_v2.bin.gz, version 2, written before records carried
//     seed digests (midCampaignCheckpoint: seed 5, paused at t=800): its
//     records to replay carry every new seed's messages.
//
// Each must restore; the restored coordinator's checkpoint must be of
// the current version and a fixed point of decoding and encoding; and
// the campaign must finish byte-identical to the in-process run.
func TestRestoresParentCheckpoint(t *testing.T) {
	for _, fx := range []struct {
		file    string
		version byte
		seed    int64
	}{
		{"checkpoint_v1.bin.gz", 1, 11},
		{"checkpoint_v2.bin.gz", 2, 5},
	} {
		t.Run(fx.file, func(t *testing.T) {
			blob := dist.Fixture(t, fx.file)
			if v := blob[dist.CheckpointVersionAt]; v != fx.version {
				t.Fatalf("fixture is version %d, want %d", v, fx.version)
			}
			if err := dist.ValidateCheckpoint(blob); err != nil {
				t.Fatal(err)
			}

			sub := mustSubject(t, "DNS")
			ctx := context.Background()
			recA := telemetry.New()
			resA, err := parallel.Run(ctx, sub, parallel.Options{
				Mode: parallel.ModeCMFuzz, Instances: 2, VirtualHours: 0.5, Seed: fx.seed,
				Concurrency: 1, SaturationWindow: 30, Telemetry: recA,
			})
			if err != nil {
				t.Fatal(err)
			}
			dirA := filepath.Join(t.TempDir(), "baseline")
			writeAll(t, dirA, resA, recA)

			coord := dist.NewCoordinator(sub, parallel.Options{}, dist.Config{HeartbeatInterval: -1})
			wait := addPipeWorkers(t, coord.AddConn, 2)
			if err := coord.Restore(ctx, blob); err != nil {
				t.Fatal(err)
			}
			again, err := coord.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if v := again[dist.CheckpointVersionAt]; v != dist.CheckpointVersion {
				t.Fatalf("restored checkpoint is version %d, want %d", v, dist.CheckpointVersion)
			}
			if back, err := dist.ReencodeCheckpoint(again); err != nil || !bytes.Equal(back, again) {
				t.Fatalf("restored checkpoint of %d bytes re-encodes to %d different bytes (%v)", len(again), len(back), err)
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
			dirB := filepath.Join(t.TempDir(), "restored")
			writeAll(t, dirB, res, coord.Recorder())
			diffTrees(t, "restored parent checkpoint", readTree(t, dirA), readTree(t, dirB))
		})
	}
}
