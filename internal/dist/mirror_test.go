package dist

import (
	"context"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cmfuzz/internal/campaign"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/protocols"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/telemetry"
)

// pipeCoordinator returns a coordinator for sub under opts with n
// in-process pipe workers attached, and a func that closes it and joins
// the workers.
func pipeCoordinator(t *testing.T, sub subject.Subject, opts parallel.Options, n int) (*Coordinator, func()) {
	t.Helper()
	coord := NewCoordinator(sub, opts, Config{HeartbeatInterval: -1})
	served := make(chan error, n)
	for i := 0; i < n; i++ {
		cConn, wConn := net.Pipe()
		go func() { served <- NewWorker(WorkerConfig{Name: "w", Resolve: protocols.ByName}).Serve(wConn) }()
		if err := coord.AddConn(cConn); err != nil {
			t.Fatal(err)
		}
	}
	return coord, func() {
		coord.Close()
		for i := 0; i < n; i++ {
			if err := <-served; err != nil {
				t.Error(err)
			}
		}
	}
}

// finishTree runs coord out to its horizon and returns its artifact tree,
// relative path to contents.
func finishTree(t *testing.T, coord *Coordinator) map[string]string {
	t.Helper()
	ctx := context.Background()
	if err := coord.Advance(ctx, coord.Horizon()); err != nil {
		t.Fatal(err)
	}
	res, err := coord.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return artifactTree(t, res, coord.Recorder())
}

// artifactTree writes res and rec's artifacts and returns them, relative
// path to contents.
func artifactTree(t *testing.T, res *parallel.Result, rec *telemetry.Recorder) map[string]string {
	t.Helper()
	dir := t.TempDir()
	if err := campaign.WriteArtifacts(dir, res); err != nil {
		t.Fatal(err)
	}
	if err := campaign.WriteTelemetry(dir, rec); err != nil {
		t.Fatal(err)
	}
	tree := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		tree[rel] = string(raw)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestRestoreRebuildsMirrors: checkpoint.bin carries no corpus mirror,
// and Restore rebuilds each by re-running the campaign. For every
// subject, a CMFuzz campaign checkpointed at half its horizon and
// restored onto a fresh coordinator must hold the source's mirrors —
// the same seeds, digests, and messages held — and finish with the
// source's artifact tree.
func TestRestoreRebuildsMirrors(t *testing.T) {
	ctx := context.Background()
	for _, sub := range protocols.All() {
		name := sub.Info().Protocol
		src, closeSrc := pipeCoordinator(t, sub, parallel.Options{
			Mode: parallel.ModeCMFuzz, VirtualHours: 0.5, Seed: 11, Concurrency: 1, Telemetry: telemetry.New(),
		}, 2)
		if err := src.Start(ctx); err != nil {
			t.Fatal(err)
		}
		if err := src.Advance(ctx, src.Horizon()/2); err != nil {
			t.Fatal(err)
		}
		blob, err := src.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		seeds := 0
		for i := range src.src.Inst {
			seeds += src.src.Inst[i].Mirror.Len()
		}
		if seeds == 0 {
			t.Fatalf("%s: no instance holds a seed at half horizon: the test checks nothing", name)
		}

		dst, closeDst := pipeCoordinator(t, sub, parallel.Options{}, 2)
		if err := dst.Restore(ctx, blob); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range src.src.Inst {
			want, got := src.src.Inst[i].Mirror, dst.src.Inst[i].Mirror
			if k := want.Diff(got); k >= 0 {
				t.Fatalf("%s: instance %d: restored mirror of %d seeds differs from the source's %d at seed %d",
					name, i, got.Len(), want.Len(), k)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: instance %d: the restored mirror holds other messages than the source's", name, i)
			}
		}
		want, got := finishTree(t, src), finishTree(t, dst)
		closeSrc()
		closeDst()
		if len(got) != len(want) {
			t.Fatalf("%s: %d artifacts restored, %d from the source", name, len(got), len(want))
		}
		for rel, a := range want {
			if got[rel] != a {
				t.Fatalf("%s: restored artifact %s diverged from the source's", name, rel)
			}
		}
	}

}

// TestRestorePublishesBoard: the restored run's board entry goes up once
// Restore has re-run the campaign to its bound, so right after Restore
// every instance on the board shows the corpus, execs and edges its
// replica holds — not the figures of the last coverage sample before.
func TestRestorePublishesBoard(t *testing.T) {
	sub, err := protocols.ByName("DNS")
	if err != nil {
		t.Fatal(err)
	}
	coord, closeCoord := pipeCoordinator(t, sub, parallel.Options{}, 2)
	defer closeCoord()
	if err := coord.Restore(context.Background(), midCampaignCheckpoint(t)); err != nil {
		t.Fatal(err)
	}
	board := coord.Recorder().Board()
	if len(board) != 1 || board[0].Done || len(board[0].Instances) != len(coord.src.Inst) {
		t.Fatalf("board right after Restore = %+v, want one live run of %d instances", board, len(coord.src.Inst))
	}
	seeds := 0
	for i, got := range board[0].Instances {
		g := coord.src.Gauge(i)
		if got.CorpusSeeds != g.Corpus || got.Execs != g.Execs || got.Edges != g.Edges {
			t.Errorf("instance %d on the board %+v, its replica %+v", i, got, g)
		}
		seeds += got.CorpusSeeds
	}
	if seeds == 0 {
		t.Fatalf("board right after Restore shows no corpus seed: %+v", board[0].Instances)
	}
}

// TestRestoreKeepsOwnConcurrency: a checkpoint does not carry
// Concurrency, so a restored campaign plans with the restoring
// coordinator's, as it records with its recorder.
func TestRestoreKeepsOwnConcurrency(t *testing.T) {
	sub, err := protocols.ByName("DNS")
	if err != nil {
		t.Fatal(err)
	}
	coord, closeCoord := pipeCoordinator(t, sub, parallel.Options{Concurrency: 3}, 1)
	defer closeCoord()
	if err := coord.Restore(context.Background(), midCampaignCheckpoint(t)); err != nil {
		t.Fatal(err)
	}
	if got := coord.loop.Opts.Concurrency; got != 3 {
		t.Fatalf("restored campaign plans with Concurrency %d, want the coordinator's 3", got)
	}
}
