package dist

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cmfuzz/internal/campaign"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/protocols"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/telemetry"
	"cmfuzz/internal/wire"
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

// encodeCheckpointV1 writes ck in version 1's layout, corpus mirrors
// included.
func encodeCheckpointV1(ck *checkpoint) ([]byte, error) {
	c := codec{w: &wire.Writer{}, version: 1}
	c.w.String16(checkpointMagic)
	c.w.U8(1)
	c.checkpoint(ck)
	return c.w.Bytes(), c.err
}

// TestRestoreRebuildsMirrors: since version 2 checkpoint.bin carries no
// corpus mirror, and Restore rebuilds each from the leases it
// re-executes. For every subject, a CMFuzz campaign checkpointed at half
// its horizon and restored onto a fresh coordinator must hold the
// source's mirrors digest for digest, with the messages of the same
// seeds, and finish with the source's artifact tree. A version-1
// checkpoint still carries its mirrors, whole, which must equal the
// rebuilt ones: the version-1 fixture, written again as it was read, restores,
// and with one byte of one seed changed Restore fails naming the
// instance.
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
			for k := 0; k < want.Len(); k++ {
				a, _, wantHeld := want.At(k)
				b, _, gotHeld := got.At(k)
				if wantHeld != gotHeld || !slices.EqualFunc(a.Msgs, b.Msgs, bytes.Equal) {
					t.Fatalf("%s: instance %d: restored mirror seed %d holds messages %v (%q), the source's %v (%q)", name, i, k, gotHeld, b.Msgs, wantHeld, a.Msgs)
				}
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

	// The version-1 layout, mirrors stored: the instance holding the most
	// seeds gets one byte of its middle seed changed.
	ck, err := decodeCheckpoint(v1Checkpoint(t))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := protocols.ByName(ck.protocol)
	if err != nil {
		t.Fatal(err)
	}
	bad := 0
	for i := range ck.replay {
		if ck.replay[i].Mirror.Len() > ck.replay[bad].Mirror.Len() {
			bad = i
		}
	}
	v1, err := encodeCheckpointV1(ck)
	if err != nil {
		t.Fatal(err)
	}
	ok, closeOK := pipeCoordinator(t, sub, parallel.Options{}, 2)
	if err := ok.Restore(ctx, v1); err != nil {
		t.Fatalf("version-1 checkpoint written as it was read: %v", err)
	}
	closeOK()

	m := ck.replay[bad].Mirror
	seed, _, _ := m.At(m.Len() / 2)
	msg := 0
	for len(seed.Msgs[msg]) == 0 {
		msg++
	}
	seed.Msgs[msg][0] ^= 1
	if v1, err = encodeCheckpointV1(ck); err != nil {
		t.Fatal(err)
	}
	refused, closeRefused := pipeCoordinator(t, sub, parallel.Options{}, 2)
	err = refused.Restore(ctx, v1)
	closeRefused()
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("restore of instance %d ", bad)) {
		t.Fatalf("Restore of a version-1 checkpoint whose instance %d mirror differs in one byte = %v, want a failure naming it", bad, err)
	}
	t.Log(err)
}

// TestRestorePublishesBoard: the restored run's board entry goes up once
// Restore has rebuilt the corpus mirrors, so right after Restore every
// instance on the board shows the corpus, execs and edges its replica
// holds — not the empty mirrors it had before the replay.
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
