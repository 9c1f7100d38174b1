package dist_test

import (
	"context"
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"cmfuzz/internal/campaign"
	"cmfuzz/internal/dist"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/protocols"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/telemetry"
	"cmfuzz/internal/telemetry/trace"
)

func mustSubject(t *testing.T, name string) subject.Subject {
	t.Helper()
	sub, err := protocols.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

func baseOptions(rec *telemetry.Recorder) parallel.Options {
	return parallel.Options{
		Mode:         parallel.ModeCMFuzz,
		VirtualHours: 0.5,
		Seed:         11,
		Concurrency:  1,
		Telemetry:    rec,
	}
}

// writeAll drops the full artifact set (result.json, coverage.csv,
// crash reports, events.jsonl, timeline.txt) for one run.
func writeAll(t *testing.T, dir string, res *parallel.Result, rec *telemetry.Recorder) {
	t.Helper()
	if err := campaign.WriteArtifacts(dir, res); err != nil {
		t.Fatal(err)
	}
	if err := campaign.WriteTelemetry(dir, rec); err != nil {
		t.Fatal(err)
	}
}

// readTree maps relative path -> contents for every file under dir.
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out[rel] = string(raw)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLoopbackMatchesInProcess is the subsystem's anchor: the same DNS
// campaign, run once in-process and once through a coordinator driving
// two workers over real loopback TCP, must produce byte-identical
// artifacts — summary, coverage series, crash reports, and the full
// telemetry event stream.
func TestLoopbackMatchesInProcess(t *testing.T) {
	sub := mustSubject(t, "DNS")

	recA := telemetry.New()
	resA, err := parallel.Run(context.Background(), sub, baseOptions(recA))
	if err != nil {
		t.Fatal(err)
	}
	dirA := filepath.Join(t.TempDir(), "inproc")
	writeAll(t, dirA, resA, recA)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const workers = 2
	serveErr := make(chan error, workers)
	for i := 0; i < workers; i++ {
		go func(i int) {
			conn, err := dist.Dial(ln.Addr().String(), 5, int64(i))
			if err != nil {
				serveErr <- err
				return
			}
			w := dist.NewWorker(dist.WorkerConfig{Name: "w", Resolve: func(name string) (subject.Subject, error) {
				return protocols.ByName(name)
			}})
			serveErr <- w.Serve(conn)
		}(i)
	}
	// Tracing on for the distributed side only: spans must never reach
	// the artifacts, so the byte-for-byte diff below doubles as the
	// observation-only guarantee for cross-process tracing.
	tracer := trace.New()
	troot := tracer.Start("coordinator")
	recB := telemetry.New()
	optsB := baseOptions(recB)
	optsB.Trace = troot
	coord := dist.NewCoordinator(sub, optsB, dist.Config{})
	var st failures
	coord.SetObserver(st.observer())
	for i := 0; i < workers; i++ {
		conn, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.AddConn(conn); err != nil {
			t.Fatal(err)
		}
	}
	resB, err := coord.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < workers; i++ {
		<-serveErr
	}
	troot.End()
	foreign := 0
	for _, r := range tracer.Records() {
		if r.Process != "" {
			foreign++
		}
	}
	if foreign == 0 {
		t.Fatal("no worker spans were stitched into the coordinator trace")
	}
	dirB := filepath.Join(t.TempDir(), "dist")
	writeAll(t, dirB, resB, recB)

	treeA, treeB := readTree(t, dirA), readTree(t, dirB)
	if len(treeB) != len(treeA) {
		t.Fatalf("artifact sets differ: %d files in-process, %d distributed", len(treeA), len(treeB))
	}
	for rel, a := range treeA {
		b, ok := treeB[rel]
		if !ok {
			t.Fatalf("distributed run missing artifact %s", rel)
		}
		if a != b {
			t.Fatalf("artifact %s diverged between in-process and distributed runs:\n--- in-process ---\n%s\n--- distributed ---\n%s", rel, a, b)
		}
	}

	if st.deaths != 0 || st.reassignments != 0 {
		t.Fatalf("healthy run reported failures: %+v", st)
	}
	for _, ws := range coord.Workers() {
		if !ws.Alive || ws.Execs == 0 || ws.SyncBytes == 0 {
			t.Fatalf("worker status not maintained: %+v", ws)
		}
	}
}

// TestRunLocalMatchesInProcess pins the net.Pipe harness against the
// in-process result too, at a different worker count than the TCP test.
func TestRunLocalMatchesInProcess(t *testing.T) {
	sub := mustSubject(t, "MQTT")
	opts := parallel.Options{Mode: parallel.ModeCMFuzz, VirtualHours: 0.25, Seed: 3, Concurrency: 1}
	resA, err := parallel.Run(context.Background(), sub, opts)
	if err != nil {
		t.Fatal(err)
	}
	resB, _, err := dist.RunLocal(context.Background(), sub, opts, 3, dist.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if resA.FinalBranches != resB.FinalBranches || resA.TotalExecs != resB.TotalExecs ||
		resA.Bugs.Len() != resB.Bugs.Len() {
		t.Fatalf("diverged: in-process (%d branches, %d execs, %d bugs) vs dist (%d, %d, %d)",
			resA.FinalBranches, resA.TotalExecs, resA.Bugs.Len(),
			resB.FinalBranches, resB.TotalExecs, resB.Bugs.Len())
	}
	for i := range resA.Instances {
		a, b := resA.Instances[i], resB.Instances[i]
		if a.Config != b.Config || a.FinalBranches != b.FinalBranches ||
			a.Execs != b.Execs || a.Crashes != b.Crashes || a.ConfigMutations != b.ConfigMutations {
			t.Fatalf("instance %d diverged:\n got %+v\nwant %+v", i, b, a)
		}
	}
	pa, pb := resA.Series.Points(), resB.Series.Points()
	if len(pa) != len(pb) {
		t.Fatalf("series length diverged: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("series point %d diverged: %+v vs %+v", i, pa[i], pb[i])
		}
	}
}

// TestBoardMatchesResultOverLoopback: the coordinator's loop publishes
// the same final board entry as the in-process one, and it repeats the
// Result instance by instance.
func TestBoardMatchesResultOverLoopback(t *testing.T) {
	sub := mustSubject(t, "MQTT")
	recA, recB := telemetry.New(), telemetry.New()
	if _, err := parallel.Run(context.Background(), sub, baseOptions(recA)); err != nil {
		t.Fatal(err)
	}
	res, _, err := dist.RunLocal(context.Background(), sub, baseOptions(recB), 2, dist.Config{})
	if err != nil {
		t.Fatal(err)
	}
	board := recB.Board()
	if !reflect.DeepEqual(board, recA.Board()) {
		t.Fatalf("boards diverged:\n dist %+v\n in-process %+v", board, recA.Board())
	}
	if len(board) != 1 || !board[0].Done || board[0].Execs != res.TotalExecs || board[0].Edges != res.FinalBranches {
		t.Fatalf("board %+v against %d execs, %d branches", board, res.TotalExecs, res.FinalBranches)
	}
	if len(board[0].Instances) != len(res.Instances) {
		t.Fatalf("%d board instances, %d in the result", len(board[0].Instances), len(res.Instances))
	}
	for i, in := range res.Instances {
		got := board[0].Instances[i]
		if got.Execs != in.Execs || got.Edges != in.FinalBranches || got.Crashes != in.Crashes ||
			got.Mutations != in.ConfigMutations || got.Config != in.Config {
			t.Errorf("instance %d on the board %+v, in the result %+v", i, got, in)
		}
	}
}

// TestLoopbackMatchesInProcessUnderLatency is the anchor again with
// link latency on: every step charges the latency its namespace accrued
// to the instance's virtual clock, the charge rides the step record,
// and the replayed clocks must stay bit-equal to the workers' — or the
// coordinator and its workers disagree about where the horizon is.
func TestLoopbackMatchesInProcessUnderLatency(t *testing.T) {
	for _, name := range []string{"MQTT", "CoAP"} {
		sub := mustSubject(t, name)
		options := func(rec *telemetry.Recorder) parallel.Options {
			return parallel.Options{
				Mode: parallel.ModeCMFuzz, VirtualHours: 0.25, Seed: 3, Concurrency: 1,
				LinkLatencyBase: 0.0002, LinkLatencyJitter: 0.0001, Telemetry: rec,
			}
		}
		recA := telemetry.New()
		resA, err := parallel.Run(context.Background(), sub, options(recA))
		if err != nil {
			t.Fatal(err)
		}
		dirA := filepath.Join(t.TempDir(), "inproc")
		writeAll(t, dirA, resA, recA)

		recB := telemetry.New()
		resB, _, err := dist.RunLocal(context.Background(), sub, options(recB), 2, dist.Config{HeartbeatInterval: -1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dirB := filepath.Join(t.TempDir(), "dist")
		writeAll(t, dirB, resB, recB)
		diffTrees(t, name+" under latency", readTree(t, dirA), readTree(t, dirB))
	}
}

// TestLoopbackMatchesInProcessAtEveryCoreCount is the anchor for the
// lanes: one worker, whose lane count is GOMAXPROCS, must produce the
// in-process run's artifact tree at every core count — one lane (the
// serial worker), as many lanes as instances, and more lanes than there
// is ever work for. Traced, so the per-lane span plumbing runs too.
func TestLoopbackMatchesInProcessAtEveryCoreCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, name := range []string{"MQTT", "CoAP"} {
		sub := mustSubject(t, name)
		options := func(rec *telemetry.Recorder) parallel.Options {
			return parallel.Options{Mode: parallel.ModeCMFuzz, VirtualHours: 0.25, Seed: 3, Concurrency: 1, Telemetry: rec}
		}
		recA := telemetry.New()
		resA, err := parallel.Run(context.Background(), sub, options(recA))
		if err != nil {
			t.Fatal(err)
		}
		dirA := filepath.Join(t.TempDir(), "inproc")
		writeAll(t, dirA, resA, recA)
		want := readTree(t, dirA)

		for _, procs := range []int{1, 2, 4, 8} {
			runtime.GOMAXPROCS(procs)
			recB := telemetry.New()
			optsB := options(recB)
			optsB.Trace = trace.New().Start("coordinator")
			resB, _, err := dist.RunLocal(context.Background(), sub, optsB, 1, dist.Config{})
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", name, procs, err)
			}
			dirB := filepath.Join(t.TempDir(), "dist")
			writeAll(t, dirB, resB, recB)
			diffTrees(t, fmt.Sprintf("%s at GOMAXPROCS %d", name, procs), want, readTree(t, dirB))
		}
	}
}

// TestBoundedFinishReportsReplayedCounters: a distributed campaign
// finished after a bounded Advance reports what its loop replayed, not
// what its workers' engines ran — they may be a lease ahead. Its
// TotalExecs is Progress's, and every instance summary is the one the
// in-process loop reports at the same bound.
func TestBoundedFinishReportsReplayedCounters(t *testing.T) {
	ctx := context.Background()
	const bound = 1234.5
	for _, name := range []string{"DNS", "MQTT", "CoAP"} {
		sub := mustSubject(t, name)
		opts := parallel.Options{Mode: parallel.ModeCMFuzz, VirtualHours: 2, Seed: 7, Concurrency: 1}
		l, done, err := parallel.Start(ctx, sub, opts, (*parallel.Host).Plan)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Advance(ctx, bound); err != nil {
			t.Fatal(err)
		}
		want, err := l.Finish()
		done()
		if err != nil {
			t.Fatal(err)
		}

		coord := dist.NewCoordinator(sub, opts, dist.Config{HeartbeatInterval: -1})
		wait := addPipeWorkers(t, coord.AddConn, 2)
		if err := coord.Start(ctx); err != nil {
			t.Fatal(err)
		}
		if err := coord.Advance(ctx, bound); err != nil {
			t.Fatal(err)
		}
		_, _, execs := coord.Progress()
		got, err := coord.Finish(ctx)
		coord.Close()
		wait()
		if err != nil {
			t.Fatal(err)
		}
		if got.TotalExecs != execs {
			t.Errorf("%s: Finish reports %d execs, the loop replayed %d", name, got.TotalExecs, execs)
		}
		if !reflect.DeepEqual(got.Instances, want.Instances) {
			t.Errorf("%s: instance summaries at %v s:\n got %+v\nwant %+v", name, bound, got.Instances, want.Instances)
		}
	}
}
