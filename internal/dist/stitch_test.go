package dist_test

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"cmfuzz/internal/dist"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/telemetry/trace"
)

// structureOf renders a span-record set as a canonical structure
// string: one tree per process lane, nodes labeled by span name, each
// node's children sorted by their own canonical rendering. Wall-clock
// times and attributes are deliberately excluded — the structure is
// what determinism guarantees; durations are physics.
func structureOf(recs []trace.Record) string {
	type key struct {
		proc string
		id   int
	}
	children := make(map[key][]key, len(recs))
	names := make(map[key]string, len(recs))
	var roots []key
	for _, r := range recs {
		k := key{r.Process, r.ID}
		names[k] = r.Name
		pk := key{r.Process, r.Parent}
		if r.Parent < 0 {
			roots = append(roots, k)
		} else {
			children[pk] = append(children[pk], k)
		}
	}
	// A child whose parent never completed (or was drained earlier)
	// still needs a home: promote orphans to roots of their lane.
	for pk, ck := range children {
		if _, ok := names[pk]; !ok {
			roots = append(roots, ck...)
			delete(children, pk)
		}
	}
	var render func(k key) string
	render = func(k key) string {
		kids := make([]string, 0, len(children[k]))
		for _, c := range children[k] {
			kids = append(kids, render(c))
		}
		sort.Strings(kids)
		return names[k] + "(" + strings.Join(kids, ",") + ")"
	}
	byProc := map[string][]string{}
	for _, r := range roots {
		byProc[r.proc] = append(byProc[r.proc], render(r))
	}
	procs := make([]string, 0, len(byProc))
	for p := range byProc {
		procs = append(procs, p)
	}
	sort.Strings(procs)
	var b strings.Builder
	for _, p := range procs {
		trees := byProc[p]
		sort.Strings(trees)
		fmt.Fprintf(&b, "[%s] %s\n", p, strings.Join(trees, " "))
	}
	return b.String()
}

// TestTraceStitchingDeterministic runs the same 2-worker campaign twice
// with tracing on: the stitched span trees must be structurally equal —
// same names, same nesting, same process lanes — even though every wall
// time differs. RunLocal names its workers local-0/local-1
// deterministically, so the lanes line up run to run.
func TestTraceStitchingDeterministic(t *testing.T) {
	run := func() string {
		sub := mustSubject(t, "DNS")
		tracer := trace.New()
		root := tracer.Start("coordinator")
		opts := parallel.Options{
			Mode: parallel.ModeCMFuzz, VirtualHours: 0.25, Seed: 11,
			Concurrency: 1, Trace: root,
		}
		if _, _, err := dist.RunLocal(context.Background(), sub, opts, 2, dist.Config{}); err != nil {
			t.Fatal(err)
		}
		root.End()
		return structureOf(tracer.Records())
	}
	a := run()
	b := run()
	if a != b {
		t.Fatalf("stitched trace structure diverged between identical runs:\n--- run A ---\n%s--- run B ---\n%s", a, b)
	}
	for _, want := range []string{"[local-0]", "[local-1]", "lease(", "lease.steps("} {
		if !strings.Contains(a, want) {
			t.Fatalf("stitched structure missing %q:\n%s", want, a)
		}
	}
}

// TestLaneSpansArriveWhole runs a traced campaign on one worker with four
// lanes, so leases of the one campaign execute side by side. Every
// stitched `lease` root must arrive with exactly its own children —
// decode, steps, encode, and the seed import when there was one — no
// span may point at a parent that is not in the trace, ids must stay
// unique within the worker, and the roots must show up on more than one
// track (a track is the lane that ran the lease).
func TestLaneSpansArriveWhole(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	sub := mustSubject(t, "DNS")
	tracer := trace.New()
	root := tracer.Start("coordinator")
	opts := parallel.Options{
		Mode: parallel.ModeCMFuzz, VirtualHours: 0.25, Seed: 11,
		Concurrency: 1, Trace: root,
	}
	if _, _, err := dist.RunLocal(context.Background(), sub, opts, 1, dist.Config{}); err != nil {
		t.Fatal(err)
	}
	root.End()

	byID := map[int]trace.Record{}
	kids := map[int][]string{}
	for _, r := range tracer.Records() {
		if r.Process == "" {
			continue
		}
		if prev, dup := byID[r.ID]; dup {
			t.Fatalf("span id %d used twice on %s: %s and %s", r.ID, r.Process, prev.Name, r.Name)
		}
		byID[r.ID] = r
		if r.Parent >= 0 {
			kids[r.Parent] = append(kids[r.Parent], r.Name)
		}
	}
	leases, tracks := 0, map[int]bool{}
	for id, r := range byID {
		if r.Parent >= 0 {
			p, ok := byID[r.Parent]
			if !ok {
				t.Fatalf("span %s (id %d) is an orphan: parent %d never arrived", r.Name, id, r.Parent)
			}
			if p.Track != r.Track {
				t.Fatalf("span %s on track %d, its parent %s on track %d", r.Name, r.Track, p.Name, p.Track)
			}
			continue
		}
		if r.Name != "lease" {
			t.Fatalf("worker root span %q, want only lease roots", r.Name)
		}
		leases++
		tracks[r.Track] = true
		got := append([]string(nil), kids[id]...)
		sort.Strings(got)
		whole := strings.Join(got, ",")
		if whole != "lease.decode,lease.encode,lease.steps" {
			t.Fatalf("lease root %d arrived with children [%s]", id, whole)
		}
	}
	if leases == 0 {
		t.Fatal("no lease spans were stitched")
	}
	if len(tracks) < 2 {
		t.Fatalf("%d lease roots all on tracks %v: four lanes never ran two leases side by side", leases, tracks)
	}
}
