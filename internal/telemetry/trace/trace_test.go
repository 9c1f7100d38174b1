package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// stepClock is a hand-advanced monotonic clock.
type stepClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *stepClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *stepClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("root")
	if sp != nil {
		t.Fatal("nil tracer returned a non-nil span")
	}
	child := sp.Child("child", A("k", 1))
	if child != nil {
		t.Fatal("nil span returned a non-nil child")
	}
	sp.Set("k", "v")
	sp.End()
	child.End()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil tracer export wrote %q, err %v", buf.String(), err)
	}
	if tr.SpanCount() != 0 {
		t.Fatal("nil tracer has spans")
	}
}

func TestSpanNestingAndDurations(t *testing.T) {
	clk := &stepClock{}
	tr := NewWithClock(clk.Now)
	root := tr.Start("campaign", A("subject", "mqtt"))
	clk.Advance(10 * time.Millisecond)
	plan := root.Child("probe.plan")
	clk.Advance(5 * time.Millisecond)
	plan.End()
	exec := root.Child("probe.execute")
	clk.Advance(20 * time.Millisecond)
	exec.Set("probes", 42)
	exec.End()
	clk.Advance(1 * time.Millisecond)
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(file.TraceEvents) != 3 {
		t.Fatalf("got %d events, want 3", len(file.TraceEvents))
	}
	byName := map[string]int{}
	for i, ev := range file.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %q has phase %q, want X", ev.Name, ev.Ph)
		}
		byName[ev.Name] = i
	}
	rootEv := file.TraceEvents[byName["campaign"]]
	planEv := file.TraceEvents[byName["probe.plan"]]
	execEv := file.TraceEvents[byName["probe.execute"]]
	if rootEv.Dur != 36000 { // 36ms in microseconds
		t.Fatalf("root dur = %v us, want 36000", rootEv.Dur)
	}
	if planEv.Ts != 10000 || planEv.Dur != 5000 {
		t.Fatalf("plan ts/dur = %v/%v, want 10000/5000", planEv.Ts, planEv.Dur)
	}
	if execEv.Dur != 20000 {
		t.Fatalf("exec dur = %v, want 20000", execEv.Dur)
	}
	// Sequential children share the root's track: containment nests them.
	if planEv.Tid != rootEv.Tid || execEv.Tid != rootEv.Tid {
		t.Fatalf("sequential children left the parent track: root %d plan %d exec %d",
			rootEv.Tid, planEv.Tid, execEv.Tid)
	}
	// Containment: children inside the parent window.
	if planEv.Ts < rootEv.Ts || planEv.Ts+planEv.Dur > rootEv.Ts+rootEv.Dur {
		t.Fatal("plan span escapes its parent window")
	}
	if rootEv.Args["subject"] != "mqtt" {
		t.Fatalf("root args = %v", rootEv.Args)
	}
	if execEv.Args["probes"] != float64(42) {
		t.Fatalf("exec args = %v", execEv.Args)
	}
}

func TestConcurrentChildrenGetDistinctTracks(t *testing.T) {
	clk := &stepClock{}
	tr := NewWithClock(clk.Now)
	root := tr.Start("batch")
	a := root.Child("worker")
	clk.Advance(time.Millisecond)
	b := root.Child("worker") // a still open: must not share a's track
	clk.Advance(time.Millisecond)
	a.End()
	c := root.Child("worker") // a's lane is free again: reuse it
	clk.Advance(time.Millisecond)
	b.End()
	c.End()
	root.End()

	if tr.open != 0 {
		t.Fatalf("%d spans still open", tr.open)
	}
	tracks := map[string][]int{}
	for _, r := range tr.Records() {
		tracks[r.Name] = append(tracks[r.Name], r.Track)
	}
	workers := tracks["worker"]
	if len(workers) != 3 {
		t.Fatalf("got %d worker spans", len(workers))
	}
	// a ends first, then b, then c (End order): a and b overlap so their
	// tracks differ; c reuses a freed lane rather than growing a third.
	aTrack, bTrack, cTrack := workers[0], workers[1], workers[2]
	if aTrack == bTrack {
		t.Fatal("overlapping siblings share a track")
	}
	if cTrack != aTrack {
		t.Fatalf("freed lane not reused: a=%d b=%d c=%d", aTrack, bTrack, cTrack)
	}
}

func TestDoubleEndIsIdempotent(t *testing.T) {
	clk := &stepClock{}
	tr := NewWithClock(clk.Now)
	sp := tr.Start("once")
	clk.Advance(time.Millisecond)
	sp.End()
	clk.Advance(time.Hour)
	sp.End()
	recs := tr.Records()
	if len(recs) != 1 || tr.open != 0 {
		t.Fatalf("double End filed %d records, %d open", len(recs), tr.open)
	}
	if recs[0].End-recs[0].Start != time.Millisecond {
		t.Fatalf("second End changed the duration: %v", recs[0].End-recs[0].Start)
	}
}

func TestNilTracerCrossProcessNoOps(t *testing.T) {
	var tr *Tracer
	if tr.Now() != 0 {
		t.Fatal("nil tracer Now != 0")
	}
	if got := tr.DrainRecords(); got != nil {
		t.Fatalf("nil tracer drained %v", got)
	}
	if got := tr.Records(); got != nil {
		t.Fatalf("nil tracer records %v", got)
	}
	tr.IngestForeign("w", 0, []Record{{Name: "x"}})
	var sp *Span
	if sp.Tracer() != nil {
		t.Fatal("nil span has a tracer")
	}
	sp.Complete("x", 0, time.Second)
}

func TestSpanCompleteFilesChildRecord(t *testing.T) {
	clk := &stepClock{}
	tr := NewWithClock(clk.Now)
	root := tr.Start("lease")
	clk.Advance(10 * time.Millisecond)
	// A region measured before the span stack existed: decode ran over
	// [2ms, 6ms] on the tracer clock.
	root.Complete("decode", 2*time.Millisecond, 6*time.Millisecond, A("bytes", 128))
	root.End()

	recs := tr.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	dec := recs[0] // Complete files immediately; root ends after
	if dec.Name != "decode" || dec.Start != 2*time.Millisecond || dec.End != 6*time.Millisecond {
		t.Fatalf("decode record = %+v", dec)
	}
	rootRec := recs[1]
	if dec.Parent != rootRec.ID || dec.Track != rootRec.Track {
		t.Fatalf("decode not filed under root: %+v vs %+v", dec, rootRec)
	}
	// Inverted intervals clamp rather than exporting negative durations.
	root2 := tr.Start("r2")
	root2.Complete("clamped", 5*time.Millisecond, 3*time.Millisecond)
	root2.End()
	for _, r := range tr.Records() {
		if r.End < r.Start {
			t.Fatalf("negative-duration record %+v", r)
		}
	}
}

func TestDrainRecordsTakesCompletedOnly(t *testing.T) {
	clk := &stepClock{}
	tr := NewWithClock(clk.Now)
	root := tr.Start("lease")
	inner := root.Child("steps")
	clk.Advance(time.Millisecond)
	inner.End()

	first := tr.DrainRecords()
	if len(first) != 1 || first[0].Name != "steps" {
		t.Fatalf("first drain = %+v", first)
	}
	if got := tr.DrainRecords(); got != nil {
		t.Fatalf("second drain not empty: %+v", got)
	}
	root.End()
	second := tr.DrainRecords()
	if len(second) != 1 || second[0].Name != "lease" {
		t.Fatalf("drain after root end = %+v", second)
	}
	if second[0].Process != "" {
		t.Fatalf("local record has process %q", second[0].Process)
	}
}

func TestIngestForeignStitchesTimelines(t *testing.T) {
	// Worker-side tracer: spans on the worker's own clock.
	wclk := &stepClock{}
	wt := NewWithClock(wclk.Now)
	lease := wt.Start("lease")
	steps := lease.Child("lease.steps")
	wclk.Advance(8 * time.Millisecond)
	steps.End()
	lease.End()
	shipped := wt.DrainRecords()

	// Coordinator-side tracer, 100ms ahead of the worker clock.
	cclk := &stepClock{}
	cclk.Advance(100 * time.Millisecond)
	ct := NewWithClock(cclk.Now)
	rootC := ct.Start("coordinator")
	ct.IngestForeign("w1", 100*time.Millisecond, shipped)
	// A second worker whose records would go negative without clamping.
	ct.IngestForeign("w0", -time.Second, []Record{{ID: 7, Parent: -1, Name: "late", Start: 0, End: time.Millisecond}})
	cclk.Advance(time.Millisecond)
	rootC.End()

	recs := ct.Records()
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	// Local first, then foreign sorted by (process, id).
	if recs[0].Name != "coordinator" || recs[0].Process != "" {
		t.Fatalf("local record not first: %+v", recs[0])
	}
	if recs[1].Process != "w0" || recs[2].Process != "w1" || recs[3].Process != "w1" {
		t.Fatalf("foreign order wrong: %+v", recs[1:])
	}
	if recs[1].Start != 0 || recs[1].End != 0 {
		t.Fatalf("clamping failed: %+v", recs[1])
	}
	for _, r := range recs[2:] {
		if r.Start != 100*time.Millisecond {
			t.Fatalf("offset not applied: %+v", r)
		}
	}
	if ct.SpanCount() != 4 {
		t.Fatalf("span count = %d, want 4", ct.SpanCount())
	}

	// Export: three pids (coordinator=1, w0=2, w1=3) with name metadata.
	var buf bytes.Buffer
	if err := ct.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	pids := map[int]bool{}
	names := map[int]string{}
	for _, ev := range file.TraceEvents {
		if ev.Ph == "M" {
			names[ev.Pid] = ev.Args["name"].(string)
			continue
		}
		pids[ev.Pid] = true
	}
	if len(pids) != 3 {
		t.Fatalf("want 3 distinct pids, got %v", pids)
	}
	if names[1] != "coordinator" || names[2] != "w0" || names[3] != "w1" {
		t.Fatalf("process names = %v", names)
	}
}

func TestSingleProcessExportHasNoMetadataEvents(t *testing.T) {
	clk := &stepClock{}
	tr := NewWithClock(clk.Now)
	sp := tr.Start("solo")
	clk.Advance(time.Millisecond)
	sp.End()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"ph":"M"`) {
		t.Fatalf("single-process export emitted metadata events:\n%s", buf.String())
	}
}

func TestTracerConcurrencySmoke(t *testing.T) {
	tr := New()
	root := tr.Start("root")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := root.Child("work")
				sp.Set("i", i)
				grand := sp.Child("inner")
				grand.End()
				sp.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	if got := tr.SpanCount(); got != 8*200*2+1 {
		t.Fatalf("span count = %d, want %d", got, 8*200*2+1)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("concurrent trace export is invalid JSON")
	}
}
