package parallel

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"cmfuzz/internal/protocols"
	"cmfuzz/internal/telemetry"
	"cmfuzz/internal/telemetry/trace"
)

// chromeEvent mirrors the trace_event JSON fields the tests inspect.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

func exportEvents(t *testing.T, tr *trace.Tracer) []chromeEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace not JSON: %v\n%s", err, buf.String())
	}
	return doc.TraceEvents
}

// contains reports whether inner lies within outer's [ts, ts+dur]
// interval — the Perfetto nesting relation.
func contains(outer, inner chromeEvent) bool {
	return inner.Ts >= outer.Ts && inner.Ts+inner.Dur <= outer.Ts+outer.Dur
}

// TestNilTraceAndProgressByteIdentical extends the no-op-sink pin to the
// wall-clock layer: a campaign under a span tracer and a recorder whose
// live board it publishes to must produce byte-identical artifacts to
// one with both off. Wall-clock observation must never steer the
// virtual-clock campaign.
func TestNilTraceAndProgressByteIdentical(t *testing.T) {
	sub := mustSubject(t, "DNS")
	opts := Options{Mode: ModeCMFuzz, VirtualHours: 1, Seed: 7}

	plain, err := Run(context.Background(), sub, opts)
	if err != nil {
		t.Fatal(err)
	}

	tr := trace.New()
	root := tr.Start("fuzz")
	rec := telemetry.New()
	opts.Trace = root
	opts.Telemetry = rec
	instrumented, err := Run(context.Background(), sub, opts)
	if err != nil {
		t.Fatal(err)
	}
	root.End()

	if tr.SpanCount() < 4 {
		t.Fatalf("tracer recorded only %d spans", tr.SpanCount())
	}
	snap := rec.Board()
	if len(snap) != 1 || !snap[0].Done || snap[0].Mode != "CMFuzz" {
		t.Fatalf("progress board = %+v", snap)
	}
	if snap[0].Execs != instrumented.TotalExecs {
		t.Fatalf("progress execs %d != result %d", snap[0].Execs, instrumented.TotalExecs)
	}
	if snap[0].Edges != instrumented.FinalBranches {
		t.Fatalf("progress edges %d != result %d", snap[0].Edges, instrumented.FinalBranches)
	}

	a, b := serializeResult(t, plain), serializeResult(t, instrumented)
	if !bytes.Equal(a, b) {
		t.Fatalf("result differs between untraced and traced runs:\n%s\nvs\n%s", a, b)
	}
}

// TestTraceSpanNesting pins the span structure a CMFuzz run exports: a
// relation.quantify span containing probe.plan → probe.execute →
// probe.score in order, a schedule.allocate span, and one instance span
// per parallel instance — all within the root.
func TestTraceSpanNesting(t *testing.T) {
	sub := mustSubject(t, "DNS")
	tr := trace.New()
	root := tr.Start("fuzz")
	if _, err := Run(context.Background(), sub, Options{Mode: ModeCMFuzz, VirtualHours: 0.2, Seed: 3, Instances: 3, Trace: root}); err != nil {
		t.Fatal(err)
	}
	root.End()

	events := exportEvents(t, tr)
	byName := map[string][]chromeEvent{}
	for _, ev := range events {
		if ev.Ph != "X" {
			t.Fatalf("unexpected phase %q in %+v", ev.Ph, ev)
		}
		byName[ev.Name] = append(byName[ev.Name], ev)
	}
	one := func(name string) chromeEvent {
		t.Helper()
		if len(byName[name]) != 1 {
			t.Fatalf("span %q appears %d times, want 1", name, len(byName[name]))
		}
		return byName[name][0]
	}

	rootEv := one("fuzz")
	quant := one("relation.quantify")
	plan := one("probe.plan")
	exec := one("probe.execute")
	pool := one("probe.pool")
	score := one("probe.score")
	alloc := one("schedule.allocate")

	for name, ev := range map[string]chromeEvent{
		"relation.quantify": quant, "schedule.allocate": alloc,
	} {
		if !contains(rootEv, ev) {
			t.Errorf("%s not nested in root: %+v vs %+v", name, ev, rootEv)
		}
	}
	for name, ev := range map[string]chromeEvent{
		"probe.plan": plan, "probe.execute": exec, "probe.score": score,
	} {
		if !contains(quant, ev) {
			t.Errorf("%s not nested in relation.quantify", name)
		}
	}
	if !contains(exec, pool) {
		t.Error("probe.pool not nested in probe.execute")
	}
	if !(plan.Ts+plan.Dur <= exec.Ts && exec.Ts+exec.Dur <= score.Ts) {
		t.Errorf("plan→execute→score out of order: plan=%v exec=%v score=%v", plan, exec, score)
	}
	if quant.Ts+quant.Dur > alloc.Ts {
		t.Error("schedule.allocate started before quantification ended")
	}
	if alloc.Args["algorithm"] != "cohesive" {
		t.Errorf("allocate args = %v", alloc.Args)
	}

	if len(byName["instance"]) != 3 {
		t.Fatalf("instance spans = %d, want 3", len(byName["instance"]))
	}
	if len(byName["instance.boot"]) != 3 {
		t.Fatalf("instance.boot spans = %d, want 3", len(byName["instance.boot"]))
	}
	seen := map[int]bool{}
	for _, in := range byName["instance"] {
		if !contains(rootEv, in) {
			t.Errorf("instance span escapes root: %+v", in)
		}
		idx, ok := in.Args["index"].(float64)
		if !ok {
			t.Fatalf("instance span without index: %v", in.Args)
		}
		seen[int(idx)] = true
		if _, ok := in.Args["edges"]; !ok {
			t.Errorf("instance %v missing final edges attribute", in.Args)
		}
	}
	if len(seen) != 3 {
		t.Fatalf("instance indexes = %v", seen)
	}
	// Sync spans land inside their instance's span.
	for _, sy := range byName["sync"] {
		ok := false
		for _, in := range byName["instance"] {
			if in.Tid == sy.Tid && contains(in, sy) {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("sync span on no instance lane: %+v", sy)
		}
	}
	if len(byName["sync"]) == 0 {
		t.Fatal("no sync spans recorded")
	}
}

// BenchmarkTraceOverhead guards the wall-clock layer's cost the way
// BenchmarkTelemetryOverhead guards the recorder's: "off" is the plain
// campaign (every span site pays one nil check), "on" runs the full
// tracer + a recorder publishing the live board. The acceptance
// bound is on/off within 5%; the benchmark's traced passes
// report the same ratio as bench.trace_overhead_ratio (bench/README.md).
func BenchmarkTraceOverhead(b *testing.B) {
	sub, err := protocols.ByName("DNS")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Run(context.Background(), sub, Options{Mode: ModeCMFuzz, VirtualHours: 0.5, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := trace.New()
			root := tr.Start("bench")
			if _, err := Run(context.Background(), sub, Options{Mode: ModeCMFuzz, VirtualHours: 0.5, Seed: 1,
				Trace: root, Telemetry: telemetry.New()}); err != nil {
				b.Fatal(err)
			}
			root.End()
		}
	})
}
