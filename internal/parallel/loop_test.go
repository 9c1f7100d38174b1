package parallel

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/telemetry"
)

// scriptSource is a Source with no engine behind it: every instance
// plays a script of steps (then idles on empty ones), so a test decides
// exactly which clocks the loop sees. It logs what the loop asked for.
type scriptSource struct {
	script [][]Step
	pos    []int
	edges  []int
	muts   []int
	// saturate, when set, decides Saturated from (instance, steps played).
	saturate func(i, k int) bool
	// beforeStep, when set, runs at the top of every Step call.
	beforeStep func(ctx context.Context) error

	order []int // instance of every Step call, in call order
	syncs []int // instance of every Sync call
}

func newScriptSource(script ...[]Step) *scriptSource {
	n := len(script)
	return &scriptSource{script: script, pos: make([]int, n), edges: make([]int, n), muts: make([]int, n)}
}

func (s *scriptSource) Boot(i int) (int, error) { return 0, nil }

func (s *scriptSource) Step(ctx context.Context, i int) (Step, error) {
	if s.beforeStep != nil {
		if err := s.beforeStep(ctx); err != nil {
			return Step{}, err
		}
	}
	s.order = append(s.order, i)
	var step Step
	if s.pos[i] < len(s.script[i]) {
		step = s.script[i][s.pos[i]]
	}
	s.pos[i]++
	return step, nil
}

func (s *scriptSource) Config(i int) string { return fmt.Sprintf("inst=%d muts=%d", i, s.muts[i]) }

// Merge gives every (instance, step) its own edge, so the union count
// depends on exactly which steps were merged.
func (s *scriptSource) Merge(i int, union *coverage.Map) error {
	s.edges[i]++
	union.Add(coverage.EdgeIndex(uint32(i), uint64(s.pos[i])))
	return nil
}

func (s *scriptSource) Gauge(i int) Gauge {
	return Gauge{Edges: s.edges[i], Execs: s.pos[i], Mutations: s.muts[i]}
}

func (s *scriptSource) Sync(i int) (int, error) {
	s.syncs = append(s.syncs, i)
	return 4 * (len(s.script) - 1), nil
}

func (s *scriptSource) Saturated(i int) bool { return s.saturate != nil && s.saturate(i, s.pos[i]) }

func (s *scriptSource) Mutate(i int) MutationOutcome {
	s.muts[i]++
	return MutationOutcome{
		Events:    []MutEvent{{Type: telemetry.EvMutation, Entity: "e", Value: fmt.Sprint(s.muts[i]), Config: s.Config(i)}},
		Mutations: 1, Boots: 1,
	}
}

func (s *scriptSource) Done(int) {}

func (s *scriptSource) Result(i int) (InstanceResult, error) {
	return InstanceResult{Index: i, Config: s.Config(i), FinalBranches: s.edges[i], Execs: s.pos[i], ConfigMutations: s.muts[i]}, nil
}

// scriptLoop boots a loop over src. Scripts leave Bytes zero and set
// their costs in Latency, so clocks are easy to read: a step costs
// stepCost (2) + Latency virtual seconds.
func scriptLoop(t *testing.T, src *scriptSource, hours float64) (*Loop, *telemetry.Recorder) {
	t.Helper()
	rec := telemetry.New()
	host, err := NewHost(mustSubject(t, "DNS"), Options{
		Mode: ModeCMFuzz, Instances: len(src.script), VirtualHours: hours,
		Telemetry: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoop(host)
	t.Cleanup(l.Close)
	if err := l.Boot(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	return l, rec
}

func eventsOf(rec *telemetry.Recorder, ty telemetry.Type) []telemetry.Event {
	var out []telemetry.Event
	for _, ev := range rec.Events() {
		if ev.Type == ty {
			out = append(out, ev)
		}
	}
	return out
}

// TestLoopSyncCatchesUpAfterJump: one step that crosses three sync
// boundaries fires one sync, counts the two it skipped, and leaves the
// schedule ahead of the clock.
func TestLoopSyncCatchesUpAfterJump(t *testing.T) {
	src := newScriptSource([]Step{{Latency: 1998}}, nil)
	l, rec := scriptLoop(t, src, 1)
	if err := l.Advance(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if l.clock[0] != 2000 || l.clock[1] != 2 {
		t.Fatalf("clocks = %v, want [2000 2]", l.clock)
	}
	if !reflect.DeepEqual(src.syncs, []int{0}) {
		t.Fatalf("sync calls = %v, want one, for instance 0", src.syncs)
	}
	syncs := eventsOf(rec, telemetry.EvSync)
	if len(syncs) != 1 || syncs[0].T != 2000 || syncs[0].Instance != 0 || syncs[0].Skipped != 2 || syncs[0].Seeds != 4 {
		t.Fatalf("sync events = %+v, want one at t=2000 with 2 skipped", syncs)
	}
	if l.nextSync[0] != 2400 {
		t.Fatalf("next sync = %v, want 2400 (past the clock)", l.nextSync[0])
	}
	c := rec.Counters()
	if c[telemetry.CtrSyncs] != 1 || c[telemetry.CtrSyncSkipped] != 2 {
		t.Fatalf("sync counters = %v", c)
	}
}

// busyScript is a three-instance script with everything in it: uneven
// costs, link latency, new edges, repeated and distinct crashes, and a
// saturation rule.
func busyScript() *scriptSource {
	script := make([][]Step, 3)
	for i := range script {
		for k := 0; k < 400; k++ {
			step := Step{Latency: float64((k*7+i*3)%11) + float64(k%3)*0.125}
			if (k+i)%5 == 0 {
				step.NewEdges = 1
			}
			if k%17 == i {
				step.Crash = &bugs.Crash{Protocol: "DNS", Kind: bugs.Kind(1), Function: fmt.Sprintf("f%d", k%34)}
			}
			script[i] = append(script[i], step)
		}
	}
	src := newScriptSource(script...)
	src.saturate = func(i, k int) bool { return k%90 == 10*i+1 }
	return src
}

func loopOutcome(t *testing.T, l *Loop, rec *telemetry.Recorder) []byte {
	t.Helper()
	res, err := l.Finish()
	if err != nil {
		t.Fatal(err)
	}
	out := serializeResult(t, res)
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return append(out, buf.Bytes()...)
}

// TestLoopSlicingInvariance: Advance in uneven slices — bounds between
// steps, on a step, repeated, beyond the horizon — leaves the same
// Result and the same events.jsonl bytes as one call.
func TestLoopSlicingInvariance(t *testing.T) {
	whole, recW := scriptLoop(t, busyScript(), 0.5)
	if err := whole.Advance(context.Background(), whole.Horizon()); err != nil {
		t.Fatal(err)
	}
	want := loopOutcome(t, whole, recW)
	if len(eventsOf(recW, telemetry.EvSaturation)) == 0 || len(eventsOf(recW, telemetry.EvSync)) == 0 ||
		len(eventsOf(recW, telemetry.EvCrash)) == 0 {
		t.Fatal("script exercised no saturation, sync or crash")
	}

	sliced, recS := scriptLoop(t, busyScript(), 0.5)
	for _, until := range []float64{0, 0.5, 7, 7, 7.25, 599, 600, 601, 1234.5, 1799.9, 1e9} {
		if err := sliced.Advance(context.Background(), until); err != nil {
			t.Fatal(err)
		}
		if min := sliced.MinClock(); until < sliced.Horizon() && min < until {
			t.Fatalf("Advance(%v) stopped at %v", until, min)
		}
	}
	if got := loopOutcome(t, sliced, recS); !bytes.Equal(got, want) {
		t.Fatalf("sliced run diverged from the single call:\n--- sliced ---\n%s\n--- whole ---\n%s", got, want)
	}
}

// TestLoopCancellationFinalizesAtWatermark: however the cancellation
// arrives — seen by the loop between steps, or returned by a source that
// was waiting for a step — Advance returns ctx.Err(), and Finish ends the
// series at the watermark actually reached, not the horizon. If instead a
// later Advance carries on, the interruption leaves no trace.
func TestLoopCancellationFinalizesAtWatermark(t *testing.T) {
	whole, recW := scriptLoop(t, busyScript(), 0.5)
	if err := whole.Advance(context.Background(), whole.Horizon()); err != nil {
		t.Fatal(err)
	}
	want := loopOutcome(t, whole, recW)

	for name, stop := range map[string]func(ctx context.Context, cancel context.CancelFunc) error{
		"between steps":  func(_ context.Context, cancel context.CancelFunc) error { cancel(); return nil },
		"source waiting": func(ctx context.Context, cancel context.CancelFunc) error { cancel(); return ctx.Err() },
	} {
		cancelled := func(t *testing.T) (*Loop, *telemetry.Recorder) {
			src := busyScript()
			l, rec := scriptLoop(t, src, 0.5)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			src.beforeStep = func(ctx context.Context) error {
				if len(src.order) == 200 && ctx.Err() == nil {
					return stop(ctx, cancel)
				}
				return nil
			}
			if err := l.Advance(ctx, l.Horizon()); !errors.Is(err, context.Canceled) {
				t.Fatalf("Advance = %v, want context.Canceled", err)
			}
			if l.watermark <= 0 || l.watermark >= l.Horizon() {
				t.Fatalf("watermark %v not inside the campaign", l.watermark)
			}
			return l, rec
		}
		t.Run(name+"/finish", func(t *testing.T) {
			l, _ := cancelled(t)
			res, err := l.Finish()
			if err != nil {
				t.Fatal(err)
			}
			pts := res.Series.Points()
			// The script found edges since the last sample, so Finish adds
			// a point — and it must sit at the watermark.
			if last := pts[len(pts)-1]; last.T != l.watermark || last.Count != res.FinalBranches {
				t.Fatalf("cancelled series ends at %+v, want t=%v (the watermark) with %d edges", last, l.watermark, res.FinalBranches)
			}
		})
		t.Run(name+"/resume", func(t *testing.T) {
			l, rec := cancelled(t)
			if err := l.Advance(context.Background(), l.Horizon()); err != nil {
				t.Fatal(err)
			}
			if got := loopOutcome(t, l, rec); !bytes.Equal(got, want) {
				t.Fatal("a cancelled and resumed run diverged from the uninterrupted one")
			}
		})
	}
}

// TestLoopTieBreaksToLowerIndex: instances whose clocks are equal step
// in index order, so the interleaving is a function of the clocks alone.
func TestLoopTieBreaksToLowerIndex(t *testing.T) {
	// Instances 0 and 2 cost 2 per step, instance 1 costs 4: every other
	// round all three tie again.
	src := newScriptSource(nil, []Step{{Latency: 2}, {Latency: 2}, {Latency: 2}}, nil)
	l, _ := scriptLoop(t, src, 1)
	if err := l.Advance(context.Background(), 8); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2 /* t=0 */, 0, 2 /* t=2 */, 0, 1, 2 /* t=4 */, 0, 2 /* t=6 */}
	if !reflect.DeepEqual(src.order, want) {
		t.Fatalf("step order = %v, want %v", src.order, want)
	}
}
