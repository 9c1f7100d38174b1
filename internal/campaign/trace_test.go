package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"cmfuzz/internal/spec"
	"cmfuzz/internal/telemetry"
	"cmfuzz/internal/telemetry/trace"
)

// TestCampaignTraceAndProgress pins the matrix-level span structure — a
// campaign span containing one repetition child per (fuzzer, repetition)
// cell, each containing its instance spans — and the recorder's live
// board's final shape after a full RunSubject matrix.
func TestCampaignTraceAndProgress(t *testing.T) {
	tr := trace.New()
	root := tr.Start("campaign-test")
	rec := telemetry.New()
	cfg := Config{Spec: spec.Campaign{Hours: 0.2, Instances: 2}, Repetitions: 2, Trace: root, Telemetry: rec}
	if _, err := RunSubject(context.Background(), dnsSubject(t), cfg); err != nil {
		t.Fatal(err)
	}
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	var camp struct{ ts, end float64 }
	for _, ev := range doc.TraceEvents {
		count[ev.Name]++
		if ev.Name == "campaign" {
			camp.ts, camp.end = ev.Ts, ev.Ts+ev.Dur
		}
	}
	// 3 fuzzers × 2 repetitions, 2 instances each.
	if count["campaign"] != 1 || count["repetition"] != 6 || count["instance"] != 12 {
		t.Fatalf("span counts = %v, want campaign=1 repetition=6 instance=12", count)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Name != "repetition" {
			continue
		}
		if ev.Ts < camp.ts || ev.Ts+ev.Dur > camp.end {
			t.Fatalf("repetition escapes campaign span: %+v", ev)
		}
		if _, ok := ev.Args["mode"]; !ok {
			t.Fatalf("repetition without mode attr: %v", ev.Args)
		}
	}

	snap := rec.Board()
	if len(snap) != 6 {
		t.Fatalf("progress runs = %d, want 6", len(snap))
	}
	byLabel := map[string]telemetry.RunStatus{}
	for _, r := range snap {
		byLabel[r.Run] = r
		if !r.Done {
			t.Fatalf("run %q not marked done", r.Run)
		}
		if len(r.Instances) != 2 {
			t.Fatalf("run %q instances = %d", r.Run, len(r.Instances))
		}
		if r.VirtualSeconds != r.HorizonSeconds {
			t.Fatalf("run %q clock %.0f != horizon %.0f", r.Run, r.VirtualSeconds, r.HorizonSeconds)
		}
	}
	for _, want := range []string{"CMFuzz/rep0", "CMFuzz/rep1", "Peach/rep0", "SPFuzz/rep1"} {
		if _, ok := byLabel[want]; !ok {
			t.Fatalf("progress missing run %q; have %v", want, keys(byLabel))
		}
	}
	running := 0
	for _, r := range snap {
		if !r.Done {
			running++
		}
	}
	if running != 0 {
		t.Fatalf("running = %d after matrix completed", running)
	}
}

func keys(m map[string]telemetry.RunStatus) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
