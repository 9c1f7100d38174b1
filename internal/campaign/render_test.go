package campaign

import (
	"context"
	"flag"
	"strings"
	"testing"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/coverage"
)

func TestMeanTimeToReach(t *testing.T) {
	var a, b coverage.Series
	a.Observe(10, 100)
	b.Observe(30, 100)
	got := meanTimeToReach([]*coverage.Series{&a, &b}, 100, 3600)
	if got != 20 {
		t.Fatalf("mean = %v, want 20", got)
	}
	// A series that never reaches the target contributes the horizon.
	var c coverage.Series
	c.Observe(10, 50)
	got = meanTimeToReach([]*coverage.Series{&a, &c}, 100, 1000)
	if got != (10+1000)/2 {
		t.Fatalf("mean with miss = %v", got)
	}
	if meanTimeToReach(nil, 5, 777) != 777 {
		t.Fatal("empty series should yield horizon")
	}
}

func TestRenderFigure4Degenerate(t *testing.T) {
	f := &Figure4Series{
		Subject: "Empty",
		Hours:   24,
		Points: map[string][]coverage.Point{
			"CMFuzz": {{T: 0, Count: 0}, {T: 86400, Count: 0}},
			"Peach":  {{T: 0, Count: 0}, {T: 86400, Count: 0}},
			"SPFuzz": {{T: 0, Count: 0}, {T: 86400, Count: 0}},
		},
	}
	out := RenderFigure4(f, 40, 8) // must not divide by zero
	if !strings.Contains(out, "Empty") {
		t.Fatal("render lost subject name")
	}
}

func TestRenderTable2NoFindings(t *testing.T) {
	rows := []Table2Row{{Known: bugs.Table2[0]}}
	out := RenderTable2(rows)
	if !strings.Contains(out, "rediscovered 0/1") {
		t.Fatalf("summary wrong:\n%s", out)
	}
	if !strings.Contains(out, "Connection::newMessage") {
		t.Fatal("row missing")
	}
}

func TestRenderTable1Empty(t *testing.T) {
	out := RenderTable1(nil)
	if !strings.Contains(out, "Subject") {
		t.Fatal("header missing")
	}
	if strings.Contains(out, "AVERAGE") {
		t.Fatal("average printed for empty table")
	}
}

func TestImprovZeroBaseline(t *testing.T) {
	r := &SubjectResult{}
	r.CMFuzz.Branches = 100
	if got := r.Improv(FuzzerStats{Branches: 0}); got != 0 {
		t.Fatalf("Improv with zero baseline = %v", got)
	}
}

// TestConfigDefaults: the flags default to the paper's campaign shape
// with the matrix's own base seed and subject, a zero Repetitions means
// the paper's 5, and a negative one is an error rather than a panic.
func TestConfigDefaults(t *testing.T) {
	var c Config
	fs := flag.NewFlagSet("eval", flag.ContinueOnError)
	c.Bind(fs, 0, "")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if c.Spec.Hours != 24 || c.Spec.Instances != 4 || c.Spec.Seed != 0 || c.Spec.Subject != "" {
		t.Fatalf("flag defaults = %+v", c.Spec)
	}
	if reps, err := c.Reps(); err != nil || reps != 5 {
		t.Fatalf("default repetitions = %d, %v", reps, err)
	}
	c.Repetitions = -1
	if _, err := RunSubject(context.Background(), dnsSubject(t), c); err == nil {
		t.Fatal("RunSubject accepted -1 repetitions")
	}
	if _, err := Ablations(context.Background(), nil, c); err == nil {
		t.Fatal("Ablations accepted -1 repetitions")
	}
}
