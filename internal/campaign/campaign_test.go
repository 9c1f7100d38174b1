package campaign

import (
	"context"
	"strings"
	"testing"

	"cmfuzz/internal/coverage"
	"cmfuzz/internal/protocols"
	"cmfuzz/internal/spec"
	"cmfuzz/internal/subject"
)

// quick is a scaled-down evaluation config for tests.
var quick = Config{Spec: spec.Campaign{Hours: 1, Instances: 4}, Repetitions: 2}

func dnsSubject(t *testing.T) subject.Subject {
	t.Helper()
	sub, err := protocols.ByName("DNS")
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

func TestRunSubjectOrderingAndMetrics(t *testing.T) {
	r, err := RunSubject(context.Background(), dnsSubject(t), quick)
	if err != nil {
		t.Fatal(err)
	}
	if r.CMFuzz.Branches <= r.Peach.Branches {
		t.Fatalf("CMFuzz %d <= Peach %d", r.CMFuzz.Branches, r.Peach.Branches)
	}
	if r.Improv(r.Peach) <= 0 {
		t.Fatalf("improvement over Peach = %v", r.Improv(r.Peach))
	}
	if s := r.Speedup(r.Peach); s < 1 {
		t.Fatalf("speedup vs Peach = %v, want >= 1", s)
	}
	if len(r.CMFuzz.Series) != quick.Repetitions {
		t.Fatalf("series count = %d", len(r.CMFuzz.Series))
	}
	for i, s := range r.CMFuzz.Series {
		if len(s.Points()) == 0 || s.At(quick.Spec.Hours*3600) == 0 {
			t.Fatalf("repetition %d's series covers nothing", i)
		}
	}
}

func TestTable1RenderShape(t *testing.T) {
	res, err := Evaluate(context.Background(), []subject.Subject{dnsSubject(t)}, quick)
	if err != nil {
		t.Fatal(err)
	}
	rows := Table1(res)
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	out := RenderTable1(rows)
	for _, want := range []string{"Dnsmasq", "CMFuzz", "Speedup", "AVERAGE"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestFigure4Monotone(t *testing.T) {
	res, err := RunSubject(context.Background(), dnsSubject(t), quick)
	if err != nil {
		t.Fatal(err)
	}
	f := Figure4(res, 24)
	for name, pts := range f.Points {
		if len(pts) != 24 {
			t.Fatalf("%s: %d samples", name, len(pts))
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].Count < pts[i-1].Count {
				t.Fatalf("%s: curve decreases at %d", name, i)
			}
		}
		if pts[len(pts)-1].Count == 0 {
			t.Fatalf("%s: flat zero curve", name)
		}
	}
	art := RenderFigure4(f, 60, 12)
	if !strings.Contains(art, "C") || !strings.Contains(art, "P") {
		t.Fatalf("figure missing curves:\n%s", art)
	}
}

func TestTable2DNSRows(t *testing.T) {
	res, err := Evaluate(context.Background(), []subject.Subject{dnsSubject(t)},
		Config{Spec: spec.Campaign{Hours: 4, Instances: 4}, Repetitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	rows := Table2(res)
	if len(rows) != 14 {
		t.Fatalf("rows = %d, want all 14 Table II rows", len(rows))
	}
	foundDNS := 0
	for _, r := range rows {
		if r.Known.Protocol != "DNS" {
			continue
		}
		for _, f := range r.FoundBy {
			if f == "CMFuzz" {
				foundDNS++
			}
			if f == "Peach" || f == "SPFuzz" {
				t.Errorf("baseline found config-gated bug #%d", r.Known.No)
			}
		}
	}
	if foundDNS < 4 {
		t.Fatalf("CMFuzz found only %d/5 DNS bugs in 4h", foundDNS)
	}
	out := RenderTable2(rows)
	if !strings.Contains(out, "rediscovered") {
		t.Fatalf("render missing summary:\n%s", out)
	}
}

func TestAblationsCohesiveWins(t *testing.T) {
	rows, err := Ablations(context.Background(), []subject.Subject{dnsSubject(t)}, Config{Spec: spec.Campaign{Hours: 2, Instances: 4}, Repetitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	byVariant := map[string]int{}
	for _, r := range rows {
		byVariant[r.Variant] = r.Branches
	}
	full := byVariant["cmfuzz (full)"]
	if full == 0 {
		t.Fatal("full variant missing")
	}
	if peach := byVariant["peach"]; peach >= full {
		t.Fatalf("peach %d >= full CMFuzz %d", peach, full)
	}
	if noMut := byVariant["no-config-mutation"]; noMut > full {
		t.Logf("note: no-config-mutation %d > full %d (seed variance)", noMut, full)
	}
	out := RenderAblations(rows)
	if !strings.Contains(out, "alloc=random") {
		t.Fatalf("render missing variants:\n%s", out)
	}
}

func TestSpeedupDefinition(t *testing.T) {
	// Construct a synthetic result: baseline reaches 100 at t=1000;
	// CMFuzz reaches 100 at t=10 → speedup 100×.
	var bs, cs coverage.Series
	bs.Observe(1000, 100)
	cs.Observe(10, 100)
	r := &SubjectResult{Hours: 1}
	base := FuzzerStats{Branches: 100, Series: []*coverage.Series{&bs}}
	r.CMFuzz.Series = []*coverage.Series{&cs}
	if s := r.Speedup(base); s < 99 || s > 101 {
		t.Fatalf("speedup = %v, want ~100", s)
	}
}

func TestRunModesSmoke(t *testing.T) {
	sub := dnsSubject(t)
	for _, mode := range []string{"cmfuzz", "peach", "spfuzz"} {
		j := job{spec: spec.Campaign{Mode: mode, Hours: 0.5, Seed: 1}, plan: paper, label: mode}
		rs, err := runBatch(context.Background(), sub, Config{}, nil, []job{j})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if rs[0].FinalBranches == 0 {
			t.Fatalf("%s: zero coverage", mode)
		}
	}
}

// TestRunSubjectIdenticalAcrossConcurrency asserts the concurrent
// mode x repetition matrix in RunSubject produces exactly the results
// of a sequential run: every repetition keeps its own seed, so the
// per-mode aggregates must not depend on the worker count.
func TestRunSubjectIdenticalAcrossConcurrency(t *testing.T) {
	sub := dnsSubject(t)
	cfg := Config{Spec: spec.Campaign{Hours: 0.5, Instances: 4}, Repetitions: 2}

	seq := cfg
	seq.Concurrency = 1
	base, err := RunSubject(context.Background(), sub, seq)
	if err != nil {
		t.Fatal(err)
	}
	par := cfg
	par.Concurrency = 4
	got, err := RunSubject(context.Background(), sub, par)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		name       string
		base, goot FuzzerStats
	}{
		{"cmfuzz", base.CMFuzz, got.CMFuzz},
		{"peach", base.Peach, got.Peach},
		{"spfuzz", base.SPFuzz, got.SPFuzz},
	} {
		if m.base.Branches != m.goot.Branches {
			t.Fatalf("%s: branches %d vs %d", m.name, m.goot.Branches, m.base.Branches)
		}
		if len(m.base.Series) != len(m.goot.Series) {
			t.Fatalf("%s: series count %d vs %d", m.name, len(m.goot.Series), len(m.base.Series))
		}
		for i := range m.base.Series {
			bp, gp := m.base.Series[i].Points(), m.goot.Series[i].Points()
			if len(bp) != len(gp) {
				t.Fatalf("%s rep %d: %d vs %d points", m.name, i, len(gp), len(bp))
			}
			for j := range bp {
				if bp[j] != gp[j] {
					t.Fatalf("%s rep %d point %d: %+v vs %+v", m.name, i, j, gp[j], bp[j])
				}
			}
		}
	}
}
