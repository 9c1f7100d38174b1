package relation

import (
	"reflect"
	"testing"

	"cmfuzz/internal/core/configmodel"
)

// testModel builds a small model with a strong synergy (a=bridge, b=fast),
// an independent contributor (c), and a conflicting pair (x=clash,
// y=clash fails startup). Entities are hand-built so typical values are
// exact.
func testModel() *configmodel.Model {
	return configmodel.NewModel([]configmodel.Entity{
		{Name: "a", Default: "plain", Values: []string{"bridge", "plain"}},
		{Name: "b", Default: "slow", Values: []string{"fast", "slow"}},
		{Name: "c", Default: "1", Values: []string{"1", "2"}},
		{Name: "x", Default: "idle", Values: []string{"clash"}},
		{Name: "y", Default: "idle", Values: []string{"clash"}},
	})
}

func testProbe(cfg configmodel.Assignment) int {
	if cfg["x"] == "clash" && cfg["y"] == "clash" {
		return 0 // conflicting pair: startup failure
	}
	cov := 10
	if cfg["a"] == "bridge" {
		cov += 5
		if cfg["b"] == "fast" {
			cov += 20 // synergy: only together
		}
	}
	if cfg["c"] == "2" {
		cov += 3 // independent contribution
	}
	return cov
}

func TestQuantifyInteractionEdges(t *testing.T) {
	res := Quantify(testModel(), testProbe, Options{})

	// The synergistic pair has the max weight, normalized to 1.
	w, ok := res.Graph.Weight("a", "b")
	if !ok || w != 1.0 {
		t.Fatalf("weight(a,b) = %v,%v, want 1.0", w, ok)
	}

	// Conflicting pair gets no edge.
	if _, ok := res.Graph.Weight("x", "y"); ok {
		t.Fatal("conflicting pair (x,y) got an edge")
	}

	// Independent pairs get no edge either: no interaction.
	for _, pair := range [][2]string{{"a", "c"}, {"b", "c"}, {"c", "y"}} {
		if _, ok := res.Graph.Weight(pair[0], pair[1]); ok {
			t.Errorf("independent pair %v got an interaction edge", pair)
		}
	}

	if res.Baseline != 10 {
		t.Fatalf("baseline = %d, want 10", res.Baseline)
	}
}

func TestQuantifyBestComboAndGain(t *testing.T) {
	res := Quantify(testModel(), testProbe, Options{})
	best, ok := res.Best[PairKey("a", "b")]
	if !ok {
		t.Fatal("no best combo for (a,b)")
	}
	if best.ValueA != "bridge" || best.ValueB != "fast" {
		t.Fatalf("best combo = %q/%q, want bridge/fast", best.ValueA, best.ValueB)
	}
	if best.Cover != 35 {
		t.Fatalf("best cover = %d, want 35", best.Cover)
	}
	// Interaction gain: 35 − cov(a=bridge)=15 − cov(b=fast)=10 + 10 = 20.
	if best.Gain != 20 {
		t.Fatalf("best gain = %d, want 20", best.Gain)
	}
}

func TestQuantifyBestSingle(t *testing.T) {
	res := Quantify(testModel(), testProbe, Options{})
	if sv, ok := res.BestSingle["a"]; !ok || sv.Value != "bridge" || sv.Gain != 5 {
		t.Fatalf("BestSingle[a] = %+v, want bridge/+5", sv)
	}
	if sv, ok := res.BestSingle["c"]; !ok || sv.Value != "2" || sv.Gain != 3 {
		t.Fatalf("BestSingle[c] = %+v, want 2/+3", sv)
	}
	// x alone does not fail; best is either value with gain 0.
	if sv, ok := res.BestSingle["x"]; !ok || sv.Gain != 0 {
		t.Fatalf("BestSingle[x] = %+v, want gain 0", sv)
	}
}

func TestQuantifyRawCoverageWeighting(t *testing.T) {
	res := Quantify(testModel(), testProbe, Options{Weighting: WeightRawCoverage})
	// Under raw coverage, independent pairs DO get edges.
	if _, ok := res.Graph.Weight("a", "c"); !ok {
		t.Fatal("raw weighting should connect (a,c)")
	}
	// Conflict still pruned.
	if _, ok := res.Graph.Weight("x", "y"); ok {
		t.Fatal("conflicting pair got an edge under raw weighting")
	}
	// Heaviest pair is still (a,b) (raw 35).
	if w, _ := res.Graph.Weight("a", "b"); w != 1.0 {
		t.Fatalf("weight(a,b) = %v, want 1.0", w)
	}
}

func TestQuantifyProbeCount(t *testing.T) {
	res := Quantify(testModel(), testProbe, Options{})
	// The matrix requests 1 baseline + singles (2+2+2+1+1 = 8) + pair
	// combos (ab=4, ac=4, ax=2, ay=2, bc=4, bx=2, by=2, cx=2, cy=2,
	// xy=1 = 25) = 34 probes.
	if res.ProbeRequests != 34 {
		t.Fatalf("probe requests = %d, want 34", res.ProbeRequests)
	}
	// Memoization collapses duplicates (default-valued singles equal the
	// baseline; pair combos holding one default equal a single) onto 16
	// distinct startups: baseline, 5 non-default singles, and one novel
	// combination per pair.
	if len(res.Probed) != 16 {
		t.Fatalf("startups = %d, want 16", len(res.Probed))
	}
}

func TestQuantifyProbeCountsActualStartups(t *testing.T) {
	calls := 0
	probe := func(cfg configmodel.Assignment) int {
		calls++
		return testProbe(cfg)
	}
	res := Quantify(testModel(), probe, Options{Workers: 1})
	if calls != len(res.Probed) {
		t.Fatalf("Probes = %d but the oracle ran %d times", len(res.Probed), calls)
	}
}

func TestQuantifyMaxValuesCap(t *testing.T) {
	m := configmodel.NewModel([]configmodel.Entity{
		{Name: "n", Default: "5", Values: []string{"5", "6", "7", "8"}},
		{Name: "m", Default: "1", Values: []string{"1", "2", "3", "4"}},
	})
	probe := func(cfg configmodel.Assignment) int { return 1 }
	res := Quantify(m, probe, Options{MaxValues: 2})
	// 1 baseline + 2+2 singles + 4 pair combos = 9 requests; the
	// default-valued singles and combos collapse onto earlier probes,
	// leaving 4 startups (baseline, n=6, m=2, n=6∧m=2).
	if res.ProbeRequests != 9 {
		t.Fatalf("capped probe requests = %d, want 9", res.ProbeRequests)
	}
	if len(res.Probed) != 4 {
		t.Fatalf("capped startups = %d, want 4", len(res.Probed))
	}
	// Each entity kept 2 of 4 values.
	if res.DroppedValues != 4 {
		t.Fatalf("dropped values = %d, want 4", res.DroppedValues)
	}
}

func TestCandidateValuesCapKeepsDefaultAndBoundaries(t *testing.T) {
	e := configmodel.Entity{
		Name:    "limit",
		Default: "64",
		Values:  []string{"16", "32", "64", "128", "0", "1"},
	}
	vals, dropped := candidateValues(e, Options{MaxValues: 4})
	if len(vals) != 4 || dropped != 2 {
		t.Fatalf("capped values = %v (dropped %d), want 4 kept / 2 dropped", vals, dropped)
	}
	has := map[string]bool{}
	for _, v := range vals {
		has[v] = true
	}
	// The naive vals[:4] cap would keep 16/32/64/128 and drop the
	// boundary probes 0 and 1; the cap must prefer the default and the
	// boundaries over mid-range candidates.
	for _, want := range []string{"64", "0", "1"} {
		if !has[want] {
			t.Fatalf("cap dropped %q: kept %v", want, vals)
		}
	}
	// Kept values preserve the original relative order.
	if vals[len(vals)-2] != "0" || vals[len(vals)-1] != "1" {
		t.Fatalf("cap reordered values: %v", vals)
	}
}

func TestCandidateValuesDedupes(t *testing.T) {
	e := configmodel.Entity{Name: "mode", Default: "a", Values: []string{"a", "b", "a", "b", "c"}}
	vals, dropped := candidateValues(e, Options{})
	if len(vals) != 3 || dropped != 0 {
		t.Fatalf("deduped values = %v (dropped %d), want [a b c] / 0", vals, dropped)
	}
}

func TestQuantifyDependencyPair(t *testing.T) {
	// f=on alone fails startup (missing dependency d); together they
	// succeed with a feature region — the bridge/bridge-address shape.
	m := configmodel.NewModel([]configmodel.Entity{
		{Name: "f", Default: "off", Values: []string{"on", "off"}},
		{Name: "d", Default: "", Values: []string{"10.0.0.2"}},
		{Name: "z", Default: "0", Values: []string{"0", "1"}},
	})
	probe := func(cfg configmodel.Assignment) int {
		if cfg["f"] == "on" && cfg["d"] == "" {
			return 0 // f requires d
		}
		cov := 20
		if cfg["f"] == "on" {
			cov += 15
		}
		return cov
	}
	res := Quantify(m, probe, Options{})
	w, ok := res.Graph.Weight("f", "d")
	if !ok || w != 1.0 {
		t.Fatalf("dependency edge (f,d) = %v,%v, want strongest edge", w, ok)
	}
	best := res.Best[PairKey("d", "f")]
	if best.ValueA != "on" || best.ValueB != "10.0.0.2" {
		// PairValues keeps model order (f before d).
		t.Fatalf("dependency best combo = %+v", best)
	}
	if _, ok := res.Graph.Weight("f", "z"); ok {
		t.Fatal("non-interacting pair (f,z) got an edge")
	}
}

func TestPairKeyCanonical(t *testing.T) {
	if PairKey("b", "a") != PairKey("a", "b") {
		t.Fatal("PairKey not canonical")
	}
	if PairKey("a", "b") == PairKey("a", "c") {
		t.Fatal("PairKey collides")
	}
}

func TestQuantifyAllConflicting(t *testing.T) {
	m := configmodel.NewModel([]configmodel.Entity{
		{Name: "p", Default: "1", Values: []string{"1"}},
		{Name: "q", Default: "1", Values: []string{"1"}},
	})
	res := Quantify(m, func(configmodel.Assignment) int { return 0 }, Options{})
	if res.Graph.EdgeCount() != 0 {
		t.Fatal("all-zero probe produced edges")
	}
	if len(res.Best) != 0 {
		t.Fatal("all-zero probe recorded best combos")
	}
	// Nodes still exist so the scheduler can distribute them.
	if len(res.Graph.Nodes()) != 2 {
		t.Fatalf("node count = %d", len(res.Graph.Nodes()))
	}
}

func TestQuantifyDeterministic(t *testing.T) {
	m := testModel()
	r1 := Quantify(m, testProbe, Options{})
	r2 := Quantify(m, testProbe, Options{})
	e1, e2 := r1.Graph.Edges(), r2.Graph.Edges()
	if len(e1) != len(e2) {
		t.Fatal("nondeterministic edge count")
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, e1[i], e2[i])
		}
	}
}

// wideModel is a larger synthetic model whose probe function has
// synergies, conflicts, and independent contributors across many pairs —
// enough surface that a scheduling-dependent merge would show up.
func wideModel() (*configmodel.Model, Probe) {
	var ents []configmodel.Entity
	for i := 0; i < 8; i++ {
		name := string(rune('a' + i))
		ents = append(ents, configmodel.Entity{
			Name:    name,
			Default: "d0",
			Values:  []string{"d0", "v1", "v2", "v3"},
		})
	}
	m := configmodel.NewModel(ents)
	probe := func(cfg configmodel.Assignment) int {
		if cfg["a"] == "v1" && cfg["b"] == "v1" {
			return 0 // conflicting pair
		}
		cov := 100
		for k, v := range cfg {
			if v == "d0" {
				continue
			}
			cov += int(k[0]-'a')*3 + len(v)
		}
		if cfg["c"] == "v2" && cfg["d"] == "v3" {
			cov += 40 // synergy
		}
		if cfg["e"] == "v1" && cfg["f"] == "v1" {
			cov += 25 // weaker synergy
		}
		return cov
	}
	return m, probe
}

// TestQuantifyIdenticalAcrossWorkerCounts is the determinism guarantee of
// the parallel probe executor: graph edges, Best, BestSingle, Baseline
// and the probe counters must be identical for worker counts 1, 2 and 8.
func TestQuantifyIdenticalAcrossWorkerCounts(t *testing.T) {
	m, probe := wideModel()
	for _, weighting := range []Weighting{WeightInteraction, WeightRawCoverage} {
		base := Quantify(m, probe, Options{Weighting: weighting, Workers: 1})
		for _, workers := range []int{2, 8} {
			got := Quantify(m, probe, Options{Weighting: weighting, Workers: workers})
			if !reflect.DeepEqual(got.Graph.Edges(), base.Graph.Edges()) {
				t.Fatalf("weighting %d workers %d: edges diverge\n%+v\nvs\n%+v",
					weighting, workers, got.Graph.Edges(), base.Graph.Edges())
			}
			if !reflect.DeepEqual(got.Best, base.Best) {
				t.Fatalf("weighting %d workers %d: Best diverges", weighting, workers)
			}
			if !reflect.DeepEqual(got.BestSingle, base.BestSingle) {
				t.Fatalf("weighting %d workers %d: BestSingle diverges", weighting, workers)
			}
			if got.Baseline != base.Baseline || !reflect.DeepEqual(got.Probed, base.Probed) ||
				got.ProbeRequests != base.ProbeRequests || got.DroppedValues != base.DroppedValues {
				t.Fatalf("weighting %d workers %d: counters diverge: %+v vs %+v",
					weighting, workers, got, base)
			}
		}
	}
}
