package schedule

import (
	"sort"
	"testing"
	"testing/quick"

	"cmfuzz/internal/core/configmodel"
	"cmfuzz/internal/core/configspec"
	"cmfuzz/internal/core/graph"
	"cmfuzz/internal/core/relation"
)

func groupOf(groups []Group, name string) int {
	for i, g := range groups {
		for _, m := range g.Members {
			if m == name {
				return i
			}
		}
	}
	return -1
}

func allMembers(groups []Group) []string {
	var out []string
	for _, g := range groups {
		out = append(out, g.Members...)
	}
	sort.Strings(out)
	return out
}

func TestAllocateFoundsGroupsFromHeaviestEdges(t *testing.T) {
	g := graph.New()
	g.AddEdge("a", "b", 1.0)
	g.AddEdge("c", "d", 0.9)
	g.AddEdge("a", "c", 0.1)
	groups := Allocate(g, 2)
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	if groupOf(groups, "a") != groupOf(groups, "b") {
		t.Error("heaviest edge (a,b) split across groups")
	}
	if groupOf(groups, "c") != groupOf(groups, "d") {
		t.Error("second edge (c,d) split across groups")
	}
	if groupOf(groups, "a") == groupOf(groups, "c") {
		t.Error("both founding edges landed in one group")
	}
}

func TestAllocateXorPullsUnassignedIn(t *testing.T) {
	g := graph.New()
	g.AddEdge("a", "b", 1.0)
	g.AddEdge("c", "d", 0.9)
	g.AddEdge("b", "e", 0.8) // e unassigned, b assigned: e joins b's group
	groups := Allocate(g, 2)
	if groupOf(groups, "e") != groupOf(groups, "b") {
		t.Fatal("xor case did not preserve the (b,e) connection")
	}
}

func TestAllocateFindBestAfterCapacity(t *testing.T) {
	g := graph.New()
	g.AddEdge("a", "b", 1.0)
	g.AddEdge("c", "d", 0.9)
	// (e,f) arrives after both groups exist; e is tied to a's group, f to c's.
	g.AddEdge("e", "f", 0.85)
	g.AddEdge("e", "a", 0.7)
	g.AddEdge("f", "c", 0.7)
	groups := Allocate(g, 2)
	if got := groupOf(groups, "e"); got != groupOf(groups, "a") {
		t.Errorf("e in group %d, want a's group %d", got, groupOf(groups, "a"))
	}
	if got := groupOf(groups, "f"); got != groupOf(groups, "c") {
		t.Errorf("f in group %d, want c's group %d", got, groupOf(groups, "c"))
	}
}

func TestAllocateIsolatedNodesSeedMissingGroups(t *testing.T) {
	g := graph.New()
	g.AddNode("a")
	g.AddNode("b")
	g.AddNode("c")
	groups := Allocate(g, 2)
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	if got := allMembers(groups); len(got) != 3 {
		t.Fatalf("members = %v", got)
	}
	// Balanced: sizes 2 and 1.
	sizes := []int{len(groups[0].Members), len(groups[1].Members)}
	sort.Ints(sizes)
	if sizes[0] != 1 || sizes[1] != 2 {
		t.Fatalf("sizes = %v", sizes)
	}
}

func TestAllocateSingleGroup(t *testing.T) {
	g := graph.New()
	g.AddEdge("a", "b", 1)
	g.AddEdge("c", "d", 0.5)
	groups := Allocate(g, 1)
	if len(groups) != 1 || len(groups[0].Members) != 4 {
		t.Fatalf("groups = %+v", groups)
	}
	// n < 1 clamps to 1.
	if got := Allocate(g, 0); len(got) != 1 {
		t.Fatalf("n=0 groups = %d", len(got))
	}
}

func TestScoreFormula(t *testing.T) {
	g := graph.New()
	g.AddEdge("c", "m1", 0.5)
	g.AddEdge("c", "m2", 0.3)
	got := Score(g, []string{"m1", "m2"}, "c")
	want := (0.5 + 0.3) * (0.5 + 0.3) / 2
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("Score = %v, want %v", got, want)
	}
	if Score(g, nil, "c") != 0 {
		t.Fatal("empty group score != 0")
	}
	if Score(g, []string{"m3"}, "c") != 0 {
		t.Fatal("unconnected group score != 0")
	}
}

func TestScoreSquaringAmplifiesStrongConnections(t *testing.T) {
	g := graph.New()
	// One strong tie vs. two weak ties summing to slightly more, but the
	// larger group is penalized by |G|.
	g.AddEdge("c", "s", 0.8)
	g.AddEdge("c", "w1", 0.45)
	g.AddEdge("c", "w2", 0.45)
	strong := Score(g, []string{"s"}, "c")
	weak := Score(g, []string{"w1", "w2"}, "c")
	if strong <= weak {
		t.Fatalf("strong %v <= weak %v; squaring/size penalty not applied", strong, weak)
	}
}

// weights sums the relation weights of edges whose endpoints share a
// group (intra, what Algorithm 2 maximizes) and of those whose endpoints
// sit in different groups (inter).
func weights(g *graph.Graph, groups []Group) (intra, inter float64) {
	idx := map[string]int{}
	for i, grp := range groups {
		for _, m := range grp.Members {
			idx[m] = i
		}
	}
	for _, e := range g.Edges() {
		gi, ok := idx[e.A]
		gj, ok2 := idx[e.B]
		switch {
		case !ok || !ok2:
		case gi == gj:
			intra += e.Weight
		default:
			inter += e.Weight
		}
	}
	return intra, inter
}

// TestIntraInterWeights: on two pairs joined by a weak edge, Algorithm 2
// keeps each pair together, so only the weak edge crosses groups.
func TestIntraInterWeights(t *testing.T) {
	g := graph.New()
	g.AddEdge("a", "b", 1.0)
	g.AddEdge("c", "d", 0.5)
	g.AddEdge("a", "c", 0.25)
	groups := Allocate(g, 2)
	if intra, inter := weights(g, groups); intra != 1.5 || inter != 0.25 {
		t.Fatalf("Allocate = %v: intra %v, inter %v; want 1.5, 0.25", groups, intra, inter)
	}
}

func TestAllocateBeatsRandomOnClusteredGraph(t *testing.T) {
	// Two natural clusters; Algorithm 2 should capture them and dominate
	// the random baseline on intra-group weight.
	g := graph.New()
	cluster := func(names []string, w float64) {
		for i := 0; i < len(names); i++ {
			for j := i + 1; j < len(names); j++ {
				g.AddEdge(names[i], names[j], w)
			}
		}
	}
	cluster([]string{"a1", "a2", "a3", "a4"}, 0.9)
	cluster([]string{"b1", "b2", "b3", "b4"}, 0.8)
	g.AddEdge("a1", "b1", 0.1)

	cohesive := Allocate(g, 2)
	intra, _ := weights(g, cohesive)
	worse := 0
	for seed := int64(0); seed < 5; seed++ {
		if random, _ := weights(g, RandomAllocate(g, 2, seed)); random <= intra {
			worse++
		}
	}
	if worse < 4 {
		t.Fatalf("cohesive allocation (intra=%v) beaten by random too often (%d/5 worse)", intra, 5-worse)
	}
}

func TestGroupAssignment(t *testing.T) {
	model := configmodel.Build([]configspec.Item{
		{Name: "a", Default: "off", Values: []string{"on", "off"}},
		{Name: "b", Default: "slow", Values: []string{"fast", "slow"}},
		{Name: "c", Default: "1", Values: []string{"1", "2"}},
	})
	rel := &relation.Result{Graph: graph.New(), Best: map[string]relation.PairValues{}}
	rel.Graph.AddEdge("a", "b", 1.0)
	rel.Graph.AddEdge("b", "c", 0.5)
	rel.Best[relation.PairKey("a", "b")] = relation.PairValues{A: "a", B: "b", ValueA: "on", ValueB: "fast", Cover: 35}
	rel.Best[relation.PairKey("b", "c")] = relation.PairValues{A: "b", B: "c", ValueA: "slow", ValueB: "2", Cover: 13}

	cfg := GroupAssignment(model, rel, Group{Members: []string{"a", "b", "c"}})
	if cfg["a"] != "on" || cfg["b"] != "fast" {
		t.Fatalf("heaviest pair values not applied: %v", cfg)
	}
	// b already set by the heavier edge; only c takes the lighter pair's value.
	if cfg["c"] != "2" {
		t.Fatalf("c = %q, want 2", cfg["c"])
	}

	// A group without a's edges keeps defaults.
	cfgC := GroupAssignment(model, rel, Group{Members: []string{"c"}})
	if cfgC["a"] != "off" || cfgC["c"] != "1" {
		t.Fatalf("singleton group config = %v, want defaults", cfgC)
	}
}

func TestRandomAllocateDeterministicPerSeed(t *testing.T) {
	g := graph.New()
	for _, n := range []string{"a", "b", "c", "d", "e"} {
		g.AddNode(n)
	}
	g1 := RandomAllocate(g, 2, 7)
	g2 := RandomAllocate(g, 2, 7)
	if len(g1) != len(g2) {
		t.Fatal("nondeterministic group count")
	}
	for i := range g1 {
		if len(g1[i].Members) != len(g2[i].Members) {
			t.Fatal("nondeterministic group sizes")
		}
		for j := range g1[i].Members {
			if g1[i].Members[j] != g2[i].Members[j] {
				t.Fatal("nondeterministic membership")
			}
		}
	}
}

func TestRoundRobinAllocate(t *testing.T) {
	g := graph.New()
	for _, n := range []string{"d", "c", "b", "a"} {
		g.AddNode(n)
	}
	groups := RoundRobinAllocate(g, 3)
	if len(groups) != 3 {
		t.Fatalf("groups = %d", len(groups))
	}
	if got := allMembers(groups); len(got) != 4 {
		t.Fatalf("members = %v", got)
	}
	// Sorted dealing: a,d | b | c.
	if groupOf(groups, "a") != groupOf(groups, "d") {
		t.Error("round robin dealt unexpectedly")
	}
	if got := RoundRobinAllocate(graph.New(), 4); len(got) != 0 {
		t.Fatalf("empty graph groups = %d", len(got))
	}
}

// Property: Allocate always returns a partition of the node set into at
// most n non-empty groups, deterministically.
func TestQuickAllocatePartition(t *testing.T) {
	f := func(pairs []uint8, nRaw uint8) bool {
		n := int(nRaw%6) + 1
		g := graph.New()
		for i := 0; i+1 < len(pairs); i += 2 {
			a := string(rune('a' + pairs[i]%20))
			b := string(rune('a' + pairs[i+1]%20))
			w := float64(pairs[i]%10+1) / 10
			if a != b {
				g.AddEdge(a, b, w)
			} else {
				g.AddNode(a)
			}
		}
		groups := Allocate(g, n)
		if len(groups) > n {
			return false
		}
		members := allMembers(groups)
		nodes := append([]string{}, g.Nodes()...)
		sort.Strings(nodes)
		if len(members) != len(nodes) {
			return false
		}
		for i := range members {
			if members[i] != nodes[i] {
				return false
			}
		}
		for _, grp := range groups {
			if len(grp.Members) == 0 {
				return false
			}
		}
		// Determinism.
		again := Allocate(g, n)
		if len(again) != len(groups) {
			return false
		}
		for i := range again {
			if len(again[i].Members) != len(groups[i].Members) {
				return false
			}
			for j := range again[i].Members {
				if again[i].Members[j] != groups[i].Members[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
