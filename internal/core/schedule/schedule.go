// Package schedule implements Cohesive Grouping and Parallel Allocation
// (paper §III-B2, Algorithm 2): it divides the relation-aware
// configuration model into one cohesive entity group per parallel fuzzing
// instance, maximizing relation weight within groups and minimizing it
// between groups.
//
// Edges are processed in descending weight order. While fewer groups than
// instances exist, an edge between two unassigned entities founds a new
// group; afterwards, unassigned entities join the existing group that
// maximizes the suitability score
//
//	Score(G, C) = (Σ_{C'∈G} w(C, C'))² / |G|
//
// whose squared numerator amplifies strong connections and whose
// denominator balances group sizes. An edge with exactly one assigned
// endpoint pulls the other endpoint into the same group, preserving the
// connection.
package schedule

import (
	"math/rand"
	"sort"

	"cmfuzz/internal/core/configmodel"
	"cmfuzz/internal/core/graph"
	"cmfuzz/internal/core/relation"
)

// A Group is one cohesive set of configuration entities destined for one
// parallel fuzzing instance.
type Group struct {
	// Members lists the entity names in the group, sorted.
	Members []string
}

// Allocate implements Algorithm 2. It partitions the nodes of g into at
// most n groups. Isolated entities (no surviving relation edges) are
// distributed afterwards by the same FindBest score, which degenerates to
// size balancing for them.
func Allocate(g *graph.Graph, n int) []Group {
	if n < 1 {
		n = 1
	}
	var groups []map[string]bool
	assigned := make(map[string]int)

	addTo := func(gi int, name string) {
		groups[gi][name] = true
		assigned[name] = gi
	}

	for _, e := range g.SortedEdges() {
		s1, ok1 := assigned[e.A]
		s2, ok2 := assigned[e.B]
		switch {
		case !ok1 && !ok2:
			if len(groups) < n {
				groups = append(groups, map[string]bool{})
				addTo(len(groups)-1, e.A)
				addTo(len(groups)-1, e.B)
			} else {
				for _, c := range []string{e.A, e.B} {
					if _, done := assigned[c]; done {
						continue
					}
					addTo(findBest(g, groups, c), c)
				}
			}
		case ok1 != ok2:
			if ok1 {
				addTo(s1, e.B)
			} else {
				addTo(s2, e.A)
			}
		default:
			// Both endpoints already grouped: the edge's weight has been
			// honored (or irrecoverably split) by earlier, heavier edges.
		}
	}

	// Isolated nodes: seed missing groups first, then balance by score.
	var isolated []string
	for _, name := range g.Nodes() {
		if _, ok := assigned[name]; !ok {
			isolated = append(isolated, name)
		}
	}
	sort.Strings(isolated)
	for _, name := range isolated {
		if len(groups) < n {
			groups = append(groups, map[string]bool{})
			addTo(len(groups)-1, name)
			continue
		}
		addTo(findBest(g, groups, name), name)
	}

	out := make([]Group, len(groups))
	for i, members := range groups {
		out[i].Members = sortedKeys(members)
	}
	return out
}

// Score computes the paper's suitability score of adding entity c to the
// group with the given members: (Σ w(c, c'))² / |G|. An empty group
// scores 0.
func Score(g *graph.Graph, members []string, c string) float64 {
	if len(members) == 0 {
		return 0
	}
	sum := 0.0
	for _, m := range members {
		if w, ok := g.Weight(c, m); ok {
			sum += w
		}
	}
	return sum * sum / float64(len(members))
}

// findBest returns the index of the group maximizing Score. Ties break
// toward the smallest group, then the lowest index, so allocation is
// deterministic and balanced.
func findBest(g *graph.Graph, groups []map[string]bool, c string) int {
	bestIdx, bestScore, bestSize := 0, -1.0, int(^uint(0)>>1)
	for i, members := range groups {
		score := Score(g, sortedKeys(members), c)
		size := len(members)
		if score > bestScore || (score == bestScore && size < bestSize) {
			bestIdx, bestScore, bestSize = i, score, size
		}
	}
	return bestIdx
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// GroupAssignment reassembles one group back into a runtime-ready
// configuration (paper §III-B2): it starts from the model defaults and
// applies each in-group pair's best-scoring value combination in
// descending relation-weight order, never overwriting a value set by a
// heavier edge. Entities outside the group keep their defaults, so the
// instance runs a complete, valid configuration that emphasizes its
// assigned subset.
func GroupAssignment(model *configmodel.Model, rel *relation.Result, grp Group) configmodel.Assignment {
	cfg := model.Defaults()
	inGroup := make(map[string]bool, len(grp.Members))
	for _, m := range grp.Members {
		inGroup[m] = true
	}
	type weighted struct {
		pv relation.PairValues
		w  float64
	}
	var pairs []weighted
	for _, e := range rel.Graph.Edges() {
		if !inGroup[e.A] || !inGroup[e.B] {
			continue
		}
		if pv, ok := rel.Best[relation.PairKey(e.A, e.B)]; ok {
			pairs = append(pairs, weighted{pv: pv, w: e.Weight})
		}
	}
	sort.SliceStable(pairs, func(i, j int) bool {
		if pairs[i].w != pairs[j].w {
			return pairs[i].w > pairs[j].w
		}
		return relation.PairKey(pairs[i].pv.A, pairs[i].pv.B) < relation.PairKey(pairs[j].pv.A, pairs[j].pv.B)
	})
	set := make(map[string]bool)
	for _, p := range pairs {
		if !set[p.pv.A] && p.pv.ValueA != "" {
			cfg[p.pv.A] = p.pv.ValueA
			set[p.pv.A] = true
		}
		if !set[p.pv.B] && p.pv.ValueB != "" {
			cfg[p.pv.B] = p.pv.ValueB
			set[p.pv.B] = true
		}
	}
	// Members without an in-group relation edge still take their best
	// standalone value when it strictly improved startup coverage, so
	// isolated feature toggles distributed into this group are activated
	// rather than left at defaults.
	for _, m := range grp.Members {
		if set[m] {
			continue
		}
		if sv, ok := rel.BestSingle[m]; ok && sv.Gain > 0 && sv.Value != "" {
			cfg[m] = sv.Value
		}
	}
	return cfg
}

// RandomAllocate is the ablation baseline that ignores relations entirely:
// nodes are shuffled with the given seed and dealt into n groups.
func RandomAllocate(g *graph.Graph, n int, seed int64) []Group {
	if n < 1 {
		n = 1
	}
	names := append([]string{}, g.Nodes()...)
	sort.Strings(names)
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	groups := make([]Group, n)
	for i, name := range names {
		groups[i%n].Members = append(groups[i%n].Members, name)
	}
	for i := range groups {
		sort.Strings(groups[i].Members)
	}
	return trimEmpty(groups)
}

// RoundRobinAllocate is the ablation baseline that deals nodes into n
// groups in sorted name order.
func RoundRobinAllocate(g *graph.Graph, n int) []Group {
	if n < 1 {
		n = 1
	}
	names := append([]string{}, g.Nodes()...)
	sort.Strings(names)
	groups := make([]Group, n)
	for i, name := range names {
		groups[i%n].Members = append(groups[i%n].Members, name)
	}
	return trimEmpty(groups)
}

func trimEmpty(groups []Group) []Group {
	out := groups[:0]
	for _, g := range groups {
		if len(g.Members) > 0 {
			out = append(out, g)
		}
	}
	return out
}
