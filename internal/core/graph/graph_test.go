package graph

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAddNodeIdempotent(t *testing.T) {
	g := New()
	i := g.AddNode("a")
	if g.AddNode("a") != i {
		t.Fatal("re-adding node changed index")
	}
}

func TestAddEdgeUndirected(t *testing.T) {
	g := New()
	g.AddEdge("a", "b", 0.5)
	if w, ok := g.Weight("a", "b"); !ok || w != 0.5 {
		t.Fatalf("Weight(a,b) = %v,%v", w, ok)
	}
	if w, ok := g.Weight("b", "a"); !ok || w != 0.5 {
		t.Fatalf("Weight(b,a) = %v,%v", w, ok)
	}
	g.AddEdge("b", "a", 0.9) // overwrite via other direction
	if w, _ := g.Weight("a", "b"); w != 0.9 {
		t.Fatalf("overwritten weight = %v", w)
	}
	if g.EdgeCount() != 1 {
		t.Fatalf("EdgeCount = %d", g.EdgeCount())
	}
}

func TestSelfLoopIgnored(t *testing.T) {
	g := New()
	g.AddEdge("a", "a", 1)
	if g.EdgeCount() != 0 {
		t.Fatal("self loop was added")
	}
}

func TestWeightMissing(t *testing.T) {
	g := New()
	g.AddNode("a")
	if _, ok := g.Weight("a", "zz"); ok {
		t.Fatal("missing node edge reported present")
	}
	if _, ok := g.Weight("zz", "a"); ok {
		t.Fatal("missing node edge reported present")
	}
	g.AddNode("b")
	if _, ok := g.Weight("a", "b"); ok {
		t.Fatal("unconnected nodes reported connected")
	}
}

func TestEdgesCanonical(t *testing.T) {
	g := New()
	g.AddEdge("z", "a", 1)
	g.AddEdge("b", "c", 2)
	edges := g.Edges()
	if len(edges) != 2 {
		t.Fatalf("Edges = %v", edges)
	}
	if edges[0].A != "a" || edges[0].B != "z" {
		t.Fatalf("edge not canonical: %+v", edges[0])
	}
	if edges[1].A != "b" || edges[1].B != "c" {
		t.Fatalf("order wrong: %+v", edges[1])
	}
}

func TestSortedEdgesDescending(t *testing.T) {
	g := New()
	g.AddEdge("a", "b", 0.2)
	g.AddEdge("c", "d", 0.9)
	g.AddEdge("e", "f", 0.5)
	g.AddEdge("g", "h", 0.5) // tie with e-f
	edges := g.SortedEdges()
	weights := []float64{0.9, 0.5, 0.5, 0.2}
	for i, w := range weights {
		if edges[i].Weight != w {
			t.Fatalf("SortedEdges[%d].Weight = %v, want %v", i, edges[i].Weight, w)
		}
	}
	// Ties stay in canonical name order (stable sort over name-sorted input).
	if edges[1].A != "e" || edges[2].A != "g" {
		t.Fatalf("tie order wrong: %+v %+v", edges[1], edges[2])
	}
}

func TestNormalize(t *testing.T) {
	g := New()
	g.AddEdge("a", "b", 10)
	g.AddEdge("c", "d", 5)
	g.Normalize()
	if w, _ := g.Weight("a", "b"); w != 1 {
		t.Fatalf("max weight normalized to %v", w)
	}
	if w, _ := g.Weight("c", "d"); w != 0.5 {
		t.Fatalf("half weight normalized to %v", w)
	}
	// Edgeless graph: no panic.
	New().Normalize()
	if g.MaxWeight() != 1 {
		t.Fatalf("MaxWeight after normalize = %v", g.MaxWeight())
	}
}

// Property: edge count equals len(Edges) and every reported weight is
// retrievable symmetrically.
func TestQuickEdgesConsistent(t *testing.T) {
	f := func(pairs []uint16, ws []uint8) bool {
		g := New()
		nodeName := func(v uint16) string { return string(rune('a' + v%26)) }
		for i := 0; i+1 < len(pairs); i += 2 {
			w := 1.0
			if i/2 < len(ws) {
				w = float64(ws[i/2]) / 255
			}
			g.AddEdge(nodeName(pairs[i]), nodeName(pairs[i+1]), w)
		}
		edges := g.Edges()
		if len(edges) != g.EdgeCount() {
			return false
		}
		for _, e := range edges {
			w1, ok1 := g.Weight(e.A, e.B)
			w2, ok2 := g.Weight(e.B, e.A)
			if !ok1 || !ok2 || w1 != e.Weight || w2 != e.Weight {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: after Normalize all weights are in [0,1] and the ordering of
// edges by weight is preserved.
func TestQuickNormalizePreservesOrder(t *testing.T) {
	f := func(ws []uint16) bool {
		g := New()
		for i, w := range ws {
			a := string(rune('a'+i%26)) + "1"
			b := string(rune('a'+i%26)) + "2"
			g.AddEdge(a+string(rune('0'+i/26%10)), b+string(rune('0'+i/26%10)), float64(w))
		}
		before := g.SortedEdges()
		g.Normalize()
		after := g.SortedEdges()
		if len(before) != len(after) {
			return false
		}
		for i := range after {
			if after[i].Weight < 0 || after[i].Weight > 1+1e-12 {
				return false
			}
			if before[i].A != after[i].A || before[i].B != after[i].B {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeNaNFree(t *testing.T) {
	g := New()
	g.AddEdge("a", "b", 0)
	g.Normalize() // max weight 0: unchanged, no NaN
	if w, _ := g.Weight("a", "b"); math.IsNaN(w) {
		t.Fatal("Normalize produced NaN")
	}
}
