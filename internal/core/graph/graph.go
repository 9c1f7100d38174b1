// Package graph provides the weighted undirected graph underlying the
// relation-aware configuration model (the paper builds this with networkx;
// here it is a compact stdlib-only implementation). Nodes are configuration
// entity names; edge weights are quantified pairwise relations.
package graph

import "sort"

// An Edge connects two nodes with a relation weight. A and B are stored
// in lexicographic order so each undirected edge has one canonical form.
type Edge struct {
	A, B   string
	Weight float64
}

// A Graph is a weighted undirected graph. The zero value is not usable;
// create graphs with New.
type Graph struct {
	index map[string]int
	names []string
	adj   []map[int]float64
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{index: make(map[string]int)}
}

// AddNode inserts a node if absent and returns its index.
func (g *Graph) AddNode(name string) int {
	if i, ok := g.index[name]; ok {
		return i
	}
	i := len(g.names)
	g.index[name] = i
	g.names = append(g.names, name)
	g.adj = append(g.adj, make(map[int]float64))
	return i
}

// AddEdge connects a and b with weight w, inserting missing nodes and
// overwriting any existing weight. Self-loops are ignored.
func (g *Graph) AddEdge(a, b string, w float64) {
	if a == b {
		return
	}
	ia, ib := g.AddNode(a), g.AddNode(b)
	g.adj[ia][ib] = w
	g.adj[ib][ia] = w
}

// Weight returns the weight of edge (a, b) and whether it exists.
func (g *Graph) Weight(a, b string) (float64, bool) {
	ia, ok := g.index[a]
	if !ok {
		return 0, false
	}
	ib, ok := g.index[b]
	if !ok {
		return 0, false
	}
	w, ok := g.adj[ia][ib]
	return w, ok
}

// EdgeCount returns the number of undirected edges.
func (g *Graph) EdgeCount() int {
	n := 0
	for _, m := range g.adj {
		n += len(m)
	}
	return n / 2
}

// Nodes returns the node names in insertion order. The slice aliases
// internal storage and must not be modified.
func (g *Graph) Nodes() []string { return g.names }

// Edges returns every undirected edge exactly once, in canonical
// (A, B) lexicographic order.
func (g *Graph) Edges() []Edge {
	var out []Edge
	for ia, m := range g.adj {
		for ib, w := range m {
			if ia < ib {
				a, b := g.names[ia], g.names[ib]
				if a > b {
					a, b = b, a
				}
				out = append(out, Edge{A: a, B: b, Weight: w})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// SortedEdges returns the edges sorted by descending weight — the order
// Algorithm 2 processes them in. Ties break on node names so allocation
// is deterministic.
func (g *Graph) SortedEdges() []Edge {
	edges := g.Edges()
	sort.SliceStable(edges, func(i, j int) bool {
		return edges[i].Weight > edges[j].Weight
	})
	return edges
}

// MaxWeight returns the largest edge weight, or 0 for an edgeless graph.
func (g *Graph) MaxWeight() float64 {
	max := 0.0
	for _, m := range g.adj {
		for _, w := range m {
			if w > max {
				max = w
			}
		}
	}
	return max
}

// Normalize scales every edge weight into [0, 1] by dividing by the
// maximum weight (paper §III-B1). An edgeless graph is unchanged.
func (g *Graph) Normalize() {
	max := g.MaxWeight()
	if max <= 0 {
		return
	}
	for _, m := range g.adj {
		for k, w := range m {
			m[k] = w / max
		}
	}
}
