package coverage

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Has reports whether the edge cell idx is covered.
func (m *Map) Has(idx Index) bool {
	return m.bits[idx/64]&(1<<(idx%64)) != 0
}

// Clone returns an independent copy of m.
func (m *Map) Clone() *Map {
	c := *m
	return &c
}

func TestMapAddAndCount(t *testing.T) {
	m := NewMap()
	if m.Count() != 0 {
		t.Fatalf("empty map count = %d, want 0", m.Count())
	}
	if !m.Add(42) {
		t.Fatal("first Add(42) reported not-new")
	}
	if m.Add(42) {
		t.Fatal("second Add(42) reported new")
	}
	if !m.Has(42) {
		t.Fatal("Has(42) = false after Add")
	}
	if m.Has(43) {
		t.Fatal("Has(43) = true without Add")
	}
	if m.Count() != 1 {
		t.Fatalf("count = %d, want 1", m.Count())
	}
}

func TestMapBoundaryIndices(t *testing.T) {
	m := NewMap()
	for _, idx := range []Index{0, 63, 64, MapSize - 1} {
		if !m.Add(idx) {
			t.Errorf("Add(%d) not new", idx)
		}
		if !m.Has(idx) {
			t.Errorf("Has(%d) false", idx)
		}
	}
	if m.Count() != 4 {
		t.Fatalf("count = %d, want 4", m.Count())
	}
}

func TestMapUnion(t *testing.T) {
	a, b := NewMap(), NewMap()
	a.Add(1)
	a.Add(2)
	b.Add(2)
	b.Add(3)
	added := a.Union(b)
	if added != 1 {
		t.Fatalf("Union added = %d, want 1", added)
	}
	if a.Count() != 3 {
		t.Fatalf("count after union = %d, want 3", a.Count())
	}
	for _, idx := range []Index{1, 2, 3} {
		if !a.Has(idx) {
			t.Errorf("missing %d after union", idx)
		}
	}
	if a.Union(nil) != 0 {
		t.Fatal("Union(nil) != 0")
	}
}

func TestMapNewOver(t *testing.T) {
	a, base := NewMap(), NewMap()
	a.Add(10)
	a.Add(20)
	base.Add(20)
	if got := a.NewOver(base); got != 1 {
		t.Fatalf("NewOver = %d, want 1", got)
	}
	if got := a.NewOver(nil); got != 2 {
		t.Fatalf("NewOver(nil) = %d, want 2", got)
	}
	// NewOver must not mutate.
	if a.Count() != 2 || base.Count() != 1 {
		t.Fatal("NewOver mutated its operands")
	}
}

func TestMapCloneIndependence(t *testing.T) {
	a := NewMap()
	a.Add(5)
	c := a.Clone()
	c.Add(6)
	if a.Has(6) {
		t.Fatal("mutating clone affected original")
	}
	if !c.Has(5) {
		t.Fatal("clone lost original edge")
	}
}

func TestMapReset(t *testing.T) {
	m := NewMap()
	m.Add(7)
	m.Reset()
	if m.Count() != 0 || m.Has(7) {
		t.Fatal("Reset did not clear map")
	}
}

func TestMapIndices(t *testing.T) {
	m := NewMap()
	want := []Index{3, 64, 1000, MapSize - 1}
	for _, idx := range want {
		m.Add(idx)
	}
	got := m.Indices()
	if len(got) != len(want) {
		t.Fatalf("Indices len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Indices[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestEdgeIndexDeterministic(t *testing.T) {
	if EdgeIndex(1, 2) != EdgeIndex(1, 2) {
		t.Fatal("EdgeIndex not deterministic")
	}
	if EdgeIndex(1, 2) == EdgeIndex(1, 3) && EdgeIndex(1, 4) == EdgeIndex(1, 5) {
		t.Fatal("EdgeIndex suspiciously collides on consecutive states")
	}
}

func TestEdgeIndexSpread(t *testing.T) {
	// Consecutive sites must not all collapse into a few cells.
	seen := make(map[Index]bool)
	for site := uint32(0); site < 1000; site++ {
		seen[EdgeIndex(site, 0)] = true
	}
	if len(seen) < 950 {
		t.Fatalf("1000 sites mapped to only %d cells", len(seen))
	}
}

func TestTrace(t *testing.T) {
	tr := NewTrace()
	tr.Hit(1)
	tr.Hit(1)
	tr.Edge(1, 7)
	if tr.Count() != 2 {
		t.Fatalf("trace count = %d, want 2", tr.Count())
	}
	tr.Reset()
	if tr.Count() != 0 {
		t.Fatal("Reset did not clear trace")
	}
}

func TestNilTraceSafe(t *testing.T) {
	var tr *Trace
	tr.Hit(1)     // must not panic
	tr.Edge(1, 2) // must not panic
}

// Property: for any two edge sets, Count(a ∪ b) = Count(a) + NewOver(b over a).
func TestQuickUnionCountConsistent(t *testing.T) {
	f := func(as, bs []uint16) bool {
		a, b := NewMap(), NewMap()
		for _, x := range as {
			a.Add(Index(x))
		}
		for _, x := range bs {
			b.Add(Index(x))
		}
		before := a.Count()
		wantAdded := b.NewOver(a)
		added := a.Union(b)
		return added == wantAdded && a.Count() == before+added
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Union is idempotent and monotone.
func TestQuickUnionIdempotent(t *testing.T) {
	f := func(as, bs []uint16) bool {
		a, b := NewMap(), NewMap()
		for _, x := range as {
			a.Add(Index(x))
		}
		for _, x := range bs {
			b.Add(Index(x))
		}
		a.Union(b)
		c1 := a.Count()
		if a.Union(b) != 0 {
			return false
		}
		return a.Count() == c1 && c1 >= b.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Count always equals len(Indices), and Indices are sorted unique.
func TestQuickCountMatchesIndices(t *testing.T) {
	f := func(xs []uint16) bool {
		m := NewMap()
		for _, x := range xs {
			m.Add(Index(x))
		}
		idx := m.Indices()
		if len(idx) != m.Count() {
			return false
		}
		for i := 1; i < len(idx); i++ {
			if idx[i] <= idx[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesBasics(t *testing.T) {
	var s Series
	if len(s.Points()) != 0 || s.At(100) != 0 {
		t.Fatal("empty series not zero")
	}
	s.Observe(0, 10)
	s.Observe(5, 10) // collapsed: no growth
	s.Observe(10, 25)
	s.Observe(20, 40)
	pts := s.Points()
	if len(pts) != 3 {
		t.Fatalf("len = %d, want 3 (flat sample collapsed)", len(pts))
	}
	if pts[2].Count != 40 {
		t.Fatalf("final = %d, want 40", pts[2].Count)
	}
	cases := []struct {
		t    float64
		want int
	}{{-1, 0}, {0, 10}, {9.9, 10}, {10, 25}, {15, 25}, {20, 40}, {1e9, 40}}
	for _, c := range cases {
		if got := s.At(c.t); got != c.want {
			t.Errorf("At(%v) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestSeriesTimeToReach(t *testing.T) {
	var s Series
	s.Observe(0, 5)
	s.Observe(100, 50)
	if tt, ok := s.TimeToReach(0); !ok || tt != 0 {
		t.Fatalf("TimeToReach(0) = %v,%v", tt, ok)
	}
	if tt, ok := s.TimeToReach(5); !ok || tt != 0 {
		t.Fatalf("TimeToReach(5) = %v,%v", tt, ok)
	}
	if tt, ok := s.TimeToReach(6); !ok || tt != 100 {
		t.Fatalf("TimeToReach(6) = %v,%v", tt, ok)
	}
	if _, ok := s.TimeToReach(51); ok {
		t.Fatal("TimeToReach(51) should fail")
	}
}

// TestSeriesSample: one series averaged alone is that series resampled
// at evenly spaced times across the horizon, both ends included.
func TestSeriesSample(t *testing.T) {
	var s Series
	s.Observe(0, 1)
	s.Observe(50, 2)
	pts := MeanOf([]*Series{&s}, 100, 3)
	if len(pts) != 3 {
		t.Fatalf("len = %d", len(pts))
	}
	if pts[0].Count != 1 || pts[1].Count != 2 || pts[2].Count != 2 {
		t.Fatalf("sample counts = %v", pts)
	}
	if pts[2].T != 100 {
		t.Fatalf("last sample T = %v, want 100", pts[2].T)
	}
}

func TestMeanOf(t *testing.T) {
	a, b := &Series{}, &Series{}
	a.Observe(0, 10)
	b.Observe(0, 20)
	pts := MeanOf([]*Series{a, b}, 10, 2)
	if pts[1].Count != 15 {
		t.Fatalf("mean = %d, want 15", pts[1].Count)
	}
	if MeanOf(nil, 10, 2) != nil {
		t.Fatal("MeanOf(nil) != nil")
	}
}

// Property: Series.At is monotone nondecreasing in t for monotone input.
func TestQuickSeriesMonotone(t *testing.T) {
	f := func(deltas []uint8) bool {
		var s Series
		tt, c := 0.0, 0
		for _, d := range deltas {
			tt += float64(d%7) + 1
			c += int(d % 5)
			s.Observe(tt, c)
		}
		r := rand.New(rand.NewSource(1))
		prevT, prevC := -1.0, -1
		for i := 0; i < 50; i++ {
			q := prevT + r.Float64()*5
			got := s.At(q)
			if q >= prevT && prevC > got {
				return false
			}
			prevT, prevC = q, got
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSaturation(t *testing.T) {
	s := &Saturation{Window: 10}
	if s.Saturated(0) {
		t.Fatal("unstarted detector saturated")
	}
	s.Observe(0, 5)
	if s.Saturated(9.9) {
		t.Fatal("saturated before window elapsed")
	}
	if !s.Saturated(10) {
		t.Fatal("not saturated after flat window")
	}
	s.Observe(11, 6) // growth resets the clock
	if s.Saturated(20.9) {
		t.Fatal("saturated despite recent growth")
	}
	if !s.Saturated(21) {
		t.Fatal("not saturated after second flat window")
	}
	s.Reset(21)
	if s.Saturated(100) {
		t.Fatal("saturated right after Reset without observations")
	}
}

// TestSaturationProportionalThreshold: past MinGain/minGainFrac edges the
// progress threshold is the count's share, so with MinGain 8 and 1,000
// edges a gain of 9 is flat and a gain of 10 is progress.
func TestSaturationProportionalThreshold(t *testing.T) {
	s := &Saturation{Window: 10, MinGain: 8}
	s.Observe(0, 1000)
	s.Observe(5, 1009)
	if !s.Saturated(10) {
		t.Fatal("a gain of 9 on 1,000 edges counted as progress")
	}
	s.Observe(10, 1010)
	if s.Saturated(19.9) {
		t.Fatal("a gain of 10 on 1,000 edges counted as flat")
	}
}

func BenchmarkTraceEdge(b *testing.B) {
	tr := NewTrace()
	for i := 0; i < b.N; i++ {
		tr.Edge(uint32(i%512), uint64(i%64))
	}
}

func BenchmarkMapUnion(b *testing.B) {
	a, o := NewMap(), NewMap()
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 4000; i++ {
		o.Add(Index(r.Intn(MapSize)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Union(o)
	}
}
