// Package coverage provides the branch-coverage substrate used throughout
// CMFuzz. It replaces the Clang trace-pc-guard instrumentation the paper
// applies to C targets with an AFL-style edge map: instrumented subjects
// report (site, state) pairs through a Trace, each pair is hashed into a
// fixed-size edge map, and the number of populated map cells is the branch
// count every scheduling and evaluation component consumes.
package coverage

import "math/bits"

// MapSize is the number of distinct edge cells. It matches the classic
// 64 Ki AFL map, which is large enough that the six protocol subjects
// (tens of thousands of reachable edges) stay well below saturation.
const MapSize = 1 << 16

// wordCount is the number of 64-bit words backing a Map's bitset.
const wordCount = MapSize / 64

// summaryCount is the number of words in the dirty-word summary bitset:
// bit w of the summary is set iff bits[w] is nonzero.
const summaryCount = wordCount / 64

// Index identifies a single edge cell in a Map.
type Index uint32

// mix64 is the splitmix64 finalizer; it decorrelates nearby probe sites so
// edge identities spread uniformly across the map.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// EdgeIndex maps an instrumentation site and a dynamic state discriminator
// to an edge cell. The same (site, state) pair always lands in the same
// cell, so coverage is reproducible across runs and processes.
func EdgeIndex(site uint32, state uint64) Index {
	return Index(mix64(uint64(site)<<32|uint64(uint32(state))^(state>>32)) % MapSize)
}

// A Map is a set of covered edges. The zero value is not usable; create
// Maps with NewMap. Maps are not safe for concurrent mutation.
//
// The map is sparse-aware: alongside the dense bitset it maintains a
// two-level summary (one bit per backing word, set iff that word is
// nonzero), so per-exec operations — Reset, Union, NewOver, Indices —
// walk only the handful of words an execution actually dirtied instead
// of all MapSize/64 of them. A typical protocol exec touches tens of
// words; the summary keeps the whole hot loop O(dirty words).
type Map struct {
	bits [wordCount]uint64
	// summary bit w is set iff bits[w] != 0 — the dirty-word index that
	// every sparse iteration below drives off. Invariant maintained by
	// Add, Union and Reset; Clone copies it wholesale.
	summary [summaryCount]uint64
	count   int
}

// NewMap returns an empty coverage map.
func NewMap() *Map { return &Map{} }

// Add marks the edge cell idx as covered and reports whether it was
// previously uncovered.
func (m *Map) Add(idx Index) bool {
	w, b := idx/64, idx%64
	mask := uint64(1) << b
	if m.bits[w]&mask != 0 {
		return false
	}
	m.bits[w] |= mask
	m.summary[w/64] |= 1 << (w % 64)
	m.count++
	return true
}

// Count returns the number of covered edges — the "branches covered"
// metric used by every table and figure.
func (m *Map) Count() int { return m.count }

// Union merges o into m and returns how many edges were new to m.
// A nil o is treated as empty. Only o's dirty words are visited.
func (m *Map) Union(o *Map) int {
	if o == nil {
		return 0
	}
	added := 0
	for s, sw := range o.summary {
		for sw != 0 {
			i := s*64 + bits.TrailingZeros64(sw)
			sw &= sw - 1
			nw := o.bits[i] &^ m.bits[i]
			if nw != 0 {
				added += bits.OnesCount64(nw)
				m.bits[i] |= nw
				m.summary[s] |= 1 << (i % 64)
			}
		}
	}
	m.count += added
	return added
}

// NewOver returns how many edges in m are absent from base, without
// modifying either map. A nil base is treated as empty. Only m's dirty
// words are visited, so querying a per-exec map against a large
// cumulative base costs O(words the exec touched).
func (m *Map) NewOver(base *Map) int {
	if base == nil {
		return m.count
	}
	n := 0
	for s, sw := range m.summary {
		for sw != 0 {
			i := s*64 + bits.TrailingZeros64(sw)
			sw &= sw - 1
			if d := m.bits[i] &^ base.bits[i]; d != 0 {
				n += bits.OnesCount64(d)
			}
		}
	}
	return n
}

// Reset clears all covered edges. Only words recorded dirty in the
// summary are zeroed, so resetting a per-exec map between executions
// costs O(words touched), not O(MapSize/64).
func (m *Map) Reset() {
	for s, sw := range m.summary {
		for sw != 0 {
			m.bits[s*64+bits.TrailingZeros64(sw)] = 0
			sw &= sw - 1
		}
		m.summary[s] = 0
	}
	m.count = 0
}

// Indices returns the covered edge cells in ascending order. It is meant
// for tests and diagnostics, not hot paths.
func (m *Map) Indices() []Index {
	out := make([]Index, 0, m.count)
	for s, sw := range m.summary {
		for sw != 0 {
			w := s*64 + bits.TrailingZeros64(sw)
			sw &= sw - 1
			word := m.bits[w]
			for word != 0 {
				b := bits.TrailingZeros64(word)
				out = append(out, Index(w*64+b))
				word &= word - 1
			}
		}
	}
	return out
}

// A Trace is the probe interface handed to instrumented subjects. Every
// call records one edge into the trace's per-execution map. Subjects call
// Hit for plain basic blocks and Edge when a dynamic value (a parser state,
// an option number, a packet kind) meaningfully distinguishes paths.
type Trace struct {
	m *Map
}

// NewTrace returns a Trace backed by a fresh map.
func NewTrace() *Trace { return &Trace{m: NewMap()} }

// Hit records coverage of the static probe site.
func (t *Trace) Hit(site uint32) {
	if t == nil {
		return
	}
	t.m.Add(EdgeIndex(site, 0))
}

// Edge records coverage of a probe site refined by a dynamic state value,
// mirroring how distinct branch targets produce distinct trace-pc-guard
// callbacks.
func (t *Trace) Edge(site uint32, state uint64) {
	if t == nil {
		return
	}
	t.m.Add(EdgeIndex(site, state))
}

// Map exposes the edges recorded so far.
func (t *Trace) Map() *Map { return t.m }

// Count returns the number of distinct edges recorded so far.
func (t *Trace) Count() int { return t.m.Count() }

// Reset clears the trace for the next execution.
func (t *Trace) Reset() { t.m.Reset() }
