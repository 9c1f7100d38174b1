package fuzz

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func seedOf(gain int, tag byte) Seed {
	return Seed{Msgs: [][]byte{{tag}}, Gain: gain}
}

func TestCorpusAddEvictsWeakest(t *testing.T) {
	c := NewCorpus(3)
	c.Add(seedOf(5, 'a'))
	c.Add(seedOf(1, 'b'))
	c.Add(seedOf(3, 'c'))
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.Len())
	}
	// Pool full: the gain-1 seed at index 1 must give way.
	c.Add(seedOf(9, 'd'))
	if c.Len() != 3 {
		t.Fatalf("len after eviction = %d, want 3", c.Len())
	}
	gains := []int{c.At(0).Gain, c.At(1).Gain, c.At(2).Gain}
	if gains[0] != 5 || gains[1] != 9 || gains[2] != 3 {
		t.Fatalf("pool after eviction = %v, want [5 9 3]", gains)
	}
	// Gain ties evict the weak seed in the lowest slot, so two pools
	// built by the same Add sequence stay identical slot for slot.
	c.Add(seedOf(3, 'e'))
	if got := c.At(2).Msgs[0][0]; got != 'e' {
		t.Fatalf("tie eviction replaced slot holding %q, want 'c' slot", got)
	}
}

// scanCorpus is the linear-scan eviction the heap replaced, kept as the
// reference Corpus must match slot for slot: a full pool evicts the first
// slot of least gain, and re-ranks its best gains from scratch whenever
// the evicted gain was the weakest of them.
type scanCorpus struct {
	gains []int
	max   int
	best  [SyncSeeds]int
}

func (c *scanCorpus) rank(gain int) {
	for k := range c.best {
		if gain > c.best[k] {
			copy(c.best[k+1:], c.best[k:len(c.best)-1])
			c.best[k] = gain
			return
		}
	}
}

func (c *scanCorpus) add(gain int) int {
	if len(c.gains) < c.max {
		c.gains = append(c.gains, gain)
		c.rank(gain)
		return len(c.gains) - 1
	}
	weakest := 0
	for i, g := range c.gains {
		if g < c.gains[weakest] {
			weakest = i
		}
	}
	evicted := c.gains[weakest]
	c.gains[weakest] = gain
	if evicted < c.best[len(c.best)-1] {
		c.rank(gain)
		return weakest
	}
	c.best = [SyncSeeds]int{}
	for _, g := range c.gains {
		c.rank(g)
	}
	return weakest
}

// top is Corpus.Top's partial selection sort over the gains.
func (c *scanCorpus) top(max int) []int {
	idx := make([]int, len(c.gains))
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < len(idx) && i < max; i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			if c.gains[idx[j]] > c.gains[idx[best]] {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	return idx[:min(max, len(idx))]
}

// TestCorpusEvictionMatchesScan holds the heap eviction to the linear
// scan over random Add sequences whose gains tie heavily: the same slot
// returned, the same gain in every slot, the same Top and the same
// ExportFloor after every Add, in pools of 1 to 8 seeds and of 256.
func TestCorpusEvictionMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, max := range []int{1, 2, 3, 4, 5, 6, 7, 8, DefaultMaxCorpus} {
		for round := 0; round < 40; round++ {
			c, ref := NewCorpus(max), &scanCorpus{max: max}
			gains := 1 + rng.Intn(6) // few distinct gains: ties everywhere
			for n := 0; n < 3*max+60; n++ {
				gain := 1 + rng.Intn(gains)
				got, want := c.Add(seedOf(gain, byte(n))), ref.add(gain)
				if got != want {
					t.Fatalf("max %d round %d add %d: gain %d took slot %d, the scan's %d", max, round, n, gain, got, want)
				}
				for i, g := range ref.gains {
					if c.At(i).Gain != g {
						t.Fatalf("max %d round %d add %d: slot %d holds gain %d, the scan's %d", max, round, n, i, c.At(i).Gain, g)
					}
				}
				if c.ExportFloor() != ref.best[SyncSeeds-1] {
					t.Fatalf("max %d round %d add %d: floor %d, the scan's %d", max, round, n, c.ExportFloor(), ref.best[SyncSeeds-1])
				}
				if got, want := c.Top(SyncSeeds), ref.top(SyncSeeds); !slices.Equal(got, want) {
					t.Fatalf("max %d round %d add %d: Top %v, the scan's %v", max, round, n, got, want)
				}
			}
		}
	}
}

// BenchmarkCorpusAdd is an Add into a full default pool.
func BenchmarkCorpusAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := NewCorpus(0)
	seeds := make([]Seed, 1024)
	for i := range seeds {
		seeds[i] = seedOf(1+rng.Intn(64), byte(i))
	}
	for i := 0; i < DefaultMaxCorpus; i++ {
		c.Add(seeds[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(seeds[i%len(seeds)])
	}
}

// topSeeds returns the seeds c.Top(max) picks, in its order: what a sync
// exports.
func topSeeds(c *Corpus, max int) []Seed {
	var out []Seed
	for _, k := range c.Top(max) {
		out = append(out, c.At(k))
	}
	return out
}

func TestCorpusExportOrderDeterministic(t *testing.T) {
	c := NewCorpus(0) // DefaultMaxCorpus
	c.Add(seedOf(2, 'a'))
	c.Add(seedOf(7, 'b'))
	c.Add(seedOf(7, 'c'))
	c.Add(seedOf(4, 'd'))
	got := topSeeds(c, 3)
	if len(got) != 3 {
		t.Fatalf("export len = %d, want 3", len(got))
	}
	// Highest gain first; the 7/7 tie keeps insertion order.
	want := []byte{'b', 'c', 'd'}
	for i, s := range got {
		if !bytes.Equal(s.Msgs[0], []byte{want[i]}) {
			t.Fatalf("export[%d] = %q, want %q", i, s.Msgs[0], want[i])
		}
	}
	if c.Top(0) != nil || NewCorpus(4).Top(3) != nil {
		t.Fatal("empty exports must be nil")
	}
}

// TestCorpusMirrorsEngine pins the property the distributed coordinator
// relies on: replaying an engine's corpus additions and imports into a
// standalone Corpus reproduces the engine's pool exactly, so mirror
// exports equal worker exports.
func TestCorpusMirrorsEngine(t *testing.T) {
	cfg := toyConfig(1)
	cfg.maxCorpus = 8
	eng := NewEngine(cfg, &toyTarget{})
	mirror := NewCorpus(8)
	for i := 0; i < 200; i++ {
		step := eng.Step()
		if step.NewEdges > 0 {
			mirror.Add(eng.LastSeed())
		}
	}
	a, b := topSeeds(eng.corpus, 4), topSeeds(mirror, 4)
	if len(a) != len(b) {
		t.Fatalf("export sizes diverged: engine %d, mirror %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Gain != b[i].Gain || len(a[i].Msgs) != len(b[i].Msgs) {
			t.Fatalf("export %d diverged: %+v vs %+v", i, a[i], b[i])
		}
		for j := range a[i].Msgs {
			if !bytes.Equal(a[i].Msgs[j], b[i].Msgs[j]) {
				t.Fatalf("export %d msg %d diverged", i, j)
			}
		}
	}
}

// TestExportFloor holds ExportFloor to its contract over random Add
// sequences into small pools, where evictions, gain ties and floor
// evictions are everyday events: it is the SyncSeeds-th highest gain
// held; Export(SyncSeeds) picks nothing below it; and a seed that was
// below the floor when it was added (one whose messages a lease record
// leaves behind) is never picked for as long as the pool holds it.
func TestExportFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 500; round++ {
		c := NewCorpus(1 + rng.Intn(12))
		behind := map[byte]bool{} // tags added below the floor
		for n := 0; n < 80; n++ {
			tag := byte(n)
			slot := c.Add(seedOf(1+rng.Intn(4), tag))
			if c.At(slot).Msgs[0][0] != tag {
				t.Fatalf("round %d: Add returned index %d, which holds another seed", round, slot)
			}
			if c.At(slot).Gain < c.ExportFloor() {
				behind[tag] = true
			}
			gains := make([]int, c.Len())
			for i := range gains {
				gains[i] = c.At(i).Gain
			}
			sort.Sort(sort.Reverse(sort.IntSlice(gains)))
			want := 0
			if len(gains) >= SyncSeeds {
				want = gains[SyncSeeds-1]
			}
			if got := c.ExportFloor(); got != want {
				t.Fatalf("round %d: floor %d over gains %v, want %d", round, got, gains, want)
			}
			for _, s := range topSeeds(c, SyncSeeds) {
				if s.Gain < want || behind[s.Msgs[0][0]] {
					t.Fatalf("round %d: Export picked seed %d (gain %d), added below the floor or under floor %d", round, s.Msgs[0][0], s.Gain, want)
				}
			}
		}
	}
}

// TestDigest pins the digest to its definition — CRC-32C over the
// length-framed messages, and their byte total — and holds it to no
// allocation: a worker takes one per new-edges step.
func TestDigest(t *testing.T) {
	s := Seed{Msgs: [][]byte{{0x10, 0x0c}, nil, {0x30, 0x02, 'a', 'b'}}}
	var framed []byte
	for _, m := range s.Msgs {
		framed = binary.BigEndian.AppendUint32(framed, uint32(len(m)))
		framed = append(framed, m...)
	}
	want := Digest{CRC: crc32.Checksum(framed, crc32.MakeTable(crc32.Castagnoli)), Size: 6}
	if got := s.Digest(); got != want {
		t.Fatalf("digest %v, want %v", got, want)
	}
	// Framing tells the message boundaries apart, and no messages from one
	// empty message.
	for _, other := range []Seed{{Msgs: [][]byte{{0x10}, {0x0c}, {0x30, 0x02, 'a', 'b'}}}, {Msgs: [][]byte{{}}}, {}} {
		if other.Digest() == want {
			t.Fatalf("%v digests like %v", other.Msgs, s.Msgs)
		}
	}
	if (Seed{Msgs: [][]byte{{}}}).Digest() == (Seed{}).Digest() {
		t.Fatal("one empty message digests like none")
	}
	if n := testing.AllocsPerRun(100, func() { s.Digest() }); n != 0 {
		t.Fatalf("Digest allocates %v times, want 0", n)
	}
}
