package fuzz

import (
	"fmt"
	"hash/crc32"
)

// DefaultMaxCorpus bounds a seed pool when no explicit cap is given
// (Config.maxCorpus zero, NewCorpus given max <= 0).
const DefaultMaxCorpus = 256

// SyncSeeds is how many of its best seeds an instance offers each
// sibling at a seed sync: the max of the Export the sync takes.
const SyncSeeds = 4

// A Corpus is a bounded, gain-ranked seed pool. The engine owns one per
// instance; a lease source keeps a mirror per instance, fed from the
// records its leases return, so sync exports are computed at the exact
// event-loop position without asking the instance. A record carries its
// seed's messages only when the seed's gain reaches ExportFloor; the
// mirror keeps the others as digests, which no export ever picks.
// Engine and mirror run the same insertion, eviction, and export code,
// which is what keeps a mirror slot for slot equal to the engine's pool.
type Corpus struct {
	seeds []Seed
	max   int
	// best holds the SyncSeeds highest gains held, highest first, padded
	// with zeros while the pool holds fewer seeds.
	best [SyncSeeds]int
	// heap orders a full pool's slots by (gain, slot), weakest first. It
	// is built at the first eviction; only its root is ever replaced.
	heap []int32
	top  []int // Top's index scratch
}

// NewCorpus returns an empty corpus holding at most max seeds
// (DefaultMaxCorpus when max <= 0).
func NewCorpus(max int) *Corpus {
	if max <= 0 {
		max = DefaultMaxCorpus
	}
	return &Corpus{max: max}
}

// Len returns the number of seeds held.
func (c *Corpus) Len() int { return len(c.seeds) }

// At returns the seed at index i.
func (c *Corpus) At(i int) Seed { return c.seeds[i] }

// Add inserts s, evicting the seed with the smallest discovery gain
// when the pool is full, and returns the index s took. Ties evict the
// weak seed in the lowest slot, so the sequence of Adds fully determines
// the pool's contents, slot for slot.
func (c *Corpus) Add(s Seed) int {
	if len(c.seeds) < c.max {
		c.seeds = append(c.seeds, s)
		c.rank(s.Gain)
		return len(c.seeds) - 1
	}
	if c.heap == nil {
		c.heap = make([]int32, len(c.seeds))
		for i := range c.heap {
			c.heap[i] = int32(i)
		}
		for i := len(c.heap)/2 - 1; i >= 0; i-- {
			c.down(i)
		}
	}
	weakest := int(c.heap[0])
	c.seeds[weakest] = s
	c.down(0)
	if c.max > SyncSeeds {
		// The evicted seed had the least gain of more than SyncSeeds
		// seeds. Whether or not its gain was among the best, SyncSeeds
		// of the others still hold the best gains, so only the new
		// seed's gain can enter them.
		c.rank(s.Gain)
		return weakest
	}
	c.best = [SyncSeeds]int{}
	for _, cs := range c.seeds {
		c.rank(cs.Gain)
	}
	return weakest
}

// weaker orders slots by (gain, slot).
func (c *Corpus) weaker(a, b int32) bool {
	ga, gb := c.seeds[a].Gain, c.seeds[b].Gain
	return ga < gb || ga == gb && a < b
}

// down sifts heap entry i down to its place.
func (c *Corpus) down(i int) {
	h := c.heap
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if r := j + 1; r < len(h) && c.weaker(h[r], h[j]) {
			j = r
		}
		if !c.weaker(h[j], h[i]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// rank enters gain among the best gains if it beats the weakest of them.
func (c *Corpus) rank(gain int) {
	for k := range c.best {
		if gain > c.best[k] {
			copy(c.best[k+1:], c.best[k:len(c.best)-1])
			c.best[k] = gain
			return
		}
	}
}

// ExportFloor is the SyncSeeds-th highest gain held (0 while the pool
// holds fewer seeds). Top(SyncSeeds) never picks a seed of lower
// gain, however its ties fall, and a seed below the floor stays below
// it for as long as the pool holds it: adding seeds only raises the
// floor, except by evicting a seed at the floor, and then the pool
// holds none below it. So a lease source whose mirror has the messages
// of every seed that reached the floor when it was added (and of every
// seed it imported) can serve every sync, whatever the sync imports.
func (c *Corpus) ExportFloor() int { return c.best[len(c.best)-1] }

// Top returns the indices of up to max of the highest-gain seeds,
// highest first. Ties keep the lower index at each pick (strict >
// comparison), so the set and order are deterministic functions of
// insertion order. The slice is the corpus's own scratch: it is valid
// until the next Top.
func (c *Corpus) Top(max int) []int {
	if max <= 0 || len(c.seeds) == 0 {
		return nil
	}
	idx := c.top[:0]
	for i := range c.seeds {
		idx = append(idx, i)
	}
	c.top = idx
	// Partial selection sort: top-gain seeds first.
	for i := 0; i < len(idx) && i < max; i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			if c.seeds[idx[j]].Gain > c.seeds[idx[best]].Gain {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	if len(idx) > max {
		idx = idx[:max]
	}
	return idx
}

// A Digest names a seed's content: the CRC-32C (Castagnoli) of its
// messages, each framed by its length as a big-endian u32, and the
// messages' byte total. A mirror keeps it for every seed, with or
// without the messages.
type Digest struct{ CRC, Size uint32 }

func (d Digest) String() string { return fmt.Sprintf("crc32c:%08x/%dB", d.CRC, d.Size) }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Digest returns the digest of s's messages, without allocating.
func (s Seed) Digest() Digest {
	var d Digest
	for _, m := range s.Msgs {
		d.CRC = crc32.Update(frameCRC(d.CRC, uint32(len(m))), castagnoli, m)
		d.Size += uint32(len(m))
	}
	return d
}

// frameCRC folds n, as four big-endian bytes, into crc, as crc32.Update
// would; a stack array handed to crc32.Update would escape.
func frameCRC(crc, n uint32) uint32 {
	crc = ^crc
	for shift := 24; shift >= 0; shift -= 8 {
		crc = castagnoli[byte(crc)^byte(n>>shift)] ^ crc>>8
	}
	return ^crc
}
