package parallel

import (
	"fmt"

	"cmfuzz/internal/fuzz"
)

// A Mirror is a lease source's copy of one instance's corpus: the same
// seeds in the same slots, placed by the same fuzz.Corpus, each with its
// digest (an addition's is the one its record carried, zero if the
// record never crossed the wire), but holding the messages only of the
// seeds a sync can export (fuzz.Corpus.ExportFloor): every import, and
// every addition whose record shipped it. The others are marked as
// holding none, because a seed may legitimately have no messages.
type Mirror struct {
	corpus *fuzz.Corpus
	digest []fuzz.Digest // per slot
	held   []bool        // per slot: whether the slot's messages are here
}

// NewMirror returns the mirror of a freshly booted instance's corpus.
func NewMirror() *Mirror { return &Mirror{corpus: fuzz.NewCorpus(0)} }

// Add files the addition of a lease record: its seed, digest, and
// whether the record shipped the messages. A shipped seed is kept as it
// is: in-process it is the engine's corpus seed, which nothing writes,
// and a decoded one owns its bytes (the lease result decoder copies
// them out of the frame).
func (m *Mirror) Add(s fuzz.Seed, d fuzz.Digest, shipped bool) {
	if !shipped {
		s.Msgs = nil
	}
	m.add(s, d, shipped)
}

// Import files seeds that arrive whole, a sync's imports, in order.
func (m *Mirror) Import(seeds []fuzz.Seed) {
	for _, s := range seeds {
		m.add(s, s.Digest(), true)
	}
}

func (m *Mirror) add(s fuzz.Seed, d fuzz.Digest, held bool) {
	k := m.corpus.Add(s)
	if k == len(m.digest) {
		m.digest, m.held = append(m.digest, d), append(m.held, held)
		return
	}
	m.digest[k], m.held[k] = d, held
}

// Len returns the number of seeds mirrored.
func (m *Mirror) Len() int { return m.corpus.Len() }

// Export returns the seeds a Top(max) of the instance's corpus picks. A
// seed it picks whose messages are not here is an error naming its
// digest and slot: no record shipped a seed that reached the export
// floor.
func (m *Mirror) Export(max int) ([]fuzz.Seed, error) {
	top := m.corpus.Top(max)
	out := make([]fuzz.Seed, len(top))
	for i, k := range top {
		if !m.held[k] {
			return nil, fmt.Errorf("exports seed %v (slot %d, gain %d), whose messages no lease record carried", m.digest[k], k, m.corpus.At(k).Gain)
		}
		out[i] = m.corpus.At(k)
	}
	return out, nil
}

// Diff returns the first slot at which m and o hold different seeds —
// gain or digest; whether the messages are held does not count — (the
// shorter one's length when one is a prefix of the other), or -1 when
// they hold the same seeds.
func (m *Mirror) Diff(o *Mirror) int {
	n := min(m.Len(), o.Len())
	for k := 0; k < n; k++ {
		if m.corpus.At(k).Gain != o.corpus.At(k).Gain || m.digest[k] != o.digest[k] {
			return k
		}
	}
	if m.Len() != o.Len() {
		return n
	}
	return -1
}
