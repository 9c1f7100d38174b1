package coverage

import "sort"

// A Point is one sample of a coverage time series: at virtual time T
// (seconds since campaign start) the cumulative branch count was Count.
type Point struct {
	T     float64
	Count int
}

// A Series records cumulative coverage over virtual time. Samples are
// appended in nondecreasing time order; redundant samples (no growth) are
// collapsed so long campaigns stay compact. The zero value is ready to use.
type Series struct {
	pts []Point
}

// Observe appends a sample. Samples must arrive with nondecreasing T and
// nondecreasing Count; Observe keeps only samples that change the count,
// plus the very first one.
func (s *Series) Observe(t float64, count int) {
	if n := len(s.pts); n > 0 && s.pts[n-1].Count == count {
		return
	}
	s.pts = append(s.pts, Point{T: t, Count: count})
}

// Points returns the retained samples in time order. The returned slice
// aliases internal storage and must not be modified.
func (s *Series) Points() []Point { return s.pts }

// At returns the coverage in effect at virtual time t (step semantics:
// the count of the latest sample with T <= t). It returns 0 before the
// first sample.
func (s *Series) At(t float64) int {
	i := sort.Search(len(s.pts), func(i int) bool { return s.pts[i].T > t })
	if i == 0 {
		return 0
	}
	return s.pts[i-1].Count
}

// TimeToReach returns the earliest virtual time at which the series reached
// at least count edges, and whether it ever did. Reaching zero coverage
// takes zero time.
func (s *Series) TimeToReach(count int) (float64, bool) {
	if count <= 0 {
		return 0, true
	}
	i := sort.Search(len(s.pts), func(i int) bool { return s.pts[i].Count >= count })
	if i == len(s.pts) {
		return 0, false
	}
	return s.pts[i].T, true
}

// MeanOf averages several series point-wise at n evenly spaced times across
// [0, horizon] — the "average of 5 repetitions" aggregation the paper uses.
// It returns nil if series is empty.
func MeanOf(series []*Series, horizon float64, n int) []Point {
	if len(series) == 0 {
		return nil
	}
	out := make([]Point, n)
	for i := range out {
		t := horizon * float64(i) / float64(n-1)
		sum := 0
		for _, s := range series {
			sum += s.At(t)
		}
		out[i] = Point{T: t, Count: sum / len(series)}
	}
	return out
}

// minGainFrac scales the progress threshold with the current count: the
// effective threshold is max(MinGain, minGainFrac·count). Wide
// hash-family instrumentation trickles a near-constant share of its size
// long after a configuration is effectively exhausted.
const minGainFrac = 0.01

// A Saturation detector reports when coverage has stopped growing for a
// configured window of virtual time. CMFuzz instances consult it to decide
// when to mutate configuration values (paper §III-B2: mutations are applied
// "only if the current instance's coverage has reached saturation").
type Saturation struct {
	// Window is how long coverage must stay flat to count as saturated.
	Window float64
	// MinGain is the growth (in edges) since the last recorded gain that
	// counts as progress; smaller trickles are treated as flat. The zero
	// value means any growth counts.
	MinGain int

	lastGain  float64
	lastCount int
	started   bool
}

// Observe feeds the current virtual time and cumulative coverage count.
func (s *Saturation) Observe(t float64, count int) {
	minGain := s.MinGain
	if frac := int(minGainFrac * float64(s.lastCount)); frac > minGain {
		minGain = frac
	}
	if minGain < 1 {
		minGain = 1
	}
	if !s.started || count >= s.lastCount+minGain {
		s.lastGain = t
		s.lastCount = count
		s.started = true
	}
}

// Saturated reports whether coverage has been flat for at least Window
// as of virtual time t.
func (s *Saturation) Saturated(t float64) bool {
	return s.started && t-s.lastGain >= s.Window
}

// Reset restarts the detector, typically after a configuration mutation
// opens a new region of the program.
func (s *Saturation) Reset(t float64) {
	s.lastGain = t
	s.lastCount = -1
	s.started = false
}
