package coverage

import "testing"

// TestSeriesAtBoundaries pins At's step semantics at the exact edges:
// a query precisely at a sample's T returns that sample, a query any
// amount before the first sample returns 0, and queries between samples
// hold the earlier count.
func TestSeriesAtBoundaries(t *testing.T) {
	var s Series
	// First sample deliberately NOT at t=0, so "before first sample"
	// differs from "at zero".
	s.Observe(10, 7)
	s.Observe(30, 12)

	cases := []struct {
		t    float64
		want int
	}{
		{9.999999, 0}, // strictly before the first sample
		{10, 7},       // exactly at the first sample
		{10.000001, 7},
		{29.999999, 7}, // just before the second sample
		{30, 12},       // exactly at the second sample
		{1e12, 12},     // far beyond the last sample
		{0, 0},
		{-5, 0},
	}
	for _, c := range cases {
		if got := s.At(c.t); got != c.want {
			t.Errorf("At(%v) = %d, want %d", c.t, got, c.want)
		}
	}
}

// TestSeriesTimeToReachBoundaries pins TimeToReach at the edges: zero
// and negative targets take zero time even on an empty series, a target
// exactly equal to Final is reached at Final's sample time, and any
// target beyond Final reports unreached.
func TestSeriesTimeToReachBoundaries(t *testing.T) {
	var empty Series
	if tt, ok := empty.TimeToReach(0); !ok || tt != 0 {
		t.Fatalf("empty TimeToReach(0) = %v,%v", tt, ok)
	}
	if tt, ok := empty.TimeToReach(-3); !ok || tt != 0 {
		t.Fatalf("empty TimeToReach(-3) = %v,%v", tt, ok)
	}
	if _, ok := empty.TimeToReach(1); ok {
		t.Fatal("empty series claims to reach 1 edge")
	}

	var s Series
	s.Observe(10, 7)
	s.Observe(30, 12)
	if tt, ok := s.TimeToReach(7); !ok || tt != 10 {
		t.Fatalf("TimeToReach(first count) = %v,%v, want 10,true", tt, ok)
	}
	if tt, ok := s.TimeToReach(8); !ok || tt != 30 {
		t.Fatalf("TimeToReach(between counts) = %v,%v, want 30,true", tt, ok)
	}
	if tt, ok := s.TimeToReach(12); !ok || tt != 30 {
		t.Fatalf("TimeToReach(final count) = %v,%v, want 30,true", tt, ok)
	}
	if _, ok := s.TimeToReach(13); ok {
		t.Fatal("count beyond Final reported reached")
	}
}
