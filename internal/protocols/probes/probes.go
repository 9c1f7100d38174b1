// Package probes holds the small helpers the instrumented protocol
// subjects share: value bucketing and hashing for bounded-cardinality
// coverage states, and lenient config-value parsing.
package probes

import (
	"bytes"
	"strconv"
	"unsafe"
)

// Bucket maps a non-negative quantity to a logarithmic bucket (0..~32),
// so size-like values produce bounded coverage states.
func Bucket(n int) uint64 {
	if n <= 0 {
		return 0
	}
	b := uint64(1)
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// FNV-1a, 64-bit.
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// Hash returns a 64-bit FNV-1a hash of s. It hashes s's bytes in place
// with HashBytes, which never writes them.
func Hash(s string) uint64 {
	return HashBytes(unsafe.Slice(unsafe.StringData(s), len(s)))
}

// HashBytes returns a 64-bit FNV-1a hash of b: exactly the byte loop's
// value, but a long periodic run, which multiplying mutations make
// megabytes of, costs a compare of its bytes and the hashing of at most
// a few hundred copies of its unit (see repeat).
func HashBytes(b []byte) uint64 {
	if len(b) < runInput {
		return fnv(offset64, b)
	}
	return hashRuns(b)
}

// The run rule. HashBytes looks for runs only in inputs of runInput
// bytes or more, probing every probeStride bytes of non-run input for a
// probeWindow-byte window that recurs at most maxPeriod bytes on; a
// probe costs under a hundredth of hashing the stride. A run is taken
// when it holds from the probe for at least probeStride bytes, so no
// shorter input can hold one, and at that length the probes leave a
// random input within the byte loop's noise (BenchmarkHashBytes).
const (
	runInput    = probeStride
	probeStride = 4 << 10
	probeWindow = 32
	maxPeriod   = 64
	cmpChunk    = 1 << 10
)

// fnv hashes b into h byte by byte.
func fnv(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// hashRuns hashes b byte by byte except for the periodic runs its probes
// find, whose bytes are compared (memcmp speed) rather than hashed.
func hashRuns(b []byte) uint64 {
	h, done := uint64(offset64), 0 // b[:done] is hashed into h
	for at := 0; at+maxPeriod+probeWindow <= len(b); {
		if p := period(b[at : at+maxPeriod+probeWindow]); p > 0 {
			// b[at:end] repeats its first p bytes.
			if end := at + p + match(b[at:], b[at+p:]); end-at >= probeStride {
				k := (end - at) / p
				h = repeat(fnv(h, b[done:at]), b[at:at+p], k)
				done = at + k*p
				at = done
				continue
			}
		}
		at += probeStride
	}
	return fnv(h, b[done:])
}

// period returns the least p <= maxPeriod at which w's first probeWindow
// bytes recur, or 0. len(w) is maxPeriod+probeWindow.
func period(w []byte) int {
	return bytes.Index(w[1:], w[:probeWindow]) + 1
}

// match returns how many leading bytes a and b share.
func match(a, b []byte) int {
	n, i := min(len(a), len(b)), 0
	for i+cmpChunk <= n && bytes.Equal(a[i:i+cmpChunk], b[i:i+cmpChunk]) {
		i += cmpChunk
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// repeat returns h advanced over k copies of unit. In FNV-1a the xor of
// a byte c changes only h's low byte l, so (h^c)·P = h·P + ((l^c)−l)·P
// modulo 2^64: hashing any bytes S maps h to h·P^|S| + A_S(l), and since
// P is odd, l moves by a permutation of its 256 values. Starting from l,
// the low byte therefore comes back to l after some c <= 256 copies;
// those c copies mapped the starting h0 to h = h0·X + Y with X =
// P^(c·|unit|), so Y is known, and every further lap of c copies, which
// starts from the same low byte, applies the same affine map. Repeated
// squaring applies it for all whole laps at once; the copies left over
// are hashed. The result is the byte loop's, bit for bit.
func repeat(h uint64, unit []byte, k int) uint64 {
	h0, c := h, 0
	for c < k {
		h = fnv(h, unit)
		c++
		if byte(h) == byte(h0) {
			break
		}
	}
	if c == k {
		return h
	}
	x, _ := affinePow(prime64, 0, c*len(unit))
	a, d := affinePow(x, h-h0*x, (k-c)/c)
	h = h*a + d
	for r := (k - c) % c; r > 0; r-- {
		h = fnv(h, unit)
	}
	return h
}

// affinePow returns the map h -> h·a + d that applies h -> h·x + y q
// times, modulo 2^64.
func affinePow(x, y uint64, q int) (a, d uint64) {
	a = 1
	for ; q > 0; q >>= 1 {
		if q&1 == 1 {
			a, d = a*x, d*x+y
		}
		x, y = x*x, y*x+y
	}
	return a, d
}

// B converts a bool to a coverage state.
func B(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// Int parses a config integer leniently, returning def for missing or
// unparseable values.
func Int(cfg map[string]string, key string, def int) int {
	s, ok := cfg[key]
	if !ok || s == "" {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return def
	}
	return n
}

// Bool parses a config boolean leniently ("true"/"yes"/"on"/"1" are
// true, "false"/"no"/"off"/"0" are false), returning def otherwise.
func Bool(cfg map[string]string, key string, def bool) bool {
	s, ok := cfg[key]
	if !ok || s == "" {
		return def
	}
	switch s {
	case "true", "yes", "on", "1":
		return true
	case "false", "no", "off", "0":
		return false
	}
	return def
}

// Str reads a config string with a default.
func Str(cfg map[string]string, key, def string) string {
	if s, ok := cfg[key]; ok && s != "" {
		return s
	}
	return def
}
