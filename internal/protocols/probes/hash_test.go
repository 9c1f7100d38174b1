package probes

import (
	"fmt"
	"math/rand"
	"testing"
)

// fnvRef is the plain FNV-1a byte loop HashBytes must reproduce.
func fnvRef(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

func randBytes(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	r.Read(b)
	return b
}

// periodic returns head, then unit repeated to n bytes (a partial last
// copy included), then tail.
func periodic(head, unit []byte, n int, tail []byte) []byte {
	b := append([]byte{}, head...)
	for len(b) < len(head)+n {
		b = append(b, unit...)
	}
	b = b[:len(head)+n]
	return append(b, tail...)
}

func checkHash(t *testing.T, name string, b []byte) {
	t.Helper()
	want := fnvRef(b)
	if got := HashBytes(b); got != want {
		t.Errorf("%s (len %d): HashBytes = %#x, byte loop = %#x", name, len(b), got, want)
	}
	if got := Hash(string(b)); got != want {
		t.Errorf("%s (len %d): Hash = %#x, byte loop = %#x", name, len(b), got, want)
	}
}

func TestHashBytesMatchesFNV(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	unit16 := randBytes(r, 16)
	const n = runInput + 3*probeStride + 5

	t.Run("low bytes", func(t *testing.T) {
		// A one-byte prefix c sets the state's low byte to a bijective
		// function of c, and every later byte permutes it, so across c
		// the runs start from (almost) every low byte; the repeat
		// subtest covers all 256 exactly.
		for _, unit := range [][]byte{{'A'}, unit16, randBytes(r, 13), randBytes(r, maxPeriod)} {
			for c := 0; c < 256; c++ {
				checkHash(t, fmt.Sprintf("unit %d prefix %d", len(unit), c), periodic([]byte{byte(c)}, unit, n, nil))
			}
		}
	})

	t.Run("repeat", func(t *testing.T) {
		// The fast-forward itself, from every low byte and across the
		// lap boundaries (k near multiples of the cycle, at most 256).
		for _, ul := range []int{1, 2, 7, 16, 33} {
			unit := randBytes(r, ul)
			for l := 0; l < 256; l++ {
				h := uint64(r.Int63())<<8 | uint64(l)
				for _, k := range []int{0, 1, 2, 255, 256, 257, 513, 1000} {
					want := h
					for i := 0; i < k; i++ {
						want = fnv(want, unit)
					}
					if got := repeat(h, unit, k); got != want {
						t.Fatalf("repeat(%#x, %d-byte unit, %d) = %#x, want %#x", h, ul, k, got, want)
					}
				}
			}
		}
	})

	t.Run("unit lengths", func(t *testing.T) {
		for ul := 1; ul <= maxPeriod+1; ul++ {
			checkHash(t, fmt.Sprintf("unit %d", ul), periodic(randBytes(r, 7), randBytes(r, ul), n, randBytes(r, 9)))
		}
		// A unit made of a smaller period, and one byte throughout.
		checkHash(t, "aab unit", periodic(nil, []byte("aabaab"), n, nil))
		checkHash(t, "zeros", make([]byte, n))
	})

	t.Run("broken runs", func(t *testing.T) {
		base := periodic(nil, unit16, n, nil)
		cuts := []int{0, 1, probeStride - 1, probeStride, probeStride + 1, 2*probeStride + 17,
			n/2 + 3, n - probeStride - 1, n - probeStride, n - 40, n - 9, n - 1}
		for _, hl := range []int{1, 31, 95, 96, probeStride - 1, probeStride + 1} {
			checkHash(t, fmt.Sprintf("head %d", hl), append(randBytes(r, hl), base...))
		}
		for _, tl := range []int{1, 31, 97, probeStride + 1} {
			checkHash(t, fmt.Sprintf("tail %d", tl), append(append([]byte{}, base...), randBytes(r, tl)...))
		}
		for _, at := range cuts {
			ins := append(append(append([]byte{}, base[:at]...), randBytes(r, 8)...), base[at:]...)
			checkHash(t, fmt.Sprintf("insert at %d", at), ins)
			for _, bit := range []uint{0, 7} {
				flip := append([]byte{}, base...)
				flip[at] ^= 1 << bit
				checkHash(t, fmt.Sprintf("flip %d.%d", at, bit), flip)
			}
		}
		// Around the first compare-chunk boundaries, for a run found at
		// the first probe and one found at the second: a flip of every
		// byte, and a unit that changes in one byte from there on.
		for _, hl := range []int{0, 1} {
			in := append(randBytes(r, hl), base...)
			for _, c := range []int{cmpChunk, 2 * cmpChunk, probeStride + cmpChunk} {
				for at := c - 20; at < c+20; at++ {
					in[at] ^= 0x80
					checkHash(t, fmt.Sprintf("head %d flip %d", hl, at), in)
					in[at] ^= 0x80
					changed := append([]byte{}, in...)
					for x := at; x < len(changed); x += len(unit16) {
						changed[x] ^= 0x80
					}
					checkHash(t, fmt.Sprintf("head %d unit change at %d", hl, at), changed)
				}
			}
		}
		// Two runs of different units with non-run bytes between them.
		two := append(append(periodic(nil, unit16, n, randBytes(r, 300)), periodic(nil, []byte("xyz"), n, nil)...), randBytes(r, 5000)...)
		checkHash(t, "two runs", two)
	})

	t.Run("threshold", func(t *testing.T) {
		for _, l := range []int{runInput - 1, runInput, runInput + 1} {
			checkHash(t, fmt.Sprintf("periodic %d", l), periodic(nil, unit16, l, nil))
			checkHash(t, fmt.Sprintf("random %d", l), randBytes(r, l))
		}
		for l := 0; l < 300; l++ {
			checkHash(t, fmt.Sprintf("short %d", l), randBytes(r, l))
		}
	})
}

func FuzzHashBytes(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), uint32(8000), []byte("hd"), []byte("tl"), uint32(1<<20))
	f.Add([]byte{'A'}, uint32(runInput), []byte{}, []byte{}, uint32(8*probeStride))
	f.Add([]byte("xyz"), uint32(30000), []byte{}, []byte("tail"), uint32(0))
	f.Fuzz(func(t *testing.T, unit []byte, count uint32, head, tail []byte, flip uint32) {
		if len(unit) == 0 {
			unit = []byte{0}
		}
		count %= uint32(1<<19/len(unit) + 1) // inputs up to about 512 KiB
		b := append([]byte{}, head...)
		for i := uint32(0); i < count; i++ {
			b = append(b, unit...)
		}
		b = append(b, tail...)
		if int(flip/8) < len(b) {
			b[flip/8] ^= 1 << (flip % 8)
		}
		want := fnvRef(b)
		if got := HashBytes(b); got != want {
			t.Fatalf("HashBytes = %#x, byte loop = %#x", got, want)
		}
		if got := Hash(string(b)); got != want {
			t.Fatalf("Hash = %#x, byte loop = %#x", got, want)
		}
	})
}

// TestHashBytesAllocs: hashing a long run allocates nothing.
func TestHashBytesAllocs(t *testing.T) {
	b := periodic([]byte("head"), []byte("0123456789abcdef"), 1<<20, []byte("tail"))
	s := string(b)
	var sink uint64
	if n := testing.AllocsPerRun(20, func() { sink += HashBytes(b) + Hash(s) }); n != 0 {
		t.Fatalf("hashing a periodic 1 MiB input allocates %.1f objects, want 0", n)
	}
	_ = sink
}

var hashSink uint64

// BenchmarkHashBytes times HashBytes beside the byte loop it reproduces.
func BenchmarkHashBytes(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	inputs := []struct {
		name string
		in   []byte
	}{
		{"16B", randBytes(r, 16)},
		{"256B", randBytes(r, 256)},
		{"4KiB-random", randBytes(r, 4<<10)},
		{"4KiB-periodic", periodic([]byte("head"), randBytes(r, 16), 4<<10, []byte("tail"))},
		{"16KiB-random", randBytes(r, 16<<10)},
		{"16KiB-periodic", periodic([]byte("head"), randBytes(r, 16), 16<<10, []byte("tail"))},
		{"32KiB-random", randBytes(r, 32<<10)},
		{"32KiB-periodic", periodic([]byte("head"), randBytes(r, 16), 32<<10, []byte("tail"))},
		{"64KiB-random", randBytes(r, 64<<10)},
		{"1MiB-random", randBytes(r, 1<<20)},
		{"6MiB-periodic", periodic([]byte("head"), randBytes(r, 16), 6<<20, []byte("tail"))},
	}
	for _, in := range inputs {
		b.Run(in.name, func(b *testing.B) {
			b.SetBytes(int64(len(in.in)))
			for i := 0; i < b.N; i++ {
				hashSink += HashBytes(in.in)
			}
		})
		b.Run(in.name+"/loop", func(b *testing.B) {
			b.SetBytes(int64(len(in.in)))
			for i := 0; i < b.N; i++ {
				hashSink += fnvRef(in.in)
			}
		})
	}
}
