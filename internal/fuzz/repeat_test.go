package fuzz

import (
	"bytes"
	"math/rand"
	"testing"
)

// The eleven mutators as they were before a grown field kept a repeat
// count, kept as the reference the suite must match draw for draw and
// byte for byte: every repeat written out at once with bytes.Repeat, and
// every new payload taken from the heap.
var eagerMutators = [...]struct {
	applies func(e *Element) bool
	mutate  func(e *Element, r *rand.Rand)
}{
	{isNumber, func(e *Element, r *rand.Rand) { numberBoundary(e, nil, r) }},
	{isNumber, func(e *Element, r *rand.Rand) { numberRandom(e, nil, r) }},
	{isSized, func(e *Element, r *rand.Rand) { sizeBreaker(e, nil, r) }},
	{isString, eagerStringRepeat},
	{eagerNonEmptyString, func(e *Element, _ *rand.Rand) { e.Data = nil }},
	{isString, func(e *Element, r *rand.Rand) {
		e.Data = append([]byte(nil), specialStrings[r.Intn(len(specialStrings))]...)
	}},
	{eagerNonEmptyBytes, eagerBlobBitFlip},
	{eagerNonEmptyBytes, func(e *Element, r *rand.Rand) { e.Data = e.Data[:r.Intn(len(e.Data))] }},
	{eagerDuplicable, func(e *Element, r *rand.Rand) {
		e.Data = bytes.Repeat(e.Data, fitCopies(len(e.Data), 2+r.Intn(4)))
	}},
	{isBytes, eagerBlobInsert},
	{eagerNonEmptyBytes, eagerBlobRandomBytes},
}

func eagerNonEmptyString(e *Element) bool { return isString(e) && len(e.Data) > 0 }
func eagerNonEmptyBytes(e *Element) bool  { return isBytes(e) && len(e.Data) > 0 }
func eagerDuplicable(e *Element) bool     { return eagerNonEmptyBytes(e) && len(e.Data) < 1<<16 }

func eagerStringRepeat(e *Element, r *rand.Rand) {
	unit := e.Data
	if len(unit) == 0 {
		unit = []byte("A")
	}
	e.Data = bytes.Repeat(unit, fitCopies(len(unit), 1<<uint(1+r.Intn(9))))
}

func eagerBlobBitFlip(e *Element, r *rand.Rand) {
	n := 1 + r.Intn(4)
	for i := 0; i < n; i++ {
		bit := r.Intn(len(e.Data) * 8)
		e.Data[bit/8] ^= 1 << uint(bit%8)
	}
}

func eagerBlobInsert(e *Element, r *rand.Rand) {
	insert := make([]byte, 1+r.Intn(8))
	for i := range insert {
		insert[i] = byte(r.Intn(256))
	}
	pos := 0
	if len(e.Data) > 0 {
		pos = r.Intn(len(e.Data) + 1)
	}
	out := make([]byte, 0, len(e.Data)+len(insert))
	out = append(out, e.Data[:pos]...)
	out = append(out, insert...)
	out = append(out, e.Data[pos:]...)
	e.Data = out
}

func eagerBlobRandomBytes(e *Element, r *rand.Rand) {
	n := 1 + r.Intn(len(e.Data))
	for i := 0; i < n; i++ {
		e.Data[r.Intn(len(e.Data))] = byte(r.Intn(256))
	}
}

// lazyShapes are the fields the chains start from: empty, short and
// near-64-KiB Strings and Blobs, and Numbers with and without a relation.
func lazyShapes() []*Element {
	return []*Element{
		Str("s", "ab"),
		Str("empty", ""),
		Str("long", string(bytes.Repeat([]byte("xyz"), 7000))),
		Blob("b", []byte{1, 2, 3}),
		Blob("nil", nil),
		Blob("wide", make([]byte, 30000)),
		Num("n", 16, 7),
		SizeOf("len", 8, "s"),
	}
}

// The mutators that multiply a field and those that write its bytes, by
// index in mutators.
var (
	repeatOps = []int{3, 8}
	writeOps  = map[int]bool{6: true, 7: true, 9: true, 10: true}
)

// checkLazyChain applies the mutators ops names, in order, to two copies
// of shape: the suite's, its Data copied into a as a message's own leaf
// is, and the eager reference's. The two must agree on which apply, on
// the field's length after each and on the rng draw that follows, and on
// the field's bytes at the end. It counts the repeats that landed on a
// repeated field and the byte writes that followed a repeat.
func checkLazyChain(t testing.TB, shape *Element, a *Arena, seed int64, ops []int) (stacked, written int) {
	t.Helper()
	lazy, eager := *shape, *shape
	lazy.Data, eager.Data = a.copyBytes(shape.Data), bytes.Clone(shape.Data)
	rl, re := testRandSeed(seed), testRandSeed(seed)
	for step, op := range ops {
		m, ref := &mutators[op], &eagerMutators[op]
		applies := m.applies(&lazy)
		if applies != ref.applies(&eager) {
			t.Fatalf("%s seed %d step %d: mutator %d applies %v to the %d-byte field, the eager reference %v", shape.Name, seed, step, op, applies, lazy.dataLen(), !applies)
		}
		if !applies {
			continue
		}
		if lazy.repeat > 1 {
			if op == repeatOps[0] || op == repeatOps[1] {
				stacked++
			}
			if writeOps[op] {
				written++
			}
		}
		m.mutate(&lazy, a, rl)
		ref.mutate(&eager, re)
		if got, want := leafLen(&lazy), leafLen(&eager); got != want {
			t.Fatalf("%s seed %d step %d: mutator %d left %d bytes, the eager reference %d", shape.Name, seed, step, op, got, want)
		}
		if rl.Int63() != re.Int63() {
			t.Fatalf("%s seed %d step %d: mutator %d left the rng elsewhere than the eager reference", shape.Name, seed, step, op)
		}
	}
	if got, want := appendLeaf(nil, &lazy), appendLeaf(nil, &eager); !bytes.Equal(got, want) || lazy.Value != eager.Value || lazy.SizeBroken != eager.SizeBroken {
		t.Fatalf("%s seed %d after %v: %d bytes (value %d) differ from the eager reference's %d (value %d)", shape.Name, seed, ops, len(got), lazy.Value, len(want), eager.Value)
	}
	return stacked, written
}

// TestLazyRepeatMatchesEager: random chains of mutators — half of them a
// repeat, so repeats stack and byte writes land on repeated fields — give
// every field shape the eager reference's bytes and leave the rng where
// it leaves it.
func TestLazyRepeatMatchesEager(t *testing.T) {
	shapes := lazyShapes()
	a := NewArena()
	pick := testRandSeed(53)
	stacked, written := 0, 0
	for seed := int64(0); seed < 400; seed++ {
		a.Reset()
		ops := make([]int, 1+pick.Intn(8))
		for i := range ops {
			if pick.Intn(2) == 0 {
				ops[i] = repeatOps[pick.Intn(len(repeatOps))]
			} else {
				ops[i] = pick.Intn(len(mutators))
			}
		}
		s, w := checkLazyChain(t, shapes[seed%int64(len(shapes))], a, seed, ops)
		stacked += s
		written += w
	}
	if stacked == 0 || written == 0 {
		t.Fatalf("the chains stacked %d repeats and wrote %d repeated fields; want both", stacked, written)
	}
}

// FuzzLazyRepeatMatchesEager extends TestLazyRepeatMatchesEager to any
// chain: each byte of ops names a mutator.
func FuzzLazyRepeatMatchesEager(f *testing.F) {
	f.Add(uint8(0), int64(1), []byte{3, 3, 6})
	f.Add(uint8(3), int64(2), []byte{8, 8, 9, 7})
	f.Add(uint8(1), int64(3), []byte{3, 8, 10, 4, 5, 3})
	f.Add(uint8(6), int64(4), []byte{0, 1, 2})
	f.Fuzz(func(t *testing.T, shape uint8, seed int64, ops []byte) {
		shapes := lazyShapes()
		chain := make([]int, 0, 12)
		for _, op := range ops[:min(len(ops), cap(chain))] {
			chain = append(chain, int(op)%len(mutators))
		}
		checkLazyChain(t, shapes[int(shape)%len(shapes)], NewArena(), seed, chain)
	})
}
