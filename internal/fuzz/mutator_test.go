package fuzz

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestMutatorApplicability pins the suite's order and each entry's
// predicate on every element shape the predicates tell apart: an entry
// moved, or a predicate loosened or tightened, changes which mutations a
// seed's rng stream lands on. No entry applies to a token.
func TestMutatorApplicability(t *testing.T) {
	tokStr := Str("t", "MAGIC")
	tokStr.Token = true
	shapes := []*Element{
		Num("plain", 8, 5),
		SizeOf("len", 16, "body"),
		Token("magic", 8, 0x7f),
		Str("empty", ""),
		Str("s", "ab"),
		tokStr,
		Blob("empty", nil),
		Blob("b", []byte{1, 2}),
		Blob("big", make([]byte, 1<<16)),
	}
	// One column per shape above, in order; x marks the shapes an entry
	// applies to.
	want := []struct{ mutate, applies string }{
		{"numberBoundary", "xx......."},
		{"numberRandom", "xx......."},
		{"sizeBreaker", ".x......."},
		{"stringRepeat", "...xx...."},
		{"stringEmpty", "....x...."},
		{"stringSpecial", "...xx...."},
		{"blobBitFlip", "....x..xx"},
		{"blobTruncate", "....x..xx"},
		{"blobDuplicate", "....x..x."},
		{"blobInsert", "...xx.xxx"},
		{"blobRandomBytes", "....x..xx"},
	}
	if len(mutators) != len(want) {
		t.Fatalf("%d mutators, want %d", len(mutators), len(want))
	}
	for i, m := range mutators {
		name := runtime.FuncForPC(reflect.ValueOf(m.mutate).Pointer()).Name()
		if !strings.HasSuffix(name, "."+want[i].mutate) {
			t.Errorf("mutator %d is %s, want %s", i, name, want[i].mutate)
			continue
		}
		for j, e := range shapes {
			if got := m.applies(e); got != (want[i].applies[j] == 'x') {
				t.Errorf("%s applies to %s (%d bytes): %v, want %v", want[i].mutate, e.Name, len(e.Data), got, !got)
			}
		}
	}
}

func TestNumberBoundaryStaysInWidth(t *testing.T) {
	r := testRand()
	e := Num("n", 8, 5)
	for i := 0; i < 100; i++ {
		numberBoundary(e, nil, r)
		// Boundary values may exceed the width on purpose (over-wide
		// constants get truncated at serialization); serialization must
		// still produce exactly one byte.
		buf := appendNumber(nil, e)
		if len(buf) != 1 {
			t.Fatalf("8-bit number serialized to %d bytes", len(buf))
		}
	}
}

func TestNumberRandomMasksWidth(t *testing.T) {
	r := testRand()
	e := Num("n", 16, 0)
	for i := 0; i < 100; i++ {
		numberRandom(e, nil, r)
		if e.Value > 0xffff {
			t.Fatalf("16-bit random value %#x exceeds width", e.Value)
		}
	}
}

func TestSizeBreakerOnlyAppliesToRelations(t *testing.T) {
	if isSized(Num("plain", 8, 0)) {
		t.Fatal("sizeBreaker applicable to plain number")
	}
	rel := SizeOf("len", 16, "body")
	if !isSized(rel) {
		t.Fatal("sizeBreaker not applicable to size field")
	}
	sizeBreaker(rel, nil, testRand())
	if !rel.SizeBroken {
		t.Fatal("sizeBreaker did not mark relation broken")
	}
}

func TestStringMutators(t *testing.T) {
	r := testRand()

	e := Str("s", "ab")
	stringRepeat(e, nil, r)
	if got := fieldBytes(e); len(got) < 4 || len(got)%2 != 0 {
		t.Fatalf("StringRepeat produced %d bytes", len(got))
	}

	e = Str("s", "ab")
	stringEmpty(e, nil, r)
	if len(fieldBytes(e)) != 0 {
		t.Fatal("StringEmpty left data")
	}
	if isNonEmptyString(e) {
		t.Fatal("StringEmpty applicable to already-empty string")
	}

	e = Str("s", "ab")
	stringSpecial(e, nil, r)
	found := false
	for _, sp := range specialStrings {
		if string(fieldBytes(e)) == string(sp) {
			found = true
		}
	}
	if !found {
		t.Fatalf("StringSpecial produced unexpected %q", fieldBytes(e))
	}
}

func TestBlobMutators(t *testing.T) {
	r := testRand()

	e := Blob("b", []byte{0, 0, 0, 0})
	blobBitFlip(e, nil, r)
	nonzero := false
	for _, b := range e.Data {
		if b != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("BlobBitFlip changed nothing")
	}

	e = Blob("b", []byte{1, 2, 3, 4})
	blobTruncate(e, nil, r)
	if len(e.Data) >= 4 {
		t.Fatalf("BlobTruncate len = %d", len(e.Data))
	}

	e = Blob("b", []byte{1, 2})
	blobDuplicate(e, nil, r)
	if got := fieldBytes(e); len(got) < 4 || len(got)%2 != 0 {
		t.Fatalf("BlobDuplicate len = %d", len(got))
	}

	e = Blob("b", nil)
	blobInsert(e, nil, r)
	if len(e.Data) == 0 {
		t.Fatal("BlobInsert into empty blob added nothing")
	}
}

func TestMutateMessageAppliesAtLeastOne(t *testing.T) {
	m := &DataModel{Name: "m", Root: Block("root",
		Token("type", 8, 0x10),
		Num("flags", 8, 0),
		Str("id", "client"),
	)}
	r := testRand()
	changed := 0
	for i := 0; i < 50; i++ {
		msg := m.NewMessage(r)
		before := append([]byte(nil), msg.Serialize()...)
		if MutateMessage(msg, r) == 0 {
			continue
		}
		after := msg.Serialize()
		if string(before) != string(after) {
			changed++
		}
		// The token byte must always survive.
		if after[0] != 0x10 {
			t.Fatalf("token byte mutated: %x", after)
		}
	}
	if changed < 25 {
		t.Fatalf("mutation changed output only %d/50 times", changed)
	}
}

func TestMutateMessageTokenOnlyModel(t *testing.T) {
	m := &DataModel{Name: "m", Root: Block("root", Token("t", 8, 1))}
	msg := m.NewMessage(testRand())
	if got := MutateMessage(msg, testRand()); got != 0 {
		t.Fatalf("applied %d mutations to token-only message", got)
	}
}

func TestMutatorsDeterministicPerSeed(t *testing.T) {
	build := func() []byte {
		m := &DataModel{Name: "m", Root: Block("root",
			Num("a", 16, 7), Str("s", "xyz"), Blob("b", []byte{9, 9, 9}),
		)}
		r := rand.New(rand.NewSource(99))
		msg := m.NewMessage(r)
		MutateMessage(msg, r)
		return msg.Serialize()
	}
	a, b := build(), build()
	if string(a) != string(b) {
		t.Fatal("mutation not deterministic for fixed seed")
	}
}

// TestMutatorsBoundFieldGrowth: the two multiplying mutators compound —
// three StringRepeats on one field are up to ×512³ — so what they may
// grow a field to is clamped at maxFieldLen. The clamp lowers the drawn
// count and nothing else: every output that fits is the unclamped one and
// the rng is left where it always was.
func TestMutatorsBoundFieldGrowth(t *testing.T) {
	for seed := int64(0); seed < 64; seed++ {
		r, ref := testRandSeed(seed), testRandSeed(seed)
		s := Str("s", "abc")
		stringRepeat(s, nil, r)
		if want := bytes.Repeat([]byte("abc"), 1<<uint(1+ref.Intn(9))); !bytes.Equal(fieldBytes(s), want) {
			t.Fatalf("seed %d: StringRepeat of a small field gave %d bytes, want the unclamped %d", seed, len(fieldBytes(s)), len(want))
		}
		b := Blob("b", []byte{1, 2, 3, 4})
		blobDuplicate(b, nil, r)
		if want := bytes.Repeat([]byte{1, 2, 3, 4}, 2+ref.Intn(4)); !bytes.Equal(fieldBytes(b), want) {
			t.Fatalf("seed %d: BlobDuplicate of a small field gave %d bytes, want the unclamped %d", seed, len(fieldBytes(b)), len(want))
		}
		if r.Int63() != ref.Int63() {
			t.Fatalf("seed %d: the mutators drew a different number of values than before the clamp", seed)
		}
	}

	// Compounded to the limit, a field stops at the bound and stays a
	// whole number of copies of what it was.
	r := testRandSeed(1)
	s := Str("s", strings.Repeat("x", 48))
	for i := 0; i < 12; i++ {
		before := len(fieldBytes(s))
		stringRepeat(s, nil, r)
		if after := len(fieldBytes(s)); after > maxFieldLen || after < before || after%before != 0 {
			t.Fatalf("StringRepeat %d: %d bytes -> %d, bound %d", i, before, after, maxFieldLen)
		}
	}
	if len(fieldBytes(s)) <= maxFieldLen/2 {
		t.Fatalf("twelve StringRepeats stopped at %d bytes, want the field grown to within a copy of the %d bound", len(fieldBytes(s)), maxFieldLen)
	}
	// blobDuplicate's predicate keeps it off fields this large; the bound
	// holds for a caller that does not ask first, and an empty field is
	// still nothing to copy.
	blobDuplicate(s, nil, r)
	if n := len(fieldBytes(s)); n > maxFieldLen {
		t.Fatalf("BlobDuplicate grew a field at the bound to %d bytes", n)
	}
	empty := Blob("e", nil)
	blobDuplicate(empty, nil, r)
	if n := len(fieldBytes(empty)); n != 0 {
		t.Fatalf("BlobDuplicate of an empty field gave %d bytes", n)
	}
}

// fieldBytes is a String or Blob field's bytes as they go on the wire:
// its Data, repeated.
func fieldBytes(e *Element) []byte { return appendLeaf(nil, e) }
