package fuzz

import "math/rand"

// A Mutator transforms one message field, Peach-style. Mutators never
// touch Token fields.
type Mutator interface {
	// Name identifies the mutator in statistics.
	Name() string
	// Applicable reports whether the mutator can act on e. It must not
	// write e: it may be the data model's own element.
	Applicable(e *Element) bool
	// Mutate transforms e in place using randomness from r. It may write
	// e's Value, Data and SizeBroken; the relation names SizeOf and
	// CountOf belong to the model.
	Mutate(e *Element, r *rand.Rand)
}

// DefaultMutators returns the standard mutator suite: numeric boundary and
// random values, size-relation corruption, string expansion/emptying/
// special tokens, and blob bit flips, truncation, duplication and
// insertion — the classic transformations the paper lists (§II-B).
func DefaultMutators() []Mutator {
	return []Mutator{
		numberBoundary{},
		numberRandom{},
		sizeBreaker{},
		stringRepeat{},
		stringEmpty{},
		stringSpecial{},
		blobBitFlip{},
		blobTruncate{},
		blobDuplicate{},
		blobInsert{},
		blobRandomBytes{},
	}
}

func isNumber(e *Element) bool { return e.Kind == KindNumber && !e.Token }
func isBytes(e *Element) bool {
	return (e.Kind == KindString || e.Kind == KindBlob) && !e.Token
}

type numberBoundary struct{}

func (numberBoundary) Name() string               { return "NumberBoundary" }
func (numberBoundary) Applicable(e *Element) bool { return isNumber(e) }
func (numberBoundary) Mutate(e *Element, r *rand.Rand) {
	max := uint64(1)<<uint(e.Bits) - 1
	if e.Bits >= 64 || e.Bits == 0 {
		max = ^uint64(0)
	}
	boundaries := []uint64{0, 1, max, max - 1, max / 2, 127, 128, 255, 256, 65535}
	e.Value = boundaries[r.Intn(len(boundaries))]
	e.SizeBroken = e.SizeOf != "" || e.CountOf != ""
}

type numberRandom struct{}

func (numberRandom) Name() string               { return "NumberRandom" }
func (numberRandom) Applicable(e *Element) bool { return isNumber(e) }
func (numberRandom) Mutate(e *Element, r *rand.Rand) {
	e.Value = r.Uint64()
	if e.Bits > 0 && e.Bits < 64 {
		e.Value &= uint64(1)<<uint(e.Bits) - 1
	}
	e.SizeBroken = e.SizeOf != "" || e.CountOf != ""
}

// sizeBreaker corrupts a size or count relation: the field keeps a stale
// or skewed value instead of being recomputed at serialization.
type sizeBreaker struct{}

func (sizeBreaker) Name() string { return "SizeRelationBreak" }
func (sizeBreaker) Applicable(e *Element) bool {
	return isNumber(e) && (e.SizeOf != "" || e.CountOf != "")
}
func (sizeBreaker) Mutate(e *Element, r *rand.Rand) {
	e.SizeBroken = true
	switch r.Intn(4) {
	case 0:
		e.Value = 0
	case 1:
		e.Value = e.Value + 1 + uint64(r.Intn(16))
	case 2:
		if e.Value > 0 {
			e.Value--
		}
	default:
		e.Value = uint64(r.Intn(70000))
	}
}

// maxFieldLen bounds what a mutator may grow a field to. Growth
// compounds: up to three operations can land on one field of a message,
// each StringRepeat multiplying it by up to 512 (each BlobDuplicate by up
// to 5), and the engine then copies the field into the message buffer
// and the corpus — unbounded, one CoAP campaign held 1.7 GB in a single
// string and its copies. The count is drawn as ever and only then
// lowered, so the rng stream and every output that fits are what they
// were.
const maxFieldLen = 16 << 20

// fitCopies lowers copies until that many of a unit-byte field fit
// maxFieldLen, never below one.
func fitCopies(unit, copies int) int {
	return max(1, min(copies, maxFieldLen/max(unit, 1)))
}

type stringRepeat struct{}

func (stringRepeat) Name() string { return "StringRepeat" }
func (stringRepeat) Applicable(e *Element) bool {
	return e.Kind == KindString && !e.Token
}
func (stringRepeat) Mutate(e *Element, r *rand.Rand) {
	unit := e.Data
	if len(unit) == 0 {
		unit = []byte("A")
	}
	reps := fitCopies(len(unit), 1<<uint(1+r.Intn(9))) // 2..512 copies
	out := make([]byte, 0, len(unit)*reps)
	for i := 0; i < reps; i++ {
		out = append(out, unit...)
	}
	e.Data = out
}

type stringEmpty struct{}

func (stringEmpty) Name() string { return "StringEmpty" }
func (stringEmpty) Applicable(e *Element) bool {
	return e.Kind == KindString && !e.Token && len(e.Data) > 0
}
func (stringEmpty) Mutate(e *Element, r *rand.Rand) { e.Data = nil }

// stringSpecial injects classic hostile payloads: traversal sequences,
// format strings, NUL bytes, overlong UTF-8 and separator floods.
type stringSpecial struct{}

var specialStrings = [][]byte{
	[]byte("../../../../etc/passwd"),
	[]byte("%s%s%s%s%n"),
	[]byte("\x00"),
	[]byte("\xff\xfe\xfd"),
	[]byte("////////"),
	[]byte("$(reboot)"),
	[]byte("AAAA%x%x%x"),
	[]byte("\"'<>&;"),
}

func (stringSpecial) Name() string { return "StringSpecial" }
func (stringSpecial) Applicable(e *Element) bool {
	return e.Kind == KindString && !e.Token
}
func (stringSpecial) Mutate(e *Element, r *rand.Rand) {
	e.Data = append([]byte(nil), specialStrings[r.Intn(len(specialStrings))]...)
}

type blobBitFlip struct{}

func (blobBitFlip) Name() string { return "BlobBitFlip" }
func (blobBitFlip) Applicable(e *Element) bool {
	return isBytes(e) && len(e.Data) > 0
}
func (blobBitFlip) Mutate(e *Element, r *rand.Rand) {
	n := 1 + r.Intn(4)
	for i := 0; i < n; i++ {
		bit := r.Intn(len(e.Data) * 8)
		e.Data[bit/8] ^= 1 << uint(bit%8)
	}
}

type blobTruncate struct{}

func (blobTruncate) Name() string { return "BlobTruncate" }
func (blobTruncate) Applicable(e *Element) bool {
	return isBytes(e) && len(e.Data) > 0
}
func (blobTruncate) Mutate(e *Element, r *rand.Rand) {
	e.Data = e.Data[:r.Intn(len(e.Data))]
}

type blobDuplicate struct{}

func (blobDuplicate) Name() string { return "BlobDuplicate" }
func (blobDuplicate) Applicable(e *Element) bool {
	return isBytes(e) && len(e.Data) > 0 && len(e.Data) < 1<<16
}
func (blobDuplicate) Mutate(e *Element, r *rand.Rand) {
	copies := fitCopies(len(e.Data), 2+r.Intn(4))
	out := append([]byte(nil), e.Data...)
	for i := 1; i < copies; i++ {
		out = append(out, e.Data...)
	}
	e.Data = out
}

type blobInsert struct{}

func (blobInsert) Name() string               { return "BlobInsert" }
func (blobInsert) Applicable(e *Element) bool { return isBytes(e) }
func (blobInsert) Mutate(e *Element, r *rand.Rand) {
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

type blobRandomBytes struct{}

func (blobRandomBytes) Name() string { return "BlobRandomBytes" }
func (blobRandomBytes) Applicable(e *Element) bool {
	return isBytes(e) && len(e.Data) > 0
}
func (blobRandomBytes) Mutate(e *Element, r *rand.Rand) {
	n := 1 + r.Intn(len(e.Data))
	for i := 0; i < n; i++ {
		e.Data[r.Intn(len(e.Data))] = byte(r.Intn(256))
	}
}

// MutateMessage applies between 1 and maxOps random applicable mutations
// to msg and returns the number applied. A mutated leaf is the message's
// own copy; the model is never written.
func MutateMessage(msg *Message, mutators []Mutator, r *rand.Rand, maxOps int) int {
	if len(msg.fields) == 0 || len(mutators) == 0 {
		return 0
	}
	if maxOps < 1 {
		maxOps = 1
	}
	applied := 0
	ops := 1 + r.Intn(maxOps)
	for i := 0; i < ops; i++ {
		// Rejection-sample an applicable (field, mutator) pair.
		for try := 0; try < 16; try++ {
			k := r.Intn(len(msg.fields))
			m := mutators[r.Intn(len(mutators))]
			if m.Applicable(msg.fields[k]) {
				m.Mutate(msg.own(k), r)
				applied++
				break
			}
		}
	}
	return applied
}
