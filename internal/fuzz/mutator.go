package fuzz

import (
	"bytes"
	"math/rand"
)

// A mutator transforms one message field, Peach-style. applies reports
// whether it can act on e and must not write e: it may be the data
// model's own element. mutate transforms e in place using randomness
// from r; it may write e's Value, Data and SizeBroken, while the relation
// names SizeOf and CountOf belong to the model. No mutator touches a
// Token field.
type mutator struct {
	applies func(e *Element) bool
	mutate  func(e *Element, r *rand.Rand)
}

// mutators is the mutation suite: numeric boundary and random values,
// size-relation corruption, string expansion/emptying/special tokens, and
// blob bit flips, truncation, duplication and insertion — the classic
// transformations the paper lists (§II-B). Its order is part of every
// campaign's rng stream.
var mutators = [...]mutator{
	{isNumber, numberBoundary},
	{isNumber, numberRandom},
	{isSized, sizeBreaker},
	{isString, stringRepeat},
	{isNonEmptyString, stringEmpty},
	{isString, stringSpecial},
	{isNonEmptyBytes, blobBitFlip},
	{isNonEmptyBytes, blobTruncate},
	{isDuplicable, blobDuplicate},
	{isBytes, blobInsert},
	{isNonEmptyBytes, blobRandomBytes},
}

// maxOps bounds the mutations MutateMessage applies to one message.
const maxOps = 3

func isNumber(e *Element) bool { return e.Kind == KindNumber && !e.Token }
func isSized(e *Element) bool  { return isNumber(e) && (e.SizeOf != "" || e.CountOf != "") }
func isString(e *Element) bool { return e.Kind == KindString && !e.Token }
func isBytes(e *Element) bool {
	return (e.Kind == KindString || e.Kind == KindBlob) && !e.Token
}
func isNonEmptyString(e *Element) bool { return isString(e) && len(e.Data) > 0 }
func isNonEmptyBytes(e *Element) bool  { return isBytes(e) && len(e.Data) > 0 }

// isDuplicable keeps blobDuplicate off fields of 64 KiB and more.
func isDuplicable(e *Element) bool { return isNonEmptyBytes(e) && len(e.Data) < 1<<16 }

func numberBoundary(e *Element, r *rand.Rand) {
	max := uint64(1)<<uint(e.Bits) - 1
	if e.Bits >= 64 || e.Bits == 0 {
		max = ^uint64(0)
	}
	boundaries := []uint64{0, 1, max, max - 1, max / 2, 127, 128, 255, 256, 65535}
	e.Value = boundaries[r.Intn(len(boundaries))]
	e.SizeBroken = e.SizeOf != "" || e.CountOf != ""
}

func numberRandom(e *Element, r *rand.Rand) {
	e.Value = r.Uint64()
	if e.Bits > 0 && e.Bits < 64 {
		e.Value &= uint64(1)<<uint(e.Bits) - 1
	}
	e.SizeBroken = e.SizeOf != "" || e.CountOf != ""
}

// sizeBreaker corrupts a size or count relation: the field keeps a stale
// or skewed value instead of being recomputed at serialization.
func sizeBreaker(e *Element, r *rand.Rand) {
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
// compounds: up to maxOps operations can land on one field of a message,
// each stringRepeat multiplying it by up to 512 (each blobDuplicate by up
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

func stringRepeat(e *Element, r *rand.Rand) {
	unit := e.Data
	if len(unit) == 0 {
		unit = []byte("A")
	}
	e.Data = bytes.Repeat(unit, fitCopies(len(unit), 1<<uint(1+r.Intn(9)))) // 2..512 copies
}

func stringEmpty(e *Element, _ *rand.Rand) { e.Data = nil }

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

// stringSpecial injects classic hostile payloads: traversal sequences,
// format strings, NUL bytes, overlong UTF-8 and separator floods.
func stringSpecial(e *Element, r *rand.Rand) {
	e.Data = append([]byte(nil), specialStrings[r.Intn(len(specialStrings))]...)
}

func blobBitFlip(e *Element, r *rand.Rand) {
	n := 1 + r.Intn(4)
	for i := 0; i < n; i++ {
		bit := r.Intn(len(e.Data) * 8)
		e.Data[bit/8] ^= 1 << uint(bit%8)
	}
}

func blobTruncate(e *Element, r *rand.Rand) {
	e.Data = e.Data[:r.Intn(len(e.Data))]
}

func blobDuplicate(e *Element, r *rand.Rand) {
	e.Data = bytes.Repeat(e.Data, fitCopies(len(e.Data), 2+r.Intn(4)))
}

func blobInsert(e *Element, r *rand.Rand) {
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

func blobRandomBytes(e *Element, r *rand.Rand) {
	n := 1 + r.Intn(len(e.Data))
	for i := 0; i < n; i++ {
		e.Data[r.Intn(len(e.Data))] = byte(r.Intn(256))
	}
}

// MutateMessage applies between 1 and maxOps random applicable mutations
// to msg and returns the number applied. A mutated leaf is the message's
// own copy; the model is never written.
func MutateMessage(msg *Message, r *rand.Rand) int {
	if len(msg.fields) == 0 {
		return 0
	}
	applied := 0
	ops := 1 + r.Intn(maxOps)
	for i := 0; i < ops; i++ {
		// Rejection-sample an applicable (field, mutator) pair.
		for try := 0; try < 16; try++ {
			k := r.Intn(len(msg.fields))
			m := &mutators[r.Intn(len(mutators))]
			if m.applies(msg.fields[k]) {
				m.mutate(msg.own(k), r)
				applied++
				break
			}
		}
	}
	return applied
}
