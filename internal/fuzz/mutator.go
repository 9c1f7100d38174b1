package fuzz

import "math/rand"

// A mutator transforms one message field, Peach-style. applies reports
// whether it can act on e and must not write e: it may be the data
// model's own element. mutate transforms e in place using randomness
// from r; it may write e's Value, Data, repeat count and SizeBroken,
// while the relation names SizeOf and CountOf belong to the model. A new
// payload comes from a (the heap when a is nil), so it lives until the
// arena's next Reset. No mutator touches a Token field.
type mutator struct {
	applies func(e *Element) bool
	mutate  func(e *Element, a *Arena, r *rand.Rand)
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

// A plan's mask holds a bit per mutator; this fails to compile when the
// suite outgrows a uint16.
const _ = uint16(1<<len(mutators) - 1)

// applyMask is the set of mutators whose kind, token and relation tests
// e passes: each predicate asked of e with a one-byte payload, a length
// every length test accepts. No mutator writes a leaf's kind, token or
// relation names, so a mutator outside the mask never applies to the
// leaf, whatever a message writes into it; one inside still asks its
// predicate.
func applyMask(e *Element) uint16 {
	probe := *e
	probe.Data, probe.repeat = unitA, 0
	var mask uint16
	for i := range mutators {
		if mutators[i].applies(&probe) {
			mask |= 1 << i
		}
	}
	return mask
}

func isNumber(e *Element) bool { return e.Kind == KindNumber && !e.Token }
func isSized(e *Element) bool  { return isNumber(e) && (e.SizeOf != "" || e.CountOf != "") }
func isString(e *Element) bool { return e.Kind == KindString && !e.Token }
func isBytes(e *Element) bool {
	return (e.Kind == KindString || e.Kind == KindBlob) && !e.Token
}
func isNonEmptyString(e *Element) bool { return isString(e) && e.dataLen() > 0 }
func isNonEmptyBytes(e *Element) bool  { return isBytes(e) && e.dataLen() > 0 }

// isDuplicable keeps blobDuplicate off fields of 64 KiB and more.
func isDuplicable(e *Element) bool { return isNonEmptyBytes(e) && e.dataLen() < 1<<16 }

func numberBoundary(e *Element, _ *Arena, r *rand.Rand) {
	max := uint64(1)<<uint(e.Bits) - 1
	if e.Bits >= 64 || e.Bits == 0 {
		max = ^uint64(0)
	}
	boundaries := []uint64{0, 1, max, max - 1, max / 2, 127, 128, 255, 256, 65535}
	e.Value = boundaries[r.Intn(len(boundaries))]
	e.SizeBroken = e.SizeOf != "" || e.CountOf != ""
}

func numberRandom(e *Element, _ *Arena, r *rand.Rand) {
	e.Value = r.Uint64()
	if e.Bits > 0 && e.Bits < 64 {
		e.Value &= uint64(1)<<uint(e.Bits) - 1
	}
	e.SizeBroken = e.SizeOf != "" || e.CountOf != ""
}

// sizeBreaker corrupts a size or count relation: the field keeps a stale
// or skewed value instead of being recomputed at serialization.
func sizeBreaker(e *Element, _ *Arena, r *rand.Rand) {
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
// were. A grown field stays its unit and a repeat count until appendLeaf
// writes it, so only the wire buffer holds its bytes.
const maxFieldLen = 16 << 20

// fitCopies lowers copies until that many of a unit-byte field fit
// maxFieldLen, never below one.
func fitCopies(unit, copies int) int {
	return max(1, min(copies, maxFieldLen/max(unit, 1)))
}

// unitA is what stringRepeat repeats in place of an empty field. It is
// only ever read: a field under a repeat count is flattened before it is
// written.
var unitA = []byte("A")

// repeatBy multiplies e's repeat count by a drawn copy count, lowered to
// fit the field's length as it stands.
func repeatBy(e *Element, copies int) {
	e.repeat = e.copies() * fitCopies(e.dataLen(), copies)
}

func stringRepeat(e *Element, _ *Arena, r *rand.Rand) {
	if e.dataLen() == 0 {
		e.Data, e.repeat = unitA, 0
	}
	repeatBy(e, 1<<uint(1+r.Intn(9))) // 2..512 copies
}

func stringEmpty(e *Element, _ *Arena, _ *rand.Rand) { e.Data, e.repeat = nil, 0 }

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
func stringSpecial(e *Element, a *Arena, r *rand.Rand) {
	e.Data, e.repeat = a.copyBytes(specialStrings[r.Intn(len(specialStrings))]), 0
}

func blobBitFlip(e *Element, a *Arena, r *rand.Rand) {
	e.flatten(a, e.dataLen())
	n := 1 + r.Intn(4)
	for i := 0; i < n; i++ {
		bit := r.Intn(len(e.Data) * 8)
		e.Data[bit/8] ^= 1 << uint(bit%8)
	}
}

// blobTruncate writes out only the prefix it keeps of a repeated field.
func blobTruncate(e *Element, a *Arena, r *rand.Rand) {
	e.flatten(a, r.Intn(e.dataLen()))
}

func blobDuplicate(e *Element, _ *Arena, r *rand.Rand) { repeatBy(e, 2+r.Intn(4)) }

// blobInsert writes the field's bytes out once, with room for the insert,
// and moves the tail up to make the room.
func blobInsert(e *Element, a *Arena, r *rand.Rand) {
	var insert [8]byte
	n := 1 + r.Intn(len(insert))
	for i := range insert[:n] {
		insert[i] = byte(r.Intn(256))
	}
	size, pos := e.dataLen(), 0
	if size > 0 {
		pos = r.Intn(size + 1)
	}
	out := a.alloc(size + n)
	fillRepeat(out[:size], e.Data)
	copy(out[pos+n:], out[pos:size])
	copy(out[pos:], insert[:n])
	e.Data, e.repeat = out, 0
}

func blobRandomBytes(e *Element, a *Arena, r *rand.Rand) {
	e.flatten(a, e.dataLen())
	n := 1 + r.Intn(len(e.Data))
	for i := 0; i < n; i++ {
		e.Data[r.Intn(len(e.Data))] = byte(r.Intn(256))
	}
}

// MutateMessage applies between 1 and maxOps random applicable mutations
// to msg and returns the number applied. A mutated leaf is the message's
// own copy; the model is never written.
func MutateMessage(msg *Message, r *rand.Rand) int {
	mask := msg.p.mask // per leaf
	if len(mask) == 0 {
		return 0
	}
	applied := 0
	ops := 1 + r.Intn(maxOps)
	for i := 0; i < ops; i++ {
		// Rejection-sample an applicable (field, mutator) pair.
		for try := 0; try < 16; try++ {
			k, mi := r.Intn(len(mask)), r.Intn(len(mutators))
			if m := &mutators[mi]; mask[k]&(1<<mi) != 0 && m.applies(msg.field(k)) {
				m.mutate(msg.own(k), msg.arena, r)
				applied++
				break
			}
		}
	}
	return applied
}
