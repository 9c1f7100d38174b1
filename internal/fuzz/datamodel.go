// Package fuzz is the generation-based protocol fuzzing engine CMFuzz
// builds on — a Go equivalent of the Peach fuzzing platform's layer the
// paper extends. It provides the two traditional protocol-fuzzing models
// (paper §II-B): the data model, describing packet structure (fields,
// types, length relations, choices), and the state model, describing the
// protocol's interaction sequences. A Pit-style XML loader, a mutator
// suite, and the feedback-driven engine loop complete the platform.
package fuzz

import (
	"fmt"
	"math/rand"
	"slices"
)

// ElementKind is the type of a data model element.
type ElementKind int

// The element kinds supported by the data model, mirroring Peach's core
// element vocabulary.
const (
	KindNumber ElementKind = iota
	KindString
	KindBlob
	KindBlock
	KindChoice
)

var kindNames = [...]string{
	KindNumber: "Number",
	KindString: "String",
	KindBlob:   "Blob",
	KindBlock:  "Block",
	KindChoice: "Choice",
}

// String names the kind.
func (k ElementKind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("ElementKind(%d)", int(k))
	}
	return kindNames[k]
}

// Endian selects a number field's byte order.
type Endian int

// Byte orders.
const (
	BigEndian Endian = iota
	LittleEndian
)

// An Element is one node of a data model tree and, after instantiation,
// one concrete field of a message.
type Element struct {
	Kind ElementKind
	Name string

	// Number fields.
	Bits   int // 8, 16, 24, 32 or 64
	Endian Endian
	Value  uint64

	// String and Blob fields.
	Data []byte
	// repeat, above one, makes the field's bytes Data repeated that many
	// times. Only a multiplying mutator sets it, on a message's own copy
	// of a leaf, and Data under it is never written in place: a grown
	// field is written out once, by appendLeaf, straight into the wire
	// buffer.
	repeat int

	// Block and Choice children.
	Children []*Element

	// Token marks protocol framing bytes the mutators must not touch
	// (magic numbers, fixed headers).
	Token bool

	// SizeOf names another element whose serialized byte length this
	// number field carries; CountOf names an element whose child count it
	// carries. SizeBroken suppresses the automatic fix-up after a mutator
	// deliberately corrupts the relation.
	SizeOf     string
	CountOf    string
	SizeBroken bool

	// Varint encodes this number as an MQTT-style variable-byte integer
	// instead of a fixed-width field.
	Varint bool
}

// A DataModel describes one packet type. Generating messages never
// writes it, so engines on several goroutines may share one.
type DataModel struct {
	Name string
	Root *Element
}

// A compiledModel is a DataModel flattened once into a pre-order node
// table. Messages read their leaves from it and never write it, so
// engines that share one Pit share its templates.
type compiledModel struct {
	nodes []node
	// choices lists the Choice nodes with children, in pre-order: a
	// message draws one selection for each, as the tree walk did.
	choices []int32
	// on and leaves are the active nodes and the active leaves of every
	// message of a model without a Choice.
	on     []bool
	leaves []int32
}

// A node is one template element and where it sits in the table.
type node struct {
	e      *Element
	end    int32 // one past the last node of e's subtree
	parent int32 // -1 at the root
	branch int32 // index among the parent's children
	choice int32 // index in choices of a Choice with children
	// sizeOf and countOf list, for a relation leaf, the nodes named like
	// its target in pre-order; the first active one is the target.
	sizeOf, countOf []int32
}

func isLeaf(k ElementKind) bool { return k != KindBlock && k != KindChoice }

func compileModel(m *DataModel) *compiledModel {
	c := &compiledModel{}
	var add func(e *Element, parent, branch int32)
	add = func(e *Element, parent, branch int32) {
		i := int32(len(c.nodes))
		c.nodes = append(c.nodes, node{e: e, parent: parent, branch: branch, choice: -1})
		if e.Kind == KindChoice && len(e.Children) > 0 {
			c.nodes[i].choice = int32(len(c.choices))
			c.choices = append(c.choices, i)
		}
		for b, ch := range e.Children {
			add(ch, i, int32(b))
		}
		c.nodes[i].end = int32(len(c.nodes))
	}
	add(m.Root, -1, 0)
	named := func(name string) []int32 {
		var out []int32
		for j, nd := range c.nodes {
			if nd.e.Name == name {
				out = append(out, int32(j))
			}
		}
		return out
	}
	for i := range c.nodes {
		if e := c.nodes[i].e; e.Kind == KindNumber {
			if e.SizeOf != "" {
				c.nodes[i].sizeOf = named(e.SizeOf)
			}
			if e.CountOf != "" {
				c.nodes[i].countOf = named(e.CountOf)
			}
		}
	}
	if len(c.choices) == 0 {
		c.on, c.leaves = c.activate(nil, make([]bool, len(c.nodes)), nil)
	}
	return c
}

// activate marks the nodes sel's Choice selections leave active and
// appends the active leaves, in wire order, to leaves.
func (c *compiledModel) activate(sel []int32, on []bool, leaves []int32) ([]bool, []int32) {
	for i, nd := range c.nodes {
		on[i] = true
		if nd.parent >= 0 {
			p := &c.nodes[nd.parent]
			switch p.e.Kind {
			case KindBlock:
				on[i] = on[nd.parent]
			case KindChoice:
				on[i] = on[nd.parent] && sel[p.choice] == nd.branch
			default:
				// Beneath a leaf: never searched or serialized; the tree
				// walk only descended here to draw the Choices.
				on[i] = false
			}
		}
		if on[i] && isLeaf(nd.e.Kind) {
			leaves = append(leaves, int32(i))
		}
	}
	return on, leaves
}

// instantiate makes msg a fresh message of the model: Choices resolved
// (uniformly at random, in pre-order) and every leaf read from the
// template until something writes it. Leaves written later copy their
// Data into a, or the heap when a is nil.
func (c *compiledModel) instantiate(msg *Message, a *Arena, r *rand.Rand) {
	msg.c, msg.arena = c, a
	if len(c.choices) == 0 {
		msg.on, msg.leaves = c.on, c.leaves
	} else {
		msg.sel = msg.sel[:0]
		for _, i := range c.choices {
			msg.sel = append(msg.sel, int32(r.Intn(len(c.nodes[i].e.Children))))
		}
		if cap(msg.onBuf) < len(c.nodes) {
			msg.onBuf = make([]bool, len(c.nodes))
		}
		msg.onBuf, msg.leafBuf = c.activate(msg.sel, msg.onBuf[:len(c.nodes)], msg.leafBuf[:0])
		msg.on, msg.leaves = msg.onBuf, msg.leafBuf
	}
	msg.fields = msg.fields[:0]
	for _, i := range msg.leaves {
		msg.fields = append(msg.fields, c.nodes[i].e)
	}
	if len(msg.copies) < len(msg.leaves) {
		msg.copies = make([]Element, len(msg.leaves))
	}
}

// NewMessage instantiates the model into a concrete message: choices are
// resolved (uniformly at random) and default values read from the model,
// ready for mutation and serialization.
func (m *DataModel) NewMessage(r *rand.Rand) *Message {
	msg := &Message{}
	compileModel(m).instantiate(msg, nil, r)
	return msg
}

// A Message is one instantiated, mutable packet: the active leaves of its
// model under one set of Choice selections. A leaf is the model's own
// element until the message writes it; the first write copies it.
type Message struct {
	c      *compiledModel
	arena  *Arena
	on     []bool     // per node: active in this message
	leaves []int32    // the active leaves' nodes, in wire order
	fields []*Element // per active leaf: the template, or its copy once written
	copies []Element  // where written leaves live

	// For models with Choices: the selections, and the storage behind on
	// and leaves.
	sel     []int32
	onBuf   []bool
	leafBuf []int32
}

// own returns active leaf k ready to write: the first call copies the
// template leaf and its Data, so the model is never written.
func (msg *Message) own(k int) *Element {
	e := msg.fields[k]
	if e != msg.c.nodes[msg.leaves[k]].e {
		return e
	}
	c := &msg.copies[k]
	*c = *e
	c.Data = msg.arena.copyBytes(e.Data)
	msg.fields[k] = c
	return c
}

// Serialize renders the message to wire bytes, resolving size and count
// relations first (unless a mutator broke them on purpose).
func (msg *Message) Serialize() []byte { return msg.appendTo(nil) }

// appendTo resolves the message's relations and appends its wire bytes —
// the active leaves, in order — to buf. A leaf whose bytes do not fit
// grows buf once for the rest of the message, so a megabyte leaf is
// copied once, not again at each later leaf that overflows.
func (msg *Message) appendTo(buf []byte) []byte {
	msg.relate()
	for k, e := range msg.fields {
		if e.dataLen() > cap(buf)-len(buf) {
			n := 0
			for _, r := range msg.fields[k:] {
				n += leafLen(r)
			}
			buf = slices.Grow(buf, n)
		}
		buf = appendLeaf(buf, e)
	}
	return buf
}

// relate sets every intact size and count field, in leaf order, so a
// size sees the relation fields before it already set and those after it
// as they stand. A relation names its target by the first active
// candidate, the element a pre-order search of the message finds.
func (msg *Message) relate() {
	for k, i := range msg.leaves {
		e, nd := msg.fields[k], &msg.c.nodes[i]
		if e.Kind != KindNumber || e.SizeBroken {
			continue
		}
		if t := msg.target(nd.sizeOf); t >= 0 {
			msg.set(k, msg.span(t))
		}
		if t := msg.target(nd.countOf); t >= 0 {
			msg.set(k, uint64(len(msg.c.nodes[t].e.Children)))
		}
	}
}

func (msg *Message) target(candidates []int32) int32 {
	for _, j := range candidates {
		if msg.on[j] {
			return j
		}
	}
	return -1
}

// span is the serialized length of active node t: the lengths of the
// active leaves inside its subtree.
func (msg *Message) span(t int32) uint64 {
	n, end := 0, msg.c.nodes[t].end
	for k, i := range msg.leaves {
		if i >= t && i < end {
			n += leafLen(msg.fields[k])
		}
	}
	return uint64(n)
}

func (msg *Message) set(k int, v uint64) {
	if msg.fields[k].Value != v {
		msg.own(k).Value = v
	}
}

// appendLeaf appends leaf e's wire encoding to buf and returns the
// extended slice.
func appendLeaf(buf []byte, e *Element) []byte {
	switch e.Kind {
	case KindNumber:
		return appendNumber(buf, e)
	case KindString, KindBlob:
		n := len(buf)
		buf = slices.Grow(buf, e.dataLen())[:n+e.dataLen()]
		fillRepeat(buf[n:], e.Data)
	}
	return buf
}

// copies is how many times the field's bytes repeat Data.
func (e *Element) copies() int { return max(e.repeat, 1) }

// dataLen is the length of the field's bytes: Data, repeated.
func (e *Element) dataLen() int { return len(e.Data) * e.copies() }

// fillRepeat fills dst with copies of unit, the last one cut short: one
// copy, then doubling copies of what is written. unit is empty only when
// dst is.
func fillRepeat(dst, unit []byte) {
	for done := copy(dst, unit); done < len(dst); done *= 2 {
		copy(dst[done:], dst[:done])
	}
}

// flatten cuts the field to its first n bytes, writing those of a
// repeated field out into storage from a, and clears the count, so a
// mutator may write Data in place.
func (e *Element) flatten(a *Arena, n int) {
	if e.repeat > 1 {
		out := a.alloc(n)
		fillRepeat(out, e.Data)
		e.Data = out
	}
	e.Data, e.repeat = e.Data[:n], 0
}

// leafLen is len(appendLeaf(nil, e)).
func leafLen(e *Element) int {
	switch e.Kind {
	case KindNumber:
		if e.Varint {
			n := 1
			for v := min(e.Value, varintMax) >> 7; v > 0; v >>= 7 {
				n++
			}
			return n
		}
		return max(numberWidth(e), 0)
	case KindString, KindBlob:
		return e.dataLen()
	}
	return 0
}

// varintMax is the largest MQTT variable-byte integer; a varint field
// carries larger values as this.
const varintMax = 268435455

func numberWidth(e *Element) int {
	if n := e.Bits / 8; n != 0 {
		return n
	}
	return 1
}

func appendNumber(buf []byte, e *Element) []byte {
	if e.Varint {
		v := min(e.Value, varintMax)
		for {
			b := byte(v & 0x7f)
			v >>= 7
			if v > 0 {
				buf = append(buf, b|0x80)
			} else {
				return append(buf, b)
			}
		}
	}
	bytes := numberWidth(e)
	for i := 0; i < bytes; i++ {
		var shift uint
		if e.Endian == BigEndian {
			shift = uint(8 * (bytes - 1 - i))
		} else {
			shift = uint(8 * i)
		}
		buf = append(buf, byte(e.Value>>shift))
	}
	return buf
}
