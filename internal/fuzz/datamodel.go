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
// table, with each of its Choice selections compiled into a plan.
// Messages read their leaves from it and never write it, so engines
// that share one Pit share its templates.
type compiledModel struct {
	nodes []node
	// choices lists the Choice nodes with children, in pre-order: a
	// message draws one selection for each, as the tree walk did.
	choices []int32
	// plans holds the plan of every selection, indexed by its
	// mixed-radix key (the first Choice's draw the most significant
	// digit); nil for a model of more than maxPlans selections, whose
	// messages build their plan each.
	plans []plan
}

// maxPlans bounds the selections a model compiles a plan for. The
// shipped models have 1 to 30.
const maxPlans = 64

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

// A plan is one Choice selection of a model, compiled: the part of a
// message every message under that selection shares.
type plan struct {
	on     []bool     // per node: active under the selection
	leaves []int32    // the active leaves' nodes, in wire order
	tmpl   []*Element // per active leaf: its template
	// image is the template leaves' wire bytes, leaf k's at
	// image[off[k]:off[k+1]].
	image []byte
	off   []int32
	rels  []relation // the relation leaves whose target is active, in leaf order
	// mask has, per active leaf, a bit for each mutator whose kind, token
	// and relation tests the leaf passes (applyMask).
	mask []uint16
}

// A relation is a size or count leaf and its target. The leaves of a
// pre-order subtree are contiguous, so a size's target is a range of
// active leaves.
type relation struct {
	leaf   int32 // the relation leaf's index among the active leaves
	lo, hi int32 // a SizeOf's target: active leaves lo to hi-1
	count  int32 // a CountOf's target's child count; -1 for a SizeOf
}

func isLeaf(k ElementKind) bool { return k != KindBlock && k != KindChoice }

// compileModel compiles m's node table and the plan of each of its
// selections, when it has at most maxPlans of them.
func compileModel(m *DataModel) *compiledModel {
	c := compileNodes(m)
	n := 1
	for _, i := range c.choices {
		if n *= len(c.nodes[i].e.Children); n > maxPlans {
			return c
		}
	}
	c.plans = make([]plan, n)
	sel := make([]int32, len(c.choices))
	for key := range c.plans {
		for j, rest := len(c.choices)-1, key; j >= 0; j-- {
			radix := len(c.nodes[c.choices[j]].e.Children)
			sel[j], rest = int32(rest%radix), rest/radix
		}
		c.build(&c.plans[key], sel)
	}
	return c
}

// compileNodes flattens m into its node table, with no plans.
func compileNodes(m *DataModel) *compiledModel {
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
	return c
}

// build compiles the plan of selections sel into p, reusing p's storage.
func (c *compiledModel) build(p *plan, sel []int32) {
	if cap(p.on) < len(c.nodes) {
		p.on = make([]bool, len(c.nodes))
	}
	p.on = p.on[:len(c.nodes)]
	p.leaves, p.tmpl, p.mask = p.leaves[:0], p.tmpl[:0], p.mask[:0]
	p.image, p.off, p.rels = p.image[:0], p.off[:0], p.rels[:0]
	for i, nd := range c.nodes {
		p.on[i] = true
		if nd.parent >= 0 {
			pa := &c.nodes[nd.parent]
			switch pa.e.Kind {
			case KindBlock:
				p.on[i] = p.on[nd.parent]
			case KindChoice:
				p.on[i] = p.on[nd.parent] && sel[pa.choice] == nd.branch
			default:
				// Beneath a leaf: never searched or serialized; the tree
				// walk only descended here to draw the Choices.
				p.on[i] = false
			}
		}
		if p.on[i] && isLeaf(nd.e.Kind) {
			p.leaves = append(p.leaves, int32(i))
			p.tmpl = append(p.tmpl, nd.e)
			p.mask = append(p.mask, applyMask(nd.e))
			p.off = append(p.off, int32(len(p.image)))
			p.image = appendLeaf(p.image, nd.e)
		}
	}
	p.off = append(p.off, int32(len(p.image)))
	// A relation names its target by the first active candidate, the
	// element a pre-order search of the message finds; CountOf wins over
	// SizeOf on a leaf with both.
	target := func(candidates []int32) int32 {
		for _, j := range candidates {
			if p.on[j] {
				return j
			}
		}
		return -1
	}
	for k, i := range p.leaves {
		nd := &c.nodes[i]
		if t := target(nd.countOf); t >= 0 {
			p.rels = append(p.rels, relation{leaf: int32(k), count: int32(len(c.nodes[t].e.Children))})
		} else if t := target(nd.sizeOf); t >= 0 {
			lo, _ := slices.BinarySearch(p.leaves, t)
			hi, _ := slices.BinarySearch(p.leaves, c.nodes[t].end)
			p.rels = append(p.rels, relation{leaf: int32(k), lo: int32(lo), hi: int32(hi), count: -1})
		}
	}
}

// instantiate makes msg a fresh message of the model: Choices resolved
// (uniformly at random, in pre-order) and every leaf read from the
// template until something writes it. Leaves written later copy their
// Data into a, or the heap when a is nil.
func (c *compiledModel) instantiate(msg *Message, a *Arena, r *rand.Rand) {
	if c.plans != nil {
		key := 0
		for _, i := range c.choices {
			radix := len(c.nodes[i].e.Children)
			key = key*radix + r.Intn(radix)
		}
		msg.p = &c.plans[key]
	} else {
		msg.sel = msg.sel[:0]
		for _, i := range c.choices {
			msg.sel = append(msg.sel, int32(r.Intn(len(c.nodes[i].e.Children))))
		}
		c.build(&msg.local, msg.sel)
		msg.p = &msg.local
	}
	msg.arena = a
	for _, k := range msg.written {
		msg.owned[k] = false
	}
	msg.written = msg.written[:0]
	if n := len(msg.p.tmpl); len(msg.copies) < n {
		msg.copies, msg.owned = make([]Element, n), make([]bool, n)
	}
}

// NewMessage instantiates the model into a concrete message: choices are
// resolved (uniformly at random) and default values read from the model,
// ready for mutation and serialization. It compiles no plans: the
// message builds its own.
func (m *DataModel) NewMessage(r *rand.Rand) *Message {
	msg := &Message{}
	compileNodes(m).instantiate(msg, nil, r)
	return msg
}

// A Message is one instantiated, mutable packet: the active leaves of its
// model under one set of Choice selections. A leaf is the model's own
// element until the message writes it; the first write copies it.
type Message struct {
	p       *plan
	arena   *Arena
	copies  []Element // per active leaf: its copy, once written
	owned   []bool    // per active leaf: whether it is written
	written []int32   // the written leaves, in wire order

	// For a model of more than maxPlans selections: the selections, and
	// the plan built from them.
	sel   []int32
	local plan
}

// field returns active leaf k as it stands: its template until the
// message writes it.
func (msg *Message) field(k int) *Element {
	if msg.owned[k] {
		return &msg.copies[k]
	}
	return msg.p.tmpl[k]
}

// own returns active leaf k ready to write: the first call copies the
// template leaf and its Data, so the model is never written.
func (msg *Message) own(k int) *Element {
	c := &msg.copies[k]
	if msg.owned[k] {
		return c
	}
	*c = *msg.p.tmpl[k]
	c.Data = msg.arena.copyBytes(c.Data)
	msg.owned[k] = true
	// Insert k into written, which stays in wire order.
	w := append(msg.written, int32(k))
	i := len(w) - 1
	for ; i > 0 && w[i-1] > int32(k); i-- {
		w[i] = w[i-1]
	}
	w[i] = int32(k)
	msg.written = w
	return c
}

// Serialize renders the message to wire bytes, resolving size and count
// relations first (unless a mutator broke them on purpose).
func (msg *Message) Serialize() []byte { return msg.appendTo(nil) }

// appendTo resolves the message's relations and appends its wire bytes
// to buf, grown once to their exact length: the plan's image, with the
// leaves the message wrote written in. Each run of unwritten leaves is
// one copy from the image.
func (msg *Message) appendTo(buf []byte) []byte {
	msg.relate()
	p := msg.p
	buf = slices.Grow(buf, msg.length(0, int32(len(p.tmpl))))
	at := int32(0)
	for _, k := range msg.written {
		buf = append(buf, p.image[p.off[at]:p.off[k]]...)
		buf = appendLeaf(buf, &msg.copies[k])
		at = k + 1
	}
	return append(buf, p.image[p.off[at]:]...)
}

// relate sets every intact size and count field, in leaf order, so a
// size sees the relation fields before it already set and those after it
// as they stand.
func (msg *Message) relate() {
	for _, r := range msg.p.rels {
		e := msg.field(int(r.leaf))
		if e.SizeBroken {
			continue
		}
		v := uint64(r.count)
		if r.count < 0 {
			v = uint64(msg.length(r.lo, r.hi))
		}
		if e.Value != v {
			msg.own(int(r.leaf)).Value = v
		}
	}
}

// length is the wire length of active leaves lo to hi-1: their bytes in
// the image, corrected by each written leaf's own length.
func (msg *Message) length(lo, hi int32) int {
	p := msg.p
	n := int(p.off[hi] - p.off[lo])
	for _, k := range msg.written {
		if k >= hi {
			break
		}
		if k >= lo {
			n += leafLen(&msg.copies[k]) - int(p.off[k+1]-p.off[k])
		}
	}
	return n
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
