package fuzz

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"cmfuzz/internal/protocols"
)

// The tree algorithm compiled data models replaced, kept as the reference
// they must match draw for draw and byte for byte: deep-copy the model,
// draw every Choice, mutate the active leaves, fix each relation with a
// pre-order search and a serialization of its target, and serialize the
// tree.

func cloneTree(e *Element) *Element {
	c := *e
	if e.Data != nil {
		c.Data = append([]byte(nil), e.Data...)
	}
	if e.Children != nil {
		c.Children = make([]*Element, len(e.Children))
		for i, ch := range e.Children {
			c.Children[i] = cloneTree(ch)
		}
	}
	return &c
}

// A tree is one deep copy of a model's template and the child each of
// its Choices selected.
type tree struct {
	root *Element
	sel  map[*Element]int
}

// newTree copies m's template and draws every Choice, in pre-order.
func newTree(m *DataModel, r *rand.Rand) *tree {
	t := &tree{root: cloneTree(m.Root), sel: map[*Element]int{}}
	t.resolveChoices(t.root, r)
	return t
}

func (t *tree) resolveChoices(e *Element, r *rand.Rand) {
	if e.Kind == KindChoice && len(e.Children) > 0 {
		t.sel[e] = r.Intn(len(e.Children))
	}
	for _, ch := range e.Children {
		t.resolveChoices(ch, r)
	}
}

// chosen is the child in effect under Choice e, which has children.
func (t *tree) chosen(e *Element) *Element { return e.Children[t.sel[e]] }

func (t *tree) appendLeaves(out []*Element, e *Element) []*Element {
	switch e.Kind {
	case KindBlock:
		for _, ch := range e.Children {
			out = t.appendLeaves(out, ch)
		}
	case KindChoice:
		if len(e.Children) > 0 {
			out = t.appendLeaves(out, t.chosen(e))
		}
	default:
		out = append(out, e)
	}
	return out
}

func (t *tree) findElement(e *Element, name string) *Element {
	if e.Name == name {
		return e
	}
	switch e.Kind {
	case KindBlock:
		for _, ch := range e.Children {
			if f := t.findElement(ch, name); f != nil {
				return f
			}
		}
	case KindChoice:
		if len(e.Children) > 0 {
			return t.findElement(t.chosen(e), name)
		}
	}
	return nil
}

func (t *tree) fixRelations() {
	for _, leaf := range t.appendLeaves(nil, t.root) {
		if leaf.Kind != KindNumber || leaf.SizeBroken {
			continue
		}
		if leaf.SizeOf != "" {
			if target := t.findElement(t.root, leaf.SizeOf); target != nil {
				leaf.Value = uint64(len(t.appendElement(nil, target)))
			}
		}
		if leaf.CountOf != "" {
			if target := t.findElement(t.root, leaf.CountOf); target != nil {
				leaf.Value = uint64(len(target.Children))
			}
		}
	}
}

func (t *tree) appendElement(buf []byte, e *Element) []byte {
	switch e.Kind {
	case KindNumber:
		return appendNumber(buf, e)
	case KindString, KindBlob:
		// The mutators leave a grown field a unit and a repeat count;
		// the reference writes it out the plain way, not by appendLeaf.
		return append(buf, bytes.Repeat(e.Data, max(e.repeat, 1))...)
	case KindBlock:
		for _, ch := range e.Children {
			buf = t.appendElement(buf, ch)
		}
	case KindChoice:
		if len(e.Children) > 0 {
			return t.appendElement(buf, t.chosen(e))
		}
	}
	return buf
}

func (t *tree) mutate(r *rand.Rand) int {
	leaves := t.appendLeaves(nil, t.root)
	if len(leaves) == 0 {
		return 0
	}
	applied := 0
	ops := 1 + r.Intn(maxOps)
	for i := 0; i < ops; i++ {
		for try := 0; try < 16; try++ {
			e := leaves[r.Intn(len(leaves))]
			m := mutators[r.Intn(len(mutators))]
			if m.applies(e) {
				m.mutate(e, nil, r)
				applied++
				break
			}
		}
	}
	return applied
}

// treeMessage is one message of the engine's generate, the tree way:
// instantiate, mutate with probability mutateProb, serialize.
func treeMessage(m *DataModel, r *rand.Rand, mutateProb float64) []byte {
	t := newTree(m, r)
	if r.Float64() < mutateProb {
		t.mutate(r)
	}
	t.fixRelations()
	return t.appendElement(nil, t.root)
}

// relationModel gathers the relation shapes the compiled search and size
// sums must get right: same-named targets across Choice branches and
// twice in one message (the first active one wins), Block and Choice
// targets, a varint size inside
// its own target whose length changes when it is set, a size field inside
// an earlier size's target (seen as it stands), a leaf with both SizeOf
// and CountOf (CountOf wins), targets that are missing, only inactive, the
// root or the field itself, and the odd leaves: negative and zero widths,
// an unknown kind, a Number with children (whose Choice is still drawn).
func relationModel() *DataModel {
	leafWithKids := Num("kids", 8, 4)
	leafWithKids.Children = []*Element{Choice("hidden", Num("h1", 8, 1), Num("h2", 8, 2)), Str("cid", "never")}
	return &DataModel{Name: "Rel", Root: Block("Rel",
		&Element{Kind: KindNumber, Name: "vlen", Varint: true, Value: 127, SizeOf: "Rel"},
		SizeOf("cidlen", 16, "cid"),
		Choice("variant",
			Block("v1", Str("cid", "first"), Blob("big", make([]byte, 120))),
			Block("v2", SizeOf("inner", 8, "v2"), Str("cid", "second-branch")),
			Choice("nested", Str("cid", "n"), Block("empty"), Choice("none")),
		),
		SizeOf("chlen", 8, "variant"),
		&Element{Kind: KindNumber, Name: "both", Bits: 8, SizeOf: "variant", CountOf: "variant"},
		&Element{Kind: KindNumber, Name: "cnt", Bits: 16, CountOf: "list"},
		&Element{Kind: KindNumber, Name: "leafcnt", Bits: 8, CountOf: "cid"},
		SizeOf("duplen", 8, "dup"),
		Str("dup", "first"),
		Block("later", Str("dup", "second dup")),
		SizeOf("ghost", 8, "missing"),
		SizeOf("hid", 8, "h1"),
		SizeOf("self", 32, "self"),
		SizeOf("rootlen", 16, "Rel"),
		Block("list", Num("i1", 8, 1), Num("i2", 8, 2), Token("i3", 8, 3)),
		&Element{Kind: KindNumber, Name: "neg", Bits: -8, Value: 9},
		&Element{Kind: KindNumber, Name: "zero", Value: 300},
		&Element{Kind: ElementKind(42), Name: "odd", Data: []byte("x")},
		leafWithKids,
	)}
}

// manyPlansModel has more selections than maxPlans (3·2·3·2·2·3·2 =
// 432), so its messages build their plan each: Choices nested in
// Choices, relations into, across and around them, and a same-named
// target in several branches.
func manyPlansModel() *DataModel {
	return &DataModel{Name: "Many", Root: Block("Many",
		VarintOf("total", "Many"),
		SizeOf("bodylen", 16, "body"),
		&Element{Kind: KindNumber, Name: "alts", Bits: 8, CountOf: "a"},
		Block("body",
			Choice("a", Str("id", "one"), Block("a2", SizeOf("idlen", 8, "id"), Str("id", "two-two")), Blob("a3", []byte{1, 2, 3})),
			Choice("b", Num("b1", 8, 1), Token("b2", 16, 0xBEEF)),
			Choice("c",
				Block("c1", Choice("d", Str("d1", "x"), Blob("d2", make([]byte, 40)))),
				Str("id", "c-id"),
				Choice("e", Num("e1", 32, 7), NumLE("e2", 16, 9), Str("e3", "")),
			),
			Choice("f", Block("f1"), Str("f2", "f")),
		),
		Choice("g", Num("g1", 8, 0), Str("g2", "tail")),
		SizeOf("idlen2", 8, "id"),
	)}
}

// modelCorpus is every data model the differential tests run: the six
// subjects' Pits, the golden engine's models, relationModel and
// manyPlansModel.
func modelCorpus(t testing.TB) []*DataModel {
	var out []*DataModel
	add := func(models map[string]*DataModel) {
		names := make([]string, 0, len(models))
		for name := range models {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			out = append(out, models[name])
		}
	}
	for _, sub := range protocols.All() {
		pit, err := ParsePit(sub.PitXML())
		if err != nil {
			t.Fatal(err)
		}
		add(pit.DataModels)
	}
	add(goldenConfig(1).Models)
	return append(out, relationModel(), manyPlansModel())
}

// checkCompiled generates n messages of m, one after the other from seed,
// through the tree reference, the public API and the engine's reused
// Message and arena, and fails unless the three agree on the bytes and on
// the rng draw after each message.
func checkCompiled(t testing.TB, m *DataModel, msg *Message, a *Arena, seed int64, n int) {
	cm := compileModel(m)
	rt, rp, re := testRandSeed(seed), testRandSeed(seed), testRandSeed(seed)
	for i := 0; i < n; i++ {
		if i%5 == 0 {
			a.Reset()
		}
		checkMessage(t, m, cm, msg, a, rt, rp, re)
	}
}

func checkMessage(t testing.TB, m *DataModel, cm *compiledModel, msg *Message, a *Arena, rt, rp, re *rand.Rand) {
	want, next := treeMessage(m, rt, 1), rt.Int63()

	pub := m.NewMessage(rp)
	if rp.Float64() < 1 {
		MutateMessage(pub, rp)
	}
	cm.instantiate(msg, a, re)
	if re.Float64() < 1 {
		MutateMessage(msg, re)
	}
	for _, got := range []struct {
		path  string
		bytes []byte
		r     *rand.Rand
	}{{"public", pub.Serialize(), rp}, {"engine", msg.appendTo(nil), re}} {
		if !bytes.Equal(got.bytes, want) {
			t.Fatalf("model %s: %s path serialized\n%x\nthe tree reference\n%x", m.Name, got.path, got.bytes, want)
		}
		if got.r.Int63() != next {
			t.Fatalf("model %s: %s path left the rng elsewhere than the tree reference", m.Name, got.path)
		}
	}
}

// TestCompiledMatchesTree: every data model the repository ships, with
// every message mutated, is the tree reference's bytes and leaves the rng
// where the reference leaves it.
func TestCompiledMatchesTree(t *testing.T) {
	var msg Message
	a := NewArena()
	for i, m := range modelCorpus(t) {
		checkCompiled(t, m, &msg, a, int64(i), 2000)
	}
}

// TestPlanPaths pins that the differential corpus takes both ways to a
// message's plan: every shipped model compiles all of its plans, and
// manyPlansModel builds one per message.
func TestPlanPaths(t *testing.T) {
	for _, m := range modelCorpus(t) {
		if got, want := compileModel(m).plans == nil, m.Name == "Many"; got != want {
			t.Errorf("model %s: builds its plan per message %v, want %v", m.Name, got, want)
		}
	}
}

// TestApplyMaskCoversPredicates: for every leaf of every model the
// differential tests run, a mutator whose predicate holds for the leaf
// at any length, repeated or not, has its bit in the leaf's mask, so
// testing the mask first moves no draw. With a one-byte payload the
// mask is exactly the predicates that hold.
func TestApplyMaskCoversPredicates(t *testing.T) {
	for _, m := range modelCorpus(t) {
		for _, nd := range compileNodes(m).nodes {
			if !isLeaf(nd.e.Kind) {
				continue
			}
			mask := applyMask(nd.e)
			for _, n := range []int{0, 1, 65535, 65536} {
				for _, repeat := range []int{0, 3} {
					e := *nd.e
					e.Data, e.repeat = make([]byte, n), repeat
					for i := range mutators {
						holds, bit := mutators[i].applies(&e), mask&(1<<i) != 0
						if holds && !bit || n == 1 && repeat == 0 && holds != bit {
							t.Fatalf("model %s leaf %s, %d bytes repeated %d: mutator %d applies %v, mask bit %v", m.Name, e.Name, n, repeat, i, holds, bit)
						}
					}
				}
			}
		}
	}
}

// FuzzCompiledMatchesTree extends TestCompiledMatchesTree to any Pit the
// loader accepts, seeded with the six subjects'.
func FuzzCompiledMatchesTree(f *testing.F) {
	for i, sub := range protocols.All() {
		f.Add(sub.PitXML(), int64(i))
	}
	f.Fuzz(func(t *testing.T, xml string, seed int64) {
		pit, err := ParsePit(xml)
		if err != nil {
			return
		}
		var msg Message
		names := make([]string, 0, len(pit.DataModels))
		for name := range pit.DataModels {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			checkCompiled(t, pit.DataModels[name], &msg, NewArena(), seed, 16)
		}
	})
}

// TestRelationModelShapes pins that relationModel reaches the cases it is
// there for, so the differential test cannot pass by never meeting them.
func TestRelationModelShapes(t *testing.T) {
	m := relationModel()
	seen := map[string]bool{}
	for seed := int64(0); seed < 200; seed++ {
		r := testRandSeed(seed)
		tr := newTree(m, r)
		tr.fixRelations()
		vlen := tr.findElement(tr.root, "vlen")
		if n := len(tr.appendElement(nil, vlen)); n > 1 {
			seen[fmt.Sprintf("varint grew to %d bytes", n)] = true
		}
		seen["variant "+tr.chosen(tr.findElement(tr.root, "variant")).Name] = true
		if tr.findElement(tr.root, "both").Value == 3 {
			seen["CountOf wins"] = true
		}
	}
	for _, want := range []string{"variant v1", "variant v2", "variant nested", "varint grew to 2 bytes", "CountOf wins"} {
		if !seen[want] {
			t.Errorf("relationModel never reached %q (saw %v)", want, seen)
		}
	}
}
