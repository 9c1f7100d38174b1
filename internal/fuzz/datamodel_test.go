package fuzz

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func testRand() *rand.Rand { return rand.New(rand.NewSource(1)) }

func TestNumberSerialization(t *testing.T) {
	cases := []struct {
		e    *Element
		want []byte
	}{
		{Num("a", 8, 0xab), []byte{0xab}},
		{Num("a", 16, 0x0102), []byte{0x01, 0x02}},
		{Num("a", 32, 0x01020304), []byte{0x01, 0x02, 0x03, 0x04}},
		{NumLE("a", 16, 0x0102), []byte{0x02, 0x01}},
		{NumLE("a", 32, 0x01020304), []byte{0x04, 0x03, 0x02, 0x01}},
	}
	for _, c := range cases {
		buf := (&DataModel{Name: "m", Root: c.e}).NewMessage(testRand()).Serialize()
		if !bytes.Equal(buf, c.want) {
			t.Errorf("serialize(%+v) = %x, want %x", c.e, buf, c.want)
		}
	}
}

func TestVarintSerialization(t *testing.T) {
	e := &Element{Kind: KindNumber, Varint: true, Value: 321}
	buf := (&DataModel{Name: "m", Root: e}).NewMessage(testRand()).Serialize()
	if !bytes.Equal(buf, []byte{0xc1, 0x02}) {
		t.Fatalf("varint 321 = %x", buf)
	}
}

func TestBlockAndStringSerialization(t *testing.T) {
	m := &DataModel{Name: "m", Root: Block("root",
		Token("type", 8, 0x10),
		Str("id", "abc"),
		Blob("pay", []byte{1, 2}),
	)}
	msg := m.NewMessage(testRand())
	got := msg.Serialize()
	want := []byte{0x10, 'a', 'b', 'c', 1, 2}
	if !bytes.Equal(got, want) {
		t.Fatalf("Serialize = %x, want %x", got, want)
	}
}

func TestSizeOfRelation(t *testing.T) {
	m := &DataModel{Name: "m", Root: Block("root",
		SizeOf("len", 16, "payload"),
		Str("payload", "hello"),
	)}
	msg := m.NewMessage(testRand())
	got := msg.Serialize()
	want := []byte{0x00, 0x05, 'h', 'e', 'l', 'l', 'o'}
	if !bytes.Equal(got, want) {
		t.Fatalf("Serialize = %x, want %x", got, want)
	}
	// After mutating payload, the size re-resolves.
	msg.Find("payload").Data = []byte("hi")
	got = msg.Serialize()
	if got[1] != 2 {
		t.Fatalf("size not recomputed: %x", got)
	}
	// A broken relation survives serialization untouched.
	lenField := msg.Find("len")
	lenField.SizeBroken = true
	lenField.Value = 99
	got = msg.Serialize()
	if got[1] != 99 {
		t.Fatalf("broken size was fixed up: %x", got)
	}
}

func TestVarintOfRelation(t *testing.T) {
	m := &DataModel{Name: "m", Root: Block("root",
		VarintOf("rem", "body"),
		Blob("body", make([]byte, 200)),
	)}
	msg := m.NewMessage(testRand())
	got := msg.Serialize()
	// 200 as varint = 0xC8 0x01.
	if got[0] != 0xc8 || got[1] != 0x01 {
		t.Fatalf("varint size prefix = %x", got[:2])
	}
	if len(got) != 2+200 {
		t.Fatalf("len = %d", len(got))
	}
}

func TestCountOfRelation(t *testing.T) {
	root := Block("root",
		&Element{Kind: KindNumber, Name: "count", Bits: 8, CountOf: "items"},
		Block("items", Num("i1", 8, 1), Num("i2", 8, 2), Num("i3", 8, 3)),
	)
	msg := (&DataModel{Name: "m", Root: root}).NewMessage(testRand())
	got := msg.Serialize()
	if got[0] != 3 {
		t.Fatalf("count = %d, want 3", got[0])
	}
}

func TestChoiceSelection(t *testing.T) {
	m := &DataModel{Name: "m", Root: Block("root",
		Choice("alt",
			Num("a", 8, 0xaa),
			Num("b", 8, 0xbb),
		),
	)}
	seen := map[byte]bool{}
	r := testRand()
	for i := 0; i < 50; i++ {
		msg := m.NewMessage(r)
		seen[msg.Serialize()[0]] = true
	}
	if !seen[0xaa] || !seen[0xbb] {
		t.Fatalf("choice never selected both alternatives: %v", seen)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := &DataModel{Name: "m", Root: Block("root", Str("s", "orig"), Num("n", 8, 5))}
	msg := m.NewMessage(testRand())
	cl := msg.Clone()
	cl.Find("s").Data = []byte("changed")
	cl.Find("n").Value = 9
	if string(msg.Find("s").Data) != "orig" || msg.Find("n").Value != 5 {
		t.Fatal("clone aliases original")
	}
	// NewMessage must not alias the model's defaults either.
	msg.Find("s").Data[0] = 'X'
	if string(m.Root.Children[0].Data) != "orig" {
		t.Fatal("message aliases model defaults")
	}
}

func TestLeavesHonorChoice(t *testing.T) {
	m := &DataModel{Name: "m", Root: Block("root",
		Num("hdr", 8, 1),
		Choice("alt", Str("a", "x"), Str("b", "y")),
	)}
	msg := m.NewMessage(testRand())
	leaves := msg.Leaves()
	if len(leaves) != 2 {
		t.Fatalf("leaves = %d, want 2 (hdr + selected alternative)", len(leaves))
	}
}

func TestFindMissing(t *testing.T) {
	m := &DataModel{Name: "m", Root: Block("root", Num("n", 8, 0))}
	if m.NewMessage(testRand()).Find("ghost") != nil {
		t.Fatal("Find(ghost) returned element")
	}
}

func TestElementKindString(t *testing.T) {
	if KindNumber.String() != "Number" || KindChoice.String() != "Choice" {
		t.Fatal("kind names wrong")
	}
	if ElementKind(42).String() == "" {
		t.Fatal("out-of-range kind empty")
	}
}

// Property: serialization length equals the sum of leaf widths for
// fixed-width models, for any instantiation.
func TestQuickSerializeLength(t *testing.T) {
	f := func(v1 uint8, v2 uint16, s string, blob []byte) bool {
		if len(s) > 256 || len(blob) > 256 {
			return true
		}
		m := &DataModel{Name: "m", Root: Block("root",
			Num("a", 8, uint64(v1)),
			Num("b", 16, uint64(v2)),
			Str("s", s),
			Blob("p", blob),
		)}
		msg := m.NewMessage(testRand())
		return len(msg.Serialize()) == 1+2+len(s)+len(blob)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: SizeOf always matches the serialized target length when the
// relation is intact, regardless of mutations to the target.
func TestQuickSizeOfConsistent(t *testing.T) {
	f := func(payload []byte) bool {
		if len(payload) > 1024 {
			payload = payload[:1024]
		}
		m := &DataModel{Name: "m", Root: Block("root",
			SizeOf("len", 16, "payload"),
			Blob("payload", payload),
		)}
		msg := m.NewMessage(testRand())
		out := msg.Serialize()
		got := int(out[0])<<8 | int(out[1])
		return got == len(payload) && len(out) == 2+len(payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Message inspection for tests: a copy, the active leaves and a lookup
// by name. The engine reaches fields through the plan.

// Clone copies the message: its written leaves deeply, its plan not. A
// clone of a message that built its own plan is valid until that message
// is instantiated again.
func (msg *Message) Clone() *Message {
	cl := &Message{
		p:       msg.p,
		copies:  append([]Element(nil), msg.copies...),
		owned:   append([]bool(nil), msg.owned...),
		written: append([]int32(nil), msg.written...),
		local:   msg.local,
	}
	if msg.p == &msg.local {
		cl.p = &cl.local
	}
	for _, k := range msg.written {
		cl.copies[k].Data = append([]byte(nil), msg.copies[k].Data...)
	}
	return cl
}

// Leaves returns the message's active leaf fields (numbers, strings,
// blobs), honoring choice selections, in serialization order. Writes to
// them show in the next Serialize.
func (msg *Message) Leaves() []*Element {
	out := make([]*Element, len(msg.p.tmpl))
	for k := range out {
		out[k] = msg.own(k)
	}
	return out
}

// Find returns the first active leaf with the given name, if any,
// writable like Leaves'.
func (msg *Message) Find(name string) *Element {
	for k, e := range msg.p.tmpl {
		if e.Name == name {
			return msg.own(k)
		}
	}
	return nil
}

// Constructors for building data models in Go code; the subjects build
// theirs from Pit XML.

// Num returns a fixed-width big-endian number field.
func Num(name string, bits int, value uint64) *Element {
	return &Element{Kind: KindNumber, Name: name, Bits: bits, Value: value}
}

// NumLE returns a little-endian number field.
func NumLE(name string, bits int, value uint64) *Element {
	return &Element{Kind: KindNumber, Name: name, Bits: bits, Value: value, Endian: LittleEndian}
}

// Token returns a number field the mutators must preserve.
func Token(name string, bits int, value uint64) *Element {
	e := Num(name, bits, value)
	e.Token = true
	return e
}

// Str returns a string field with a default value.
func Str(name, value string) *Element {
	return &Element{Kind: KindString, Name: name, Data: []byte(value)}
}

// Blob returns a raw bytes field.
func Blob(name string, data []byte) *Element {
	return &Element{Kind: KindBlob, Name: name, Data: data}
}

// Block groups child elements.
func Block(name string, children ...*Element) *Element {
	return &Element{Kind: KindBlock, Name: name, Children: children}
}

// Choice selects exactly one of its children per message.
func Choice(name string, children ...*Element) *Element {
	return &Element{Kind: KindChoice, Name: name, Children: children}
}

// SizeOf returns a number field carrying the serialized length of the
// named element.
func SizeOf(name string, bits int, target string) *Element {
	e := Num(name, bits, 0)
	e.SizeOf = target
	return e
}

// VarintOf returns a variable-byte-integer field carrying the serialized
// length of the named element (the MQTT remaining-length idiom).
func VarintOf(name, target string) *Element {
	return &Element{Kind: KindNumber, Name: name, Varint: true, SizeOf: target}
}
