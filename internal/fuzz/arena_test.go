package fuzz

import (
	"bytes"
	"crypto/sha256"
	"reflect"
	"slices"
	"sync"
	"testing"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/protocols"
)

func arenaTestModel() *DataModel {
	return &DataModel{Name: "T", Root: Block("T",
		Token("magic", 16, 0xBEEF),
		Choice("c",
			Num("n1", 8, 1),
			Block("inner", Str("s", "hello"), Blob("b", []byte{9, 8, 7})),
		),
		VarintOf("len", "pay"),
		Block("pay", Str("id", "client"), NumLE("x", 32, 0xAABBCCDD)),
	)}
}

// TestArenaResetReuse pins chunk recycling: after Reset, the arena hands
// out the same storage again and messages serialize identically.
func TestArenaResetReuse(t *testing.T) {
	cm := compileModel(arenaTestModel())
	a := NewArena()
	var msg Message
	gen := func() ([]byte, *byte) {
		r := testRandSeed(5)
		cm.instantiate(&msg, a, r)
		blobBitFlip(msg.own(slices.IndexFunc(msg.p.tmpl, isNonEmptyBytes)), a, r)
		for _, k := range msg.written {
			if e := &msg.copies[k]; len(e.Data) > 0 {
				return msg.appendTo(nil), &e.Data[0]
			}
		}
		t.Fatal("no leaf was copied into the arena")
		return nil, nil
	}
	want, first := gen()
	a.Reset()
	got, again := gen()
	if !bytes.Equal(got, want) {
		t.Fatalf("post-Reset serialization %x != %x", got, want)
	}
	if again != first {
		t.Fatal("Reset did not recycle byte storage")
	}
}

// TestArenaChunkBoundary crosses byte chunk boundaries within one step to
// exercise the chunk-advance path, and oversized payloads take the heap.
func TestArenaChunkBoundary(t *testing.T) {
	a := NewArena()
	var bufs [][]byte
	src := bytes.Repeat([]byte{0xAB}, 700)
	for i := 0; i < 30; i++ { // 30*700 > 2 chunks
		src[0] = byte(i)
		bufs = append(bufs, a.copyBytes(src))
	}
	for i, b := range bufs {
		if b[0] != byte(i) || len(b) != 700 || cap(b) != 700 {
			t.Fatalf("byte chunk %d clobbered", i)
		}
	}
	big := bytes.Repeat([]byte{1}, arenaChunk+100)
	if c := a.copyBytes(big); !bytes.Equal(c, big) || &c[0] == &big[0] {
		t.Fatal("oversized copy differs from or aliases its source")
	}
	if a.copyBytes(nil) != nil || (*Arena)(nil).copyBytes([]byte{}) != nil {
		t.Fatal("empty input copied to a non-nil slice")
	}
}

var idleTarget = TargetFunc(func([][]byte, *coverage.Trace) *bugs.Crash { return nil })

func subjectEngine(pit *Pit, seed int64, target Target) *Engine {
	return NewEngine(Config{Models: pit.DataModels, StateModel: pit.DefaultStateModel(), Seed: seed}, target)
}

// TestTemplateImmutable: however the engine mutates and fixes up its
// messages, the data models it reads are never written — every subject's
// Pit after 5,000 default-config steps is the Pit ParsePit returns.
func TestTemplateImmutable(t *testing.T) {
	for _, sub := range protocols.All() {
		pit, err := ParsePit(sub.PitXML())
		if err != nil {
			t.Fatal(err)
		}
		e := subjectEngine(pit, 1, hotTarget)
		for i := 0; i < 5000; i++ {
			e.Step()
		}
		fresh, _ := ParsePit(sub.PitXML())
		if !reflect.DeepEqual(pit, fresh) {
			t.Fatalf("%s: stepping an engine wrote its Pit", sub.Info().Protocol)
		}
	}
}

// hashTarget folds every executed message into a digest.
type hashTarget struct{ h [32]byte }

func (ht *hashTarget) Run(seq [][]byte, tr *coverage.Trace) *bugs.Crash {
	for i, m := range seq {
		ht.h = sha256.Sum256(append(ht.h[:], m...))
		if len(m) > 0 {
			tr.Edge(uint32(i), uint64(m[len(m)-1]))
		}
	}
	return nil
}

// TestSharedPitConcurrentEngines steps two engines on one Pit on two
// goroutines (run under -race) and checks each sent what it sends alone.
func TestSharedPitConcurrentEngines(t *testing.T) {
	for _, sub := range protocols.All() {
		run := func(pit *Pit, seed int64) [32]byte {
			ht := &hashTarget{}
			e := subjectEngine(pit, seed, ht)
			for i := 0; i < 1000; i++ {
				e.Step()
			}
			return ht.h
		}
		shared, _ := ParsePit(sub.PitXML())
		var got [2][32]byte
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = run(shared, int64(i+1))
			}(i)
		}
		wg.Wait()
		for i := range got {
			alone, _ := ParsePit(sub.PitXML())
			if want := run(alone, int64(i+1)); got[i] != want {
				t.Fatalf("%s: engine %d on a shared Pit sent %x, alone %x", sub.Info().Protocol, i, got[i][:4], want[:4])
			}
		}
	}
}
