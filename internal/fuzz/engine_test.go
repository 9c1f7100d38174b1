package fuzz

import (
	"bytes"
	"sync"
	"testing"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/coverage"
)

// toyTarget explores more edges for more diverse bytes, and crashes when
// a message starts with 0xde 0xad. It counts its runs, the messages of
// the latest one, and the bytes of all.
type toyTarget struct{ runs, msgs, bytes int }

func (tt *toyTarget) Run(seq [][]byte, tr *coverage.Trace) *bugs.Crash {
	tt.runs++
	tt.msgs = len(seq)
	for _, msg := range seq {
		tt.bytes += len(msg)
	}
	for i, msg := range seq {
		if len(msg) >= 2 && msg[0] == 0xde && msg[1] == 0xad {
			return &bugs.Crash{Protocol: "TOY", Kind: bugs.SEGV, Function: "handle"}
		}
		for j, b := range msg {
			if j > 6 {
				break
			}
			tr.Edge(uint32(i*8+j), uint64(b))
		}
	}
	return nil
}

func toyConfig(seed int64) Config {
	models := map[string]*DataModel{
		"A": {Name: "A", Root: Block("A", Num("hdr", 8, 1), Str("body", "abc"))},
		"B": {Name: "B", Root: Block("B", Num("hdr", 8, 2), Blob("pay", []byte{7, 8, 9}))},
	}
	sm := &StateModel{
		Name:    "sm",
		Initial: "s0",
		States: map[string]*State{
			"s0": {Name: "s0", Actions: []Action{
				{Kind: ActionOutput, DataModel: "A"},
				{Kind: ActionChangeState, To: "s1"},
			}},
			"s1": {Name: "s1", Actions: []Action{
				{Kind: ActionOutput, DataModel: "B"},
			}},
		},
	}
	return Config{Models: models, StateModel: sm, Seed: seed}
}

func TestEngineCoverageGrows(t *testing.T) {
	tgt := &toyTarget{}
	e := NewEngine(toyConfig(1), tgt)
	for i := 0; i < 200; i++ {
		e.Step()
	}
	if e.Coverage() == 0 {
		t.Fatal("no coverage after 200 steps")
	}
	if tgt.runs != 200 {
		t.Fatalf("execs = %d", tgt.runs)
	}
	if e.corpus.Len() == 0 {
		t.Fatal("corpus empty despite coverage growth")
	}
	if tgt.bytes == 0 {
		t.Fatal("no bytes sent")
	}
}

func TestEngineCoverageMonotone(t *testing.T) {
	e := NewEngine(toyConfig(2), &toyTarget{})
	prev := 0
	for i := 0; i < 100; i++ {
		res := e.Step()
		cur := e.Coverage()
		if cur < prev {
			t.Fatalf("coverage shrank: %d -> %d", prev, cur)
		}
		if res.NewEdges != cur-prev {
			t.Fatalf("NewEdges %d inconsistent with delta %d", res.NewEdges, cur-prev)
		}
		prev = cur
	}
}

func TestEngineFindsCrash(t *testing.T) {
	// A target that crashes on ANY message whose first byte is 0xff —
	// reachable by number mutation of the header.
	target := TargetFunc(func(seq [][]byte, tr *coverage.Trace) *bugs.Crash {
		for _, msg := range seq {
			if len(msg) > 0 {
				tr.Edge(1, uint64(msg[0]))
				if msg[0] == 0xff {
					return &bugs.Crash{Protocol: "TOY", Kind: bugs.SEGV, Function: "f"}
				}
			}
		}
		return nil
	})
	e := NewEngine(toyConfig(3), target)
	found := false
	for i := 0; i < 3000 && !found; i++ {
		if e.Step().Crash != nil {
			found = true
		}
	}
	if !found {
		t.Fatal("crash never found in 3000 steps")
	}
}

func TestEngineDeterministic(t *testing.T) {
	run := func() (int, int) {
		e := NewEngine(toyConfig(42), &toyTarget{})
		for i := 0; i < 150; i++ {
			e.Step()
		}
		return e.Coverage(), e.corpus.Len()
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 != c2 || s1 != s2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", c1, s1, c2, s2)
	}
}

func TestEngineFixedPaths(t *testing.T) {
	cfg := toyConfig(5)
	cfg.FixedPaths = []Path{{Models: []string{"A"}}}
	cfg.genProb = 1.0 // always generate; never havoc
	seen := map[int]bool{}
	target := TargetFunc(func(seq [][]byte, tr *coverage.Trace) *bugs.Crash {
		seen[len(seq)] = true
		return nil
	})
	e := NewEngine(cfg, target)
	for i := 0; i < 50; i++ {
		e.Step()
	}
	if !seen[1] || seen[2] {
		t.Fatalf("fixed path ignored: sequence lengths %v", seen)
	}
}

func TestEngineSeedExportImport(t *testing.T) {
	e := NewEngine(toyConfig(6), &toyTarget{})
	for i := 0; i < 300; i++ {
		e.Step()
	}
	seeds := topSeeds(e.corpus, 5)
	if len(seeds) == 0 {
		t.Fatal("no seeds exported")
	}
	if len(seeds) > 5 {
		t.Fatalf("exported %d seeds, cap 5", len(seeds))
	}
	for i := 1; i < len(seeds); i++ {
		if seeds[i].Gain > seeds[i-1].Gain {
			t.Fatal("seeds not sorted by descending gain")
		}
	}
	if e.corpus.Top(0) != nil {
		t.Fatal("Top(0) should be nil")
	}

	sibling := NewEngine(toyConfig(7), &toyTarget{})
	before := sibling.corpus.Len()
	sibling.ImportSeeds(seeds)
	if sibling.corpus.Len() != before+len(seeds) {
		t.Fatal("import did not grow corpus")
	}
}

func TestEngineCorpusEviction(t *testing.T) {
	cfg := toyConfig(8)
	cfg.maxCorpus = 4
	e := NewEngine(cfg, &toyTarget{})
	for i := 0; i < 500; i++ {
		e.Step()
	}
	if got := e.corpus.Len(); got > 4 {
		t.Fatalf("corpus %d exceeds cap 4", got)
	}
}

func TestEngineNoStateModel(t *testing.T) {
	cfg := Config{
		Models: map[string]*DataModel{
			"only": {Name: "only", Root: Block("only", Num("b", 8, 3))},
		},
		Seed: 9,
	}
	tgt := &toyTarget{}
	e := NewEngine(cfg, tgt)
	e.Step()
	if tgt.msgs != 1 {
		t.Fatalf("messages = %d, want 1 standalone packet", tgt.msgs)
	}
}

func BenchmarkEngineStep(b *testing.B) {
	e := NewEngine(toyConfig(10), &toyTarget{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func TestEngineSplice(t *testing.T) {
	e := NewEngine(toyConfig(11), &toyTarget{})
	a := Seed{Msgs: [][]byte{{1}, {2}, {3}}}
	b := Seed{Msgs: [][]byte{{4}, {5}}}
	for i := 0; i < 100; i++ {
		seq := e.splice(a, b)
		if len(seq) == 0 || len(seq) > 16 {
			t.Fatalf("splice length %d out of range", len(seq))
		}
	}
}

// TestHavocNeverWritesSeeds: havoc and splice hand a seed's messages to
// the target as they are and copy only the entries they write, so no
// step writes a corpus seed, nor the capacity past one of its messages.
// Two engines on two goroutines share one set of imported seeds, as
// in-process sync shares them between instances; after thousands of
// steps every seed, imported or added since, still equals the deep copy
// taken when it entered the corpus.
func TestHavocNeverWritesSeeds(t *testing.T) {
	spare := make([]byte, 3, 64) // a tail append must not grow into it in place
	copy(spare, "abc")
	shared := []Seed{
		{Msgs: [][]byte{{1, 2, 3, 4}, {5, 6}, nil}, Gain: 1},
		{Msgs: [][]byte{spare, {7}}, Gain: 1},
		{Msgs: [][]byte{bytes.Repeat([]byte{0x5a}, maxSlotBuf+1), {8, 9}}, Gain: 1}, // shared with the seeds it begets
	}
	snapshot := func(seeds []Seed) []Seed {
		out := make([]Seed, len(seeds))
		for i, s := range seeds {
			out[i] = Seed{Msgs: make([][]byte, len(s.Msgs)), Gain: s.Gain}
			for j, m := range s.Msgs {
				out[i].Msgs[j] = bytes.Clone(m[:cap(m)])
			}
		}
		return out
	}
	unchanged := func(what string, seeds, copies []Seed) {
		for i, s := range seeds {
			for j, m := range s.Msgs {
				if !bytes.Equal(m[:cap(m)], copies[i].Msgs[j]) {
					t.Errorf("%s seed %d message %d was written", what, i, j)
					return
				}
			}
		}
	}
	sharedCopies := snapshot(shared)
	var wg sync.WaitGroup
	for w := int64(0); w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := toyConfig(20 + w)
			cfg.genProb = never // every step havocs or splices
			e := NewEngine(cfg, &toyTarget{})
			e.ImportSeeds(shared)
			var added, addedCopies []Seed
			for i := 0; i < 5000; i++ {
				if e.Step().NewEdges > 0 {
					added = append(added, e.LastSeed())
					addedCopies = append(addedCopies, snapshot(added[len(added)-1:])...)
				}
			}
			if len(added) == 0 {
				t.Error("no step added a seed")
			}
			unchanged("an added", added, addedCopies)
		}()
	}
	wg.Wait()
	unchanged("a shared", shared, sharedCopies)
}

func TestEngineSpliceEmptySeeds(t *testing.T) {
	e := NewEngine(toyConfig(12), &toyTarget{})
	// Must not panic on degenerate seeds.
	e.splice(Seed{}, Seed{})
	e.splice(Seed{Msgs: [][]byte{{1}}}, Seed{})
}
