package fuzz

import (
	"bytes"
	"math/rand"
	"testing"
	"unsafe"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/protocols"
)

func testRandSeed(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// hotTarget records bounded coverage derived from message bytes and never
// allocates, so allocation gates measure the engine alone.
var hotTarget = TargetFunc(func(seq [][]byte, tr *coverage.Trace) *bugs.Crash {
	for i, msg := range seq {
		for j, b := range msg {
			if j >= 8 {
				break
			}
			tr.Edge(uint32(i*8+j), uint64(b>>3))
		}
	}
	return nil
})

// TestStepAllocs pins the tentpole guarantee: once warmed up (scratch
// buffers grown, finite unmutated exec space explored), a Step on the
// structured-generation path performs zero heap allocations.
func TestStepAllocs(t *testing.T) {
	cfg := goldenConfig(7)
	cfg.genProb = 1.0      // always generate: the steady-state hot path
	cfg.mutateProb = never // valid messages only => finite exec space
	e := NewEngine(cfg, hotTarget)
	for i := 0; i < 512; i++ {
		e.Step()
	}
	if avg := testing.AllocsPerRun(200, func() { e.Step() }); avg != 0 {
		t.Fatalf("steady-state Step allocates %.1f objects/op on the generation path, want 0", avg)
	}
}

// TestStepAllocsHavoc pins the corpus-havoc path at zero: its sequence
// references the seed's messages, an entry an operation writes is copied
// into a reused slot buffer, duplication aliases, the random tail is a
// stack array, and splice builds its sequence from references into the
// two seeds.
func TestStepAllocsHavoc(t *testing.T) {
	cfg := goldenConfig(8)
	cfg.genProb = never // corpus exists => always havoc/splice
	e := NewEngine(cfg, hotTarget)
	e.ImportSeeds([]Seed{
		{Msgs: [][]byte{{1, 2, 3, 4}, {5, 6}}, Gain: 1},
		{Msgs: [][]byte{{7, 8, 9}}, Gain: 1},
	})
	for i := 0; i < 2000; i++ {
		e.Step()
	}
	if avg := testing.AllocsPerRun(200, func() { e.Step() }); avg > 0 {
		t.Fatalf("havoc-path Step allocates %.1f objects/op, want 0", avg)
	}
}

// TestStepAllocsMutate bounds the default mix of generation, mutation,
// havoc and splice: a message copies only the leaves it writes, and the
// mutators' new payloads, into the engine's arena, and a grown field is
// written only into the slot buffer. What remains is a payload over an
// arena chunk and the odd corpus addition (one backing array per seed):
// about one allocation in four steps, which AllocsPerRun's whole-number
// average reads as 0.
func TestStepAllocsMutate(t *testing.T) {
	e := NewEngine(goldenConfig(9), hotTarget)
	for i := 0; i < 2000; i++ {
		e.Step()
	}
	if avg := testing.AllocsPerRun(200, func() { e.Step() }); avg > 0 {
		t.Fatalf("default-config Step allocates %.1f objects/op, want 0 (under one per step)", avg)
	}
}

// TestStepScratchBounded holds the engine's slot buffers to maxSlotBuf
// between steps: a step that serialises a message over it drops that
// slot's buffer, and the sequence entry holding it, while a 1 KiB slot
// keeps its buffer for the next step. A step that finds new edges hands
// its seed the oversized buffer instead of a copy, and copies the rest.
func TestStepScratchBounded(t *testing.T) {
	cfg := Config{
		Models: map[string]*DataModel{
			"Small": {Name: "Small", Root: Block("Small", Blob("pay", make([]byte, 1<<10)))},
			"Big":   {Name: "Big", Root: Block("Big", Blob("pay", make([]byte, 100<<10)))},
		},
		FixedPaths: []Path{{Models: []string{"Small", "Big"}}},
		Seed:       1,
		genProb:    1,
		mutateProb: never,
	}
	var (
		lens []int
		sent [][]byte
		edge uint32 // nonzero: the next Run covers it
	)
	e := NewEngine(cfg, TargetFunc(func(seq [][]byte, tr *coverage.Trace) *bugs.Crash {
		lens, sent = lens[:0], append(sent[:0], seq...)
		for _, m := range seq {
			lens = append(lens, len(m))
		}
		if edge != 0 {
			tr.Edge(edge, 1)
		}
		return nil
	}))
	bounded := func(step int) {
		t.Helper()
		if len(lens) != 2 || lens[0] != 1<<10 || lens[1] <= maxSlotBuf {
			t.Fatalf("step %d sent messages of %v bytes, want [1024 >%d]", step, lens, maxSlotBuf)
		}
		for i, b := range e.msgBufs {
			if cap(b) > maxSlotBuf {
				t.Fatalf("step %d: slot %d keeps a buffer of %d bytes, over %d", step, i, cap(b), maxSlotBuf)
			}
		}
		for i, m := range e.seqBuf[:cap(e.seqBuf)] {
			if cap(m) > maxSlotBuf {
				t.Fatalf("step %d: sequence entry %d holds a buffer of %d bytes, over %d", step, i, cap(m), maxSlotBuf)
			}
		}
	}
	e.Step()
	bounded(1)
	small := e.msgBufs[0]
	if cap(small) < 1<<10 {
		t.Fatalf("the 1 KiB slot kept a buffer of %d bytes", cap(small))
	}
	edge = 1
	if e.Step().NewEdges == 0 {
		t.Fatal("the covering step found no new edges")
	}
	bounded(2)
	if &e.msgBufs[0][:1][0] != &small[:1][0] {
		t.Fatal("the 1 KiB slot's buffer was not reused by the next step")
	}
	seed := e.LastSeed().Msgs
	if &seed[1][0] != &sent[1][0] || cap(seed[1]) != len(seed[1]) {
		t.Fatal("the seed copied the oversized message instead of taking its buffer, capacity clipped")
	}
	if &seed[0][0] == &small[0] || !bytes.Equal(seed[0], sent[0]) {
		t.Fatal("the seed's 1 KiB message is not a copy of the one sent")
	}
}

// TestCloneIsolatesLargeMessages: a seed's message over maxSlotBuf is
// copied into an array of its own, so a later seed that shares it (a
// havoc step that left it unwritten) pins nothing else; the small
// messages either side of it are packed next to each other.
func TestCloneIsolatesLargeMessages(t *testing.T) {
	big := bytes.Repeat([]byte{7}, maxSlotBuf+1)
	c := Seed{Msgs: [][]byte{{1, 2}, big, {3}}}.Clone()
	if !bytes.Equal(c.Msgs[1], big) || &c.Msgs[1][0] == &big[0] {
		t.Fatal("the large message is not a copy")
	}
	if unsafe.Add(unsafe.Pointer(&c.Msgs[0][0]), 2) != unsafe.Pointer(&c.Msgs[2][0]) {
		t.Fatal("the large message shares the array of the small ones")
	}
}

// TestConfigProbDefaults covers the zero-value trap fix: unset selects
// the documented default, the never sentinel selects exactly zero, and
// explicit probabilities — both endpoints — survive setDefaults.
func TestConfigProbDefaults(t *testing.T) {
	var unset Config
	unset.setDefaults()
	if unset.genProb != 0.5 || unset.mutateProb != 0.8 {
		t.Fatalf("unset probs = (%v, %v), want defaults (0.5, 0.8)", unset.genProb, unset.mutateProb)
	}
	zero := Config{genProb: never, mutateProb: never}
	zero.setDefaults()
	if zero.genProb != 0 || zero.mutateProb != 0 {
		t.Fatalf("never probs = (%v, %v), want (0, 0)", zero.genProb, zero.mutateProb)
	}
	always := Config{genProb: 1.0, mutateProb: 1.0}
	always.setDefaults()
	if always.genProb != 1.0 || always.mutateProb != 1.0 {
		t.Fatalf("explicit probs = (%v, %v), want (1, 1)", always.genProb, always.mutateProb)
	}
}

// TestNeverMutateSendsValidMessages checks the mutateProb endpoint
// behaviorally: with mutateProb never every generated message is the
// model's pristine serialization.
func TestNeverMutateSendsValidMessages(t *testing.T) {
	model := &DataModel{Name: "M", Root: Block("M",
		Num("hdr", 8, 0x42), Str("body", "fixed"), SizeOf("len", 8, "body"))}
	want := model.NewMessage(testRand()).Serialize()
	cfg := Config{
		Models:     map[string]*DataModel{"M": model},
		FixedPaths: []Path{{Models: []string{"M"}}},
		Seed:       3, genProb: 1.0, mutateProb: never,
	}
	bad := false
	target := TargetFunc(func(seq [][]byte, tr *coverage.Trace) *bugs.Crash {
		for _, msg := range seq {
			if !bytes.Equal(msg, want) {
				bad = true
			}
		}
		return nil
	})
	e := NewEngine(cfg, target)
	for i := 0; i < 200; i++ {
		e.Step()
	}
	if bad {
		t.Fatal("mutateProb: never still produced a mutated message")
	}
}

// TestNeverGenerateSticksToCorpus checks the genProb endpoint: with a
// non-empty corpus and genProb never, the engine never takes the
// structured-generation path (whose sequences are unmistakable: eight
// 4-byte 0xA7 messages).
func TestNeverGenerateSticksToCorpus(t *testing.T) {
	marker := []byte{0xA7, 0xA7, 0xA7, 0xA7}
	model := &DataModel{Name: "M", Root: Blob("M", marker)}
	path := Path{Models: []string{"M", "M", "M", "M", "M", "M", "M", "M"}}
	sawMarker := false
	target := TargetFunc(func(seq [][]byte, tr *coverage.Trace) *bugs.Crash {
		for i, msg := range seq {
			if bytes.Equal(msg, marker) {
				sawMarker = true
			}
			if len(msg) > 0 {
				tr.Edge(uint32(i), uint64(msg[0]))
			}
		}
		return nil
	})
	cfg := Config{
		Models:     map[string]*DataModel{"M": model},
		FixedPaths: []Path{path},
		Seed:       4, genProb: never, mutateProb: never,
	}
	e := NewEngine(cfg, target)
	e.ImportSeeds([]Seed{{Msgs: [][]byte{{0x01}}, Gain: 1}})
	for i := 0; i < 300; i++ {
		e.Step()
	}
	if sawMarker {
		t.Fatal("genProb: never still took the generation path")
	}
	// Control: with genProb 1 the marker sequence appears immediately.
	sawMarker = false
	ctrl := NewEngine(Config{
		Models:     map[string]*DataModel{"M": model},
		FixedPaths: []Path{path},
		Seed:       4, genProb: 1.0, mutateProb: never,
	}, target)
	ctrl.Step()
	if !sawMarker {
		t.Fatal("control engine did not generate the marker sequence")
	}
}

// TestGenerateModelPickDeterministic pins the no-state-model fallback:
// with several models and neither state model nor fixed paths, every
// generated packet must come from the lexicographically smallest model
// name, independent of map iteration order.
func TestGenerateModelPickDeterministic(t *testing.T) {
	build := func(names ...string) map[string]*DataModel {
		models := make(map[string]*DataModel, len(names))
		for i, n := range names {
			models[n] = &DataModel{Name: n, Root: Num(n, 8, uint64(0x10+i))}
		}
		return models
	}
	run := func(models map[string]*DataModel) []byte {
		var first []byte
		target := TargetFunc(func(seq [][]byte, tr *coverage.Trace) *bugs.Crash {
			if first == nil && len(seq) > 0 {
				first = append([]byte(nil), seq[0]...)
			}
			return nil
		})
		e := NewEngine(Config{Models: models, Seed: 21, genProb: 1.0, mutateProb: never}, target)
		for i := 0; i < 50; i++ {
			e.Step()
		}
		return first
	}
	// Two insertion orders of the same model set; "alpha" (value 0x10 in
	// the first ordering) must win in both.
	a := run(build("alpha", "mid", "zeta"))
	b := run(build("zeta", "mid", "alpha"))
	if len(a) != 1 || a[0] != 0x10 {
		t.Fatalf("fallback picked %x, want the alpha model (0x10)", a)
	}
	if len(b) != 1 || b[0] != 0x12 {
		// In the second ordering alpha was built with value 0x10+2.
		t.Fatalf("fallback picked %x under reversed insertion, want alpha (0x12)", b)
	}
}

// TestCompiledWalkMatchesWalk pins rng-draw equivalence between the
// interpreted and compiled state-model traversals, including tolerance
// of transitions to undefined states.
func TestCompiledWalkMatchesWalk(t *testing.T) {
	sm := &StateModel{
		Name:    "w",
		Initial: "a",
		States: map[string]*State{
			"a": {Name: "a", Actions: []Action{
				{Kind: ActionOutput, DataModel: "m1"},
				{Kind: ActionChangeState, To: "b"},
				{Kind: ActionChangeState, To: "a"},
			}},
			"b": {Name: "b", Actions: []Action{
				{Kind: ActionOutput, DataModel: "m2"},
				{Kind: ActionOutput, DataModel: "m3"},
				{Kind: ActionChangeState, To: "missing"}, // ends the walk, like Walk's nil lookup
				{Kind: ActionChangeState, To: "a"},
			}},
		},
	}
	models := map[string]*compiledModel{"m1": {}, "m2": {}, "m3": {}}
	c := sm.compile(models)
	for _, seed := range []int64{1, 2, 3, 99} {
		r1 := testRandSeed(seed)
		r2 := testRandSeed(seed)
		var buf []*compiledModel
		for i := 0; i < 300; i++ {
			want := sm.Walk(r1, 8)
			buf = c.walkInto(r2, 8, buf[:0])
			if len(want) != len(buf) {
				t.Fatalf("seed %d iter %d: lengths %d vs %d", seed, i, len(want), len(buf))
			}
			for j := range want {
				if models[want[j]] != buf[j] {
					t.Fatalf("seed %d iter %d: walk[%d] is not %q's model", seed, i, j, want[j])
				}
			}
		}
	}
}

// BenchmarkEngineStepSubjects is the ledger's fuzz.step_ns probe: every
// subject's Pit, default config, a target that does nothing.
func BenchmarkEngineStepSubjects(b *testing.B) {
	var engines []*Engine
	for _, sub := range protocols.All() {
		pit, err := ParsePit(sub.PitXML())
		if err != nil {
			b.Fatal(err)
		}
		e := subjectEngine(pit, 1, idleTarget)
		for i := 0; i < 500; i++ {
			e.Step()
		}
		engines = append(engines, e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engines[i%len(engines)].Step()
	}
}

// BenchmarkEngineStepGenerate is the pure structured-generation hot path
// (genProb 1, mutation off): the configuration TestStepAllocs gates at
// zero allocations.
func BenchmarkEngineStepGenerate(b *testing.B) {
	cfg := goldenConfig(10)
	cfg.genProb = 1.0
	cfg.mutateProb = never
	e := NewEngine(cfg, hotTarget)
	for i := 0; i < 512; i++ {
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
