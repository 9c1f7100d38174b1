package fuzz

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/coverage"
)

// goldenDigest is the SHA-256 of every byte the golden engine run sends,
// plus its final counters, captured on the pre-optimization dense/allocating
// engine. The pooled, sparse-coverage engine must reproduce it exactly:
// same seeds => byte-identical artifacts is the contract that lets the
// allocation work claim "no observable behavior change".
const goldenDigest = "0d593ecbe4766a0040f083bed8a56019c59779498f08aa223fb264559ded9f66"

// goldenTarget folds every executed message into a running hash and derives
// coverage (and the occasional crash) from the bytes themselves, so the
// digest pins the full exec stream, not just aggregate counters. It
// counts the executions, crashes and bytes it sees.
type goldenTarget struct {
	h                     hash.Hash
	execs, crashes, bytes int
}

func (g *goldenTarget) Run(seq [][]byte, tr *coverage.Trace) *bugs.Crash {
	g.execs++
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(seq)))
	g.h.Write(lenBuf[:])
	var crash *bugs.Crash
	for i, msg := range seq {
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(msg)))
		g.h.Write(lenBuf[:])
		g.h.Write(msg)
		g.bytes += len(msg)
		for j, b := range msg {
			if j >= 12 {
				break
			}
			tr.Edge(uint32(i*16+j), uint64(b>>4))
		}
		if len(msg) >= 3 && msg[0]^msg[1] == 0x5a && crash == nil {
			crash = &bugs.Crash{Protocol: "GOLD", Kind: bugs.SEGV, Function: "parse"}
		}
	}
	if crash != nil {
		g.crashes++
	}
	return crash
}

// goldenConfig exercises every data-model feature on the serialization hot
// path: blocks, choices, tokens, fixed-width and varint numbers, size
// relations, strings and blobs, plus a branching state model so Walk draws
// from the rng.
func goldenConfig(seed int64) Config {
	models := map[string]*DataModel{
		"Connect": {Name: "Connect", Root: Block("Connect",
			Token("magic", 16, 0xC0DE),
			Choice("mode",
				Num("plain", 8, 1),
				Block("auth", Num("kind", 8, 2), Str("user", "anon")),
			),
			VarintOf("remlen", "payload"),
			Block("payload", Str("client", "golden-client"), Blob("cookie", []byte{1, 2, 3, 4})),
		)},
		"Publish": {Name: "Publish", Root: Block("Publish",
			Num("hdr", 8, 0x30),
			SizeOf("len", 16, "body"),
			Block("body", Str("topic", "a/b"), NumLE("id", 16, 7), Blob("data", []byte("payload"))),
		)},
		"Ping": {Name: "Ping", Root: Block("Ping", Num("hdr", 8, 0xC0), Num("z", 8, 0))},
	}
	sm := &StateModel{
		Name:    "gold",
		Initial: "init",
		States: map[string]*State{
			"init": {Name: "init", Actions: []Action{
				{Kind: ActionOutput, DataModel: "Connect"},
				{Kind: ActionChangeState, To: "ready"},
			}},
			"ready": {Name: "ready", Actions: []Action{
				{Kind: ActionOutput, DataModel: "Publish"},
				{Kind: ActionChangeState, To: "ready"},
				{Kind: ActionChangeState, To: "idle"},
			}},
			"idle": {Name: "idle", Actions: []Action{
				{Kind: ActionOutput, DataModel: "Ping"},
			}},
		},
	}
	return Config{Models: models, StateModel: sm, Seed: seed, maxCorpus: 32, maxWalkSteps: 6}
}

// TestEngineGoldenByteIdentity replays a two-engine campaign slice (steps
// plus periodic seed synchronization, the parallel-mode hot loop) and
// checks the exec stream digest against the pre-optimization capture.
func TestEngineGoldenByteIdentity(t *testing.T) {
	h := sha256.New()
	tgtA := &goldenTarget{h: h}
	tgtB := &goldenTarget{h: h}
	a := NewEngine(goldenConfig(424242), tgtA)
	b := NewEngine(goldenConfig(910910), tgtB)
	for i := 0; i < 1500; i++ {
		a.Step()
		b.Step()
		if i%100 == 99 {
			b.ImportSeeds(topSeeds(a.corpus, 4))
			a.ImportSeeds(topSeeds(b.corpus, 4))
		}
	}
	for _, run := range []struct {
		e   *Engine
		tgt *goldenTarget
	}{{a, tgtA}, {b, tgtB}} {
		fmt.Fprintf(h, "execs=%d crashes=%d corpus=%d bytes=%d cov=%d\n",
			run.tgt.execs, run.tgt.crashes, run.e.corpus.Len(), run.tgt.bytes, run.e.Coverage())
	}
	got := hex.EncodeToString(h.Sum(nil))
	if got != goldenDigest {
		t.Fatalf("engine exec stream diverged from pre-optimization golden\n got: %s\nwant: %s", got, goldenDigest)
	}
}
