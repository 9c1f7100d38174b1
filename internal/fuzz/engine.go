package fuzz

import (
	"math/rand"
	"slices"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/coverage"
)

// A Target is the system under test as the engine sees it: one call runs
// a full message sequence against a fresh protocol session, records branch
// coverage into tr, and reports a crash if a seeded defect fired.
//
// The engine reuses seq's backing buffers across iterations: a Target
// must not retain seq or its messages past the Run call (copy anything
// it needs to keep). And seq's messages are read-only, the spare
// capacity past each included: one may be a corpus seed's own bytes,
// which havoc hands over without a copy and which in-process sync shares
// with instances on other goroutines.
type Target interface {
	Run(seq [][]byte, tr *coverage.Trace) *bugs.Crash
}

// TargetFunc adapts a function to the Target interface.
type TargetFunc func(seq [][]byte, tr *coverage.Trace) *bugs.Crash

// Run calls f.
func (f TargetFunc) Run(seq [][]byte, tr *coverage.Trace) *bugs.Crash {
	return f(seq, tr)
}

// Config parameterizes an engine instance. The unexported knobs are
// this package's tests' to set; everywhere else they keep their
// defaults.
type Config struct {
	// Models indexes the data models by name.
	Models map[string]*DataModel
	// StateModel drives message sequencing.
	StateModel *StateModel
	// Seed makes the instance deterministic.
	Seed int64
	// FixedPaths, when non-empty, restricts generation to these state
	// model paths (SPFuzz assigns each instance a disjoint path subset).
	FixedPaths []Path

	// genProb is the probability of structured generation from the models
	// versus byte-level havoc of a corpus seed. The zero value selects
	// the default (0.5); any negative value — use the never sentinel —
	// pins it to exactly 0 ("never generate"), which a literal 0 cannot
	// express because it is indistinguishable from unset.
	genProb float64
	// mutateProb is the probability that a freshly generated message gets
	// structural mutations at all; the remainder are sent valid to drive
	// the state machine deep. The zero value selects the default (0.8);
	// any negative value — use never — pins it to exactly 0 ("never
	// mutate").
	mutateProb float64
	// maxWalkSteps bounds state model traversal (default 8).
	maxWalkSteps int
	// maxCorpus bounds the seed pool (default 256).
	maxCorpus int
}

// never is the sentinel for Config probability fields (genProb,
// mutateProb) meaning "probability exactly 0". A literal 0 cannot carry
// that meaning: it is the zero value, so setDefaults must read it as
// "unset, use the default".
const never = -1.0

func (c *Config) setDefaults() {
	switch {
	case c.genProb == 0:
		c.genProb = 0.5
	case c.genProb < 0:
		c.genProb = 0
	}
	switch {
	case c.mutateProb == 0:
		c.mutateProb = 0.8
	case c.mutateProb < 0:
		c.mutateProb = 0
	}
	if c.maxWalkSteps == 0 {
		c.maxWalkSteps = 8
	}
	if c.maxCorpus == 0 {
		c.maxCorpus = DefaultMaxCorpus
	}
}

// A Seed is one message sequence that produced new coverage.
type Seed struct {
	Msgs [][]byte
	Gain int // edges it discovered when first executed
}

// StepResult reports one fuzzing iteration.
type StepResult struct {
	NewEdges int
	Crash    *bugs.Crash
	Bytes    int
}

// An Engine is one fuzzing instance's generation/mutation loop with
// coverage feedback — the Peach execution core.
//
// The engine owns a set of per-instance scratch structures (compiled data
// models, message and byte arena, serialize buffers, walk and sequence
// slices) that make the steady-state Step path allocation-free for
// messages up to maxSlotBuf (64 KiB): a step that discovers nothing new
// reuses every buffer of the previous step. A slot buffer that grew past
// that is dropped at the end of its step, so the next message built in
// that slot allocates again. Havoc's sequence starts as references to
// its seed's messages and copies into a slot buffer only an entry it
// writes. Sequences that do earn a corpus slot are deep-copied out of
// the scratch first (a buffer about to be dropped, or a corpus seed's
// own message, moves into the seed instead), so corpus seeds never
// alias reused buffers.
type Engine struct {
	cfg      Config
	target   Target
	rng      *rand.Rand
	trace    *coverage.Trace
	global   *coverage.Map
	corpus   *Corpus
	lastSeed Seed // most recent corpus addition; see LastSeed

	// The compiled data models, resolved from their names once: each
	// fixed path's, the state model's walk, and the no-state-model pick.
	// A name no model has resolves to nil, and generate skips it.
	paths    [][]*compiledModel
	walker   *compiledStateModel
	fallback []*compiledModel

	// Hot-path scratch, reused across Steps.
	msg       Message
	arena     *Arena
	walkBuf   []*compiledModel
	seqBuf    [][]byte
	msgBufs   [][]byte // per-slot wire buffers backing seqBuf entries, each at most maxSlotBuf between steps
	owned     []bool   // havoc's: owned[i] when seqBuf[i] is a buffer only it refers to, so havoc may write it
	spliceBuf [][]byte // splice's sequence: references into two corpus seeds
}

// NewEngine returns an engine fuzzing target under cfg.
func NewEngine(cfg Config, target Target) *Engine {
	cfg.setDefaults()
	e := &Engine{
		cfg:    cfg,
		target: target,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		trace:  coverage.NewTrace(),
		global: coverage.NewMap(),
		corpus: NewCorpus(cfg.maxCorpus),
		arena:  NewArena(),
	}
	models := make(map[string]*compiledModel, len(cfg.Models))
	names := make([]string, 0, len(cfg.Models))
	for name, dm := range cfg.Models {
		models[name] = compileModel(dm)
		names = append(names, name)
	}
	for _, p := range cfg.FixedPaths {
		e.paths = append(e.paths, resolve(models, p.Models))
	}
	if cfg.StateModel != nil {
		e.walker = cfg.StateModel.compile(models)
	}
	if len(names) > 0 {
		// No state model: fuzz the lexicographically smallest data model
		// as a standalone packet. (Map-range order here would make the
		// pick nondeterministic across runs.)
		e.fallback = []*compiledModel{models[slices.Min(names)]}
	}
	return e
}

// resolve maps model names to their compiled models, nil where there is
// none.
func resolve(models map[string]*compiledModel, names []string) []*compiledModel {
	out := make([]*compiledModel, len(names))
	for i, name := range names {
		out[i] = models[name]
	}
	return out
}

// Coverage returns the instance's cumulative covered-branch count.
func (e *Engine) Coverage() int { return e.global.Count() }

// CoverageMap returns the instance's cumulative coverage map (live; do
// not modify).
func (e *Engine) CoverageMap() *coverage.Map { return e.global }

// TraceMap returns the per-exec trace map of the most recent Step
// (live; do not modify). It is valid only until the next Step resets
// it; the distributed worker reads it there to bound delta encoding to
// the words the execution actually touched.
func (e *Engine) TraceMap() *coverage.Map { return e.trace.Map() }

// Absorb folds an externally produced coverage map (typically startup
// coverage from booting the instance) into the cumulative instance map
// and returns how many edges were new.
func (e *Engine) Absorb(m *coverage.Map) int { return e.global.Union(m) }

// LastSeed returns the most recent corpus addition. It is meaningful
// only immediately after a Step that reported NewEdges > 0; a lease
// reads it there to record the addition for its source's corpus mirror.
func (e *Engine) LastSeed() Seed { return e.lastSeed }

// ExportFloor is the corpus's Corpus.ExportFloor. Read right after a
// Step that added a seed, it tells whether a sync may ever export it.
func (e *Engine) ExportFloor() int { return e.corpus.ExportFloor() }

// Step executes one fuzzing iteration: build a message sequence
// (structured generation or corpus havoc), run it, fold its coverage into
// the instance map, and keep it as a seed if it found new edges.
func (e *Engine) Step() StepResult {
	var seq [][]byte
	switch {
	case e.corpus.Len() == 0 || e.rng.Float64() < e.cfg.genProb:
		seq = e.generate()
	case e.corpus.Len() >= 2 && e.rng.Float64() < 0.2:
		// Splice two corpus seeds: the head of one sequence followed by
		// the tail of another, recombining progress from synchronized
		// siblings.
		seq = e.splice(e.corpus.At(e.rng.Intn(e.corpus.Len())), e.corpus.At(e.rng.Intn(e.corpus.Len())))
	default:
		seq = e.havoc(e.corpus.At(e.rng.Intn(e.corpus.Len())))
	}

	e.trace.Reset()
	crash := e.target.Run(seq, e.trace)
	newEdges := e.global.Union(e.trace.Map())

	res := StepResult{NewEdges: newEdges, Crash: crash}
	for _, m := range seq {
		res.Bytes += len(m)
	}
	if newEdges > 0 {
		// The sequence earned a corpus slot: copy it out of the reused
		// step buffers so the seed owns its bytes. A buffer trimScratch
		// is about to drop moves into the seed instead.
		e.lastSeed = Seed{Msgs: cloneMsgs(seq, true), Gain: newEdges}
		e.corpus.Add(e.lastSeed)
	}
	e.trimScratch()
	return res
}

// maxSlotBuf is the largest capacity a slot buffer keeps from one step to
// the next. About one step in 1,400 builds a message over it, but
// chained StringRepeats reach megabytes, and a buffer kept at the
// largest message its slot ever held would make that the instance's
// footprint for the rest of the campaign. The rule and its bound are the
// ones fmt applies to its printer buffers (fmt.(*pp).free).
const maxSlotBuf = 64 << 10

// trimScratch drops every slot buffer over maxSlotBuf, so nothing of an
// oversized message outlives its step, and forgets the step's sequences:
// their entries may be a corpus seed's own bytes (havoc and splice copy
// only what they write), which an entry kept here would pin after the
// corpus evicted the seed. Only capacity changes: the next step appends
// the same bytes into a fresh buffer.
func (e *Engine) trimScratch() {
	for i, b := range e.msgBufs {
		if cap(b) > maxSlotBuf {
			e.msgBufs[i] = nil
		}
	}
	clear(e.seqBuf)
	clear(e.spliceBuf)
}

// Clone returns a copy of s whose messages share no memory with s's.
func (s Seed) Clone() Seed { return Seed{Msgs: cloneMsgs(s.Msgs, false), Gain: s.Gain} }

// cloneMsgs copies seq into one backing array; an empty message stays nil,
// and one over maxSlotBuf is copied into an array of its own, so that a
// seed's large message pins nothing else. With move, a message whose
// buffer is over maxSlotBuf and at least seven-eighths full is taken as
// it is (capacity clipped) instead of copied, and pins at most an eighth
// more than its bytes: a step's sequence holds such a buffer only until
// trimScratch drops it, or it is an older seed's message, which nothing
// writes, so the new seed can share it.
func cloneMsgs(seq [][]byte, move bool) [][]byte {
	moves := func(m []byte) bool { return move && cap(m) > maxSlotBuf && len(m) >= cap(m)-cap(m)/8 }
	n := 0
	for _, m := range seq {
		if !moves(m) && len(m) <= maxSlotBuf {
			n += len(m)
		}
	}
	out, buf := make([][]byte, len(seq)), make([]byte, 0, n)
	for i, m := range seq {
		switch {
		case moves(m):
			out[i] = m[:len(m):len(m)]
		case len(m) > maxSlotBuf:
			out[i] = slices.Clone(m)
		case len(m) > 0:
			buf = append(buf, m...)
			out[i] = buf[len(buf)-len(m) : len(buf) : len(buf)]
		}
	}
	return out
}

// slotBuf returns the reusable wire buffer for sequence slot i, emptied
// and ready to append into; the caller stores the grown result back via
// e.msgBufs[i] so capacity survives to the next step.
func (e *Engine) slotBuf(i int) []byte {
	for len(e.msgBufs) <= i {
		e.msgBufs = append(e.msgBufs, nil)
	}
	return e.msgBufs[i][:0]
}

// generate walks the state model (or a fixed assigned path) and
// instantiates each output's data model, optionally mutating fields. Each
// message reuses the engine's one Message, the leaves it writes copy their
// bytes into the per-engine arena, and wire bytes land in per-slot reused
// buffers, so a warmed-up generate allocates nothing while its messages
// stay within maxSlotBuf (a slot that held a larger one starts afresh).
func (e *Engine) generate() [][]byte {
	var models []*compiledModel
	if len(e.paths) > 0 {
		models = e.paths[e.rng.Intn(len(e.paths))]
	} else if e.walker != nil {
		e.walkBuf = e.walker.walkInto(e.rng, e.cfg.maxWalkSteps, e.walkBuf[:0])
		models = e.walkBuf
	}
	if len(models) == 0 {
		models = e.fallback
	}
	e.arena.Reset()
	seq := e.seqBuf[:0]
	for _, cm := range models {
		if cm == nil {
			continue
		}
		cm.instantiate(&e.msg, e.arena, e.rng)
		if e.rng.Float64() < e.cfg.mutateProb {
			MutateMessage(&e.msg, e.rng)
		}
		buf := e.msg.appendTo(e.slotBuf(len(seq)))
		e.msgBufs[len(seq)] = buf
		seq = append(seq, buf)
	}
	e.seqBuf = seq
	return seq
}

// havoc applies byte-level transformations to a corpus seed: flips,
// random bytes, truncation, duplication of whole messages, random tails.
// The sequence starts as references to the seed's messages, which are
// never written (in-process sync shares them between instances): the
// first operation that writes an entry copies it into the next unused
// slot buffer, and truncation and duplication only reslice or alias, so
// a warmed-up havoc allocates nothing.
func (e *Engine) havoc(s Seed) [][]byte {
	seq := append(e.seqBuf[:0], s.Msgs...)
	e.seqBuf = seq
	if len(seq) == 0 {
		return seq
	}
	owned := e.owned[:0]
	for range seq {
		owned = append(owned, false)
	}
	slots := 0 // slot buffers copied into so far
	// own makes seq[mi] writable, appending tail: in place when the
	// entry already owns its buffer, else as a copy into a fresh slot.
	own := func(mi int, tail []byte) []byte {
		if owned[mi] {
			seq[mi] = append(seq[mi], tail...)
		} else {
			buf := append(append(e.slotBuf(slots), seq[mi]...), tail...)
			e.msgBufs[slots] = buf
			slots++
			seq[mi], owned[mi] = buf, true
		}
		return seq[mi]
	}
	ops := 1 + e.rng.Intn(4)
	for i := 0; i < ops; i++ {
		mi := e.rng.Intn(len(seq))
		m := seq[mi]
		switch e.rng.Intn(5) {
		case 0: // bit flip
			if len(m) > 0 {
				bit := e.rng.Intn(len(m) * 8)
				own(mi, nil)[bit/8] ^= 1 << uint(bit%8)
			}
		case 1: // random byte
			if len(m) > 0 {
				own(mi, nil)[e.rng.Intn(len(m))] = byte(e.rng.Intn(256))
			}
		case 2: // truncate
			if len(m) > 1 {
				seq[mi] = m[:1+e.rng.Intn(len(m)-1)]
			}
		case 3: // duplicate a message in the sequence
			if len(seq) < 16 {
				// Both entries share m's bytes, so neither may write them.
				seq = slices.Insert(seq, mi, m)
				owned = slices.Insert(owned, mi, false)
				owned[mi+1] = false
			}
		case 4: // append random tail
			var tail [8]byte
			n := 1 + e.rng.Intn(8)
			for j := range n {
				tail[j] = byte(e.rng.Intn(256))
			}
			own(mi, tail[:n])
		}
	}
	e.seqBuf, e.owned = seq, owned
	return seq
}

// splice builds a sequence from a prefix of one seed and a suffix of
// another, then applies light havoc. The spliced sequence only references
// the seeds' messages; havoc copies those it writes.
func (e *Engine) splice(a, b Seed) [][]byte {
	cut1 := 0
	if len(a.Msgs) > 0 {
		cut1 = 1 + e.rng.Intn(len(a.Msgs))
	}
	cut2 := 0
	if len(b.Msgs) > 0 {
		cut2 = e.rng.Intn(len(b.Msgs))
	}
	seq := append(append(e.spliceBuf[:0], a.Msgs[:cut1]...), b.Msgs[cut2:]...)
	if len(seq) > 16 {
		seq = seq[:16]
	}
	e.spliceBuf = seq
	return e.havoc(Seed{Msgs: seq})
}

// ImportSeeds folds synchronized seeds from a sibling instance into the
// corpus.
func (e *Engine) ImportSeeds(seeds []Seed) {
	for _, s := range seeds {
		e.corpus.Add(s)
	}
}
