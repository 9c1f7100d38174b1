package dist

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"slices"
	"strings"
	"testing"

	"cmfuzz/internal/coverage"
	"cmfuzz/internal/fuzz"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/protocols"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/telemetry"
	"cmfuzz/internal/wire"
)

// A promotion is a seed that Export(fuzz.SyncSeeds) does not pick right
// after the Add that inserted it, but picks later while the corpus still
// holds it. Export breaks gain ties by position, so a seed tying the
// fourth-highest gain can lose the tie when it is added and win it after
// an eviction has replaced a seed that won it. A record ships its seed
// when the seed's gain reaches the export floor, ties included, so a
// promoted seed's messages crossed the wire before any sync can ask for
// them.
//
// promotion builds one on a DNS instance, through the one lease executor
// (Instance.RunLease), one step per lease. A dry run on a twin instance
// finds the first step that adds a seed, and its gain g: the imports'
// gains do not steer the engine while the corpus has room, so the real
// run steps alike. The real run imports four seeds of gain g first, so
// the step's seed ties them at the floor and sits behind them; then a
// lease imports seeds of gain g until the corpus is full, and one of
// gain 0, which evicts the earliest seed of the lowest gain — a tied
// pick — and promotes the step's seed. The corpus is looked at right
// after those imports, before that lease's step: where a sibling's sync
// finds the instance's mirror once the instance's own sync is replayed.
type promotion struct {
	recs    []parallel.LeaseStep // every lease's one record, in order, as the worker produced it
	imports [][]fuzz.Seed        // every lease's imports, in order
	seed    int                  // index of the promoted seed's record
	engine  *fuzz.Corpus         // the instance's corpus after the last imports, messages whole
}

func buildPromotion(t *testing.T) *promotion {
	t.Helper()
	sub, err := protocols.ByName("DNS")
	if err != nil {
		t.Fatal(err)
	}
	host, err := parallel.NewHost(sub, parallel.Options{Mode: parallel.ModePeach, Instances: 1, VirtualHours: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	spec := parallel.InstanceSpec{Config: host.Defaults, EngineSeed: 11, RngSeed: 12}
	firsts := func(gain int) []fuzz.Seed {
		out := make([]fuzz.Seed, 4)
		for k := range out {
			out[k] = fuzz.Seed{Msgs: [][]byte{{0xb0, byte(k)}, {}}, Gain: gain}
		}
		return out
	}
	boot := func() *parallel.Instance {
		in, _, err := host.Boot(spec)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(in.Close)
		return in
	}

	// Dry run: at boundary 0 a lease takes one step.
	dry := boot()
	steps, g := 0, 0
	for imports := firsts(1000); g == 0; imports = nil {
		if steps++; steps > 500 {
			t.Fatal("no step of the dry run added a seed")
		}
		recs, _ := dry.RunLease(imports, 0, 3600)
		g = recs[0].NewEdges
	}

	p := &promotion{engine: fuzz.NewCorpus(0)}
	in := boot()
	// lease runs one and files its imports in the corpus; its record, the
	// caller.
	lease := func(imports []fuzz.Seed) parallel.LeaseStep {
		recs, _ := in.RunLease(imports, 0, 3600)
		p.imports = append(p.imports, imports)
		for _, s := range imports {
			p.engine.Add(s)
		}
		r := recs[0]
		r.Delta = bytes.Clone(r.Delta) // the instance reuses its delta buffer
		if r.NewEdges > 0 {
			r.Digest = r.Seed.Digest() // as a worker's lane does before encoding
		}
		p.recs = append(p.recs, r)
		return r
	}
	for imports := firsts(g); len(p.recs) < steps; imports = nil {
		if r := lease(imports); r.NewEdges > 0 {
			p.engine.Add(r.Seed)
		}
	}
	p.seed = steps - 1
	s := p.recs[p.seed]
	if s.NewEdges != g || p.engine.Len() != 5 {
		t.Fatalf("step %d of the real run added a seed of gain %d to a corpus of %d, the dry run one of gain %d to 5: the runs diverged", steps, s.NewEdges, p.engine.Len(), g)
	}
	if exported(p.engine, s.Digest) {
		t.Fatalf("the seed of gain %d behind four imports of gain %d is exported right away: no promotion to build", g, g)
	}

	fill := make([]fuzz.Seed, fuzz.DefaultMaxCorpus-p.engine.Len()+1)
	for k := range fill {
		fill[k] = fuzz.Seed{Msgs: [][]byte{{0xf1, byte(k), byte(k >> 8)}}, Gain: g}
	}
	fill[len(fill)-1].Gain = 0
	lease(fill)
	if !exported(p.engine, s.Digest) {
		t.Fatal("the gain-0 import promoted nothing")
	}
	return p
}

// syncExport returns the seeds a sync exports from c, in c.Top's order.
func syncExport(c *fuzz.Corpus) []fuzz.Seed {
	var out []fuzz.Seed
	for _, k := range c.Top(fuzz.SyncSeeds) {
		out = append(out, c.At(k))
	}
	return out
}

// exported reports whether c's sync export picks the seed with digest d.
func exported(c *fuzz.Corpus, d fuzz.Digest) bool {
	for _, s := range syncExport(c) {
		if s.Digest() == d {
			return true
		}
	}
	return false
}

// overWire returns recs as a coordinator receives them: encoded by a
// lane's encoder, one reply per record, and decoded.
func overWire(t *testing.T, recs []parallel.LeaseStep) []parallel.LeaseStep {
	t.Helper()
	var out []parallel.LeaseStep
	for k := range recs {
		c := codec{w: &wire.Writer{}}
		c.step(&recs[k])
		c.leaseTail(&leaseResult{SyncDue: true})
		lr, err := unmarshal(c.w.Bytes(), (*codec).leaseResult)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, lr.Steps...)
	}
	return out
}

// mirrorOf rebuilds the coordinator's mirror of the instance at the
// promotion, from recs, in the engine's order: each lease's imports,
// then its record, except the last lease's.
func mirrorOf(p *promotion, recs []parallel.LeaseStep) *parallel.Mirror {
	m := parallel.NewMirror()
	for k, r := range recs {
		m.Import(p.imports[k])
		if r.NewEdges > 0 && k < len(recs)-1 {
			m.Add(r.Seed, r.Digest, r.Ship)
		}
	}
	return m
}

// TestPromotionShipsTiedSeed: the reply that adds a seed tying the export
// floor ships the seed's messages though Export does not pick it yet,
// and once a lease's imports promote it, the coordinator's mirror —
// rebuilt from the replies as they crossed the wire — exports exactly
// what the instance's corpus exports, messages included.
func TestPromotionShipsTiedSeed(t *testing.T) {
	p := buildPromotion(t)
	recs := overWire(t, p.recs)
	s := recs[p.seed]
	if !s.Ship || !slices.EqualFunc(s.Seed.Msgs, p.recs[p.seed].Seed.Msgs, bytes.Equal) {
		t.Fatalf("the reply adding the tied seed %v ships %v, messages %q", s.Digest, s.Ship, s.Seed.Msgs)
	}
	got, err := mirrorOf(p, recs).Export(fuzz.SyncSeeds)
	if err != nil {
		t.Fatal(err)
	}
	want := syncExport(p.engine)
	if len(got) != len(want) {
		t.Fatalf("the mirror exports %d seeds, the instance %d", len(got), len(want))
	}
	for k := range want {
		if got[k].Gain != want[k].Gain || !slices.EqualFunc(got[k].Msgs, want[k].Msgs, bytes.Equal) {
			t.Fatalf("export %d: the mirror's %+v, the instance's %+v", k, got[k], want[k])
		}
	}
}

// TestPromotionStrippedFails: a reply stripped of a seed's messages
// fails the campaign at the first sync that exports the seed, naming
// the instance and the digest, and no lease carries that sync's imports.
// On one instance, stripping the promoted seed's reply leaves its mirror
// unable to serve a sibling's sync. Over a loopback campaign, stripping
// the reply of a seed a sync exports (through the coordinator's reply
// hook) makes Advance fail at that sync.
func TestPromotionStrippedFails(t *testing.T) {
	p := buildPromotion(t)
	recs := overWire(t, p.recs)
	s := &recs[p.seed]
	if !s.Ship {
		t.Fatalf("the reply adding the tied seed %v does not ship it: nothing to strip", s.Digest)
	}
	s.Ship, s.Seed.Msgs = false, nil
	src := parallel.NewLeaseSource(nil, make([]parallel.InstanceSpec, 2), parallel.Transport{})
	src.Inst[0].Mirror, src.Inst[1].Mirror = mirrorOf(p, recs), parallel.NewMirror()
	_, err := src.Sync(1)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("instance 0 exports seed %v", s.Digest)) {
		t.Fatalf("sync from a mirror missing the promoted seed's messages = %v, want a failure naming instance 0 and seed %v", err, s.Digest)
	}
	t.Log(err)

	// The campaign: find a seed instance 0 ships that instance 1 imports,
	// then run again stripping it.
	sub, err := protocols.ByName("DNS")
	if err != nil {
		t.Fatal(err)
	}
	opts := parallel.Options{Mode: parallel.ModeCMFuzz, Instances: 2, VirtualHours: 0.25, Seed: 7, Concurrency: 1}
	ctx := context.Background()
	first, closeFirst := pipeCoordinator(t, sub, opts, 2)
	if err := first.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := first.Advance(ctx, first.Horizon()); err != nil {
		t.Fatal(err)
	}
	var victim fuzz.Digest
	found := false
	for _, j := range first.inst[1].journal {
		if len(j.Seeds) > 0 {
			victim, found = j.Seeds[0].Digest(), true
			break
		}
	}
	closeFirst()
	if !found {
		t.Fatal("instance 1 never imports a seed: the test checks nothing")
	}
	coord, closeCoord := pipeCoordinator(t, sub, opts, 2)
	defer closeCoord()
	stripped := 0
	coord.onReply = func(i int, recs []parallel.LeaseStep) {
		for k := range recs {
			if r := &recs[k]; i == 0 && r.NewEdges > 0 && r.Digest == victim && r.Ship {
				r.Ship, r.Seed.Msgs = false, nil
				stripped++
			}
		}
	}
	if err := coord.Start(ctx); err != nil {
		t.Fatal(err)
	}
	err = coord.Advance(ctx, coord.Horizon())
	if stripped == 0 {
		t.Fatalf("no reply of instance 0 shipped seed %v", victim)
	}
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("sync of instance 1: instance 0 exports seed %v", victim)) {
		t.Fatalf("campaign with seed %v stripped from instance 0's reply = %v, want a failure naming both", victim, err)
	}
	t.Log(err)
}

// tiedSubject is DNS with its message coverage replaced: a session's
// first message covers a pair of edges picked by its hash until the
// instance has opened tiedSessions sessions, and one edge afterwards.
// Every seed an instance adds before then has gain 2, so its corpus
// fills with seeds tying the export floor; the first seed after it has
// gain 1, and the eviction that makes room for it takes the earliest of
// the tied seeds Export picks, promoting an older one.
type tiedSubject struct{ subject.Subject }

const tiedSessions = 1500

func (s tiedSubject) NewInstance() subject.Instance { return &tiedInstance{} }

type tiedInstance struct {
	tr       *coverage.Trace
	sessions int
	first    bool
}

func (in *tiedInstance) Start(_ map[string]string, tr *coverage.Trace) error {
	tr.Hit(1)
	return nil
}
func (in *tiedInstance) SetTrace(tr *coverage.Trace) { in.tr = tr }
func (in *tiedInstance) NewSession()                 { in.sessions, in.first = in.sessions+1, true }
func (in *tiedInstance) Close()                      {}

func (in *tiedInstance) Message(p []byte) [][]byte {
	if !in.first {
		return nil
	}
	in.first = false
	h := uint32(2166136261) // FNV-1a
	for _, b := range p {
		h = (h ^ uint32(b)) * 16777619
	}
	if site := h % 1000; in.sessions <= tiedSessions {
		in.tr.Hit(100 + 2*site)
		in.tr.Hit(101 + 2*site)
	} else {
		in.tr.Hit(3000 + site)
	}
	return nil
}

// watchPromotions counts, through coord's reply hook, the seeds a sync
// exports that Export did not pick right after the Add that inserted
// them: it rebuilds each instance's corpus in the engine's order, each
// lease's imports (from the journal) then its records.
func watchPromotions(t *testing.T, coord *Coordinator) *int {
	promotions := 0
	corpus := map[int]*fuzz.Corpus{}
	digests := map[int][]fuzz.Digest{}
	pickedWhenAdded := map[fuzz.Digest]bool{}
	coord.onReply = func(i int, recs []parallel.LeaseStep) {
		if corpus[i] == nil {
			corpus[i] = fuzz.NewCorpus(0)
		}
		add := func(gain int, d fuzz.Digest) bool {
			k := corpus[i].Add(fuzz.Seed{Gain: gain})
			if k == len(digests[i]) {
				digests[i] = append(digests[i], d)
			} else {
				digests[i][k] = d
			}
			for _, top := range corpus[i].Top(fuzz.SyncSeeds) {
				if top == k {
					return true
				}
			}
			return false
		}
		journal := coord.inst[i].journal
		for _, s := range journal[len(journal)-1].Seeds {
			d := s.Digest()
			if picked, ok := pickedWhenAdded[d]; ok && !picked {
				promotions++
			}
			add(s.Gain, d)
		}
		for _, r := range recs {
			if r.NewEdges == 0 {
				continue
			}
			picked := add(r.NewEdges, r.Digest)
			if _, ok := pickedWhenAdded[r.Digest]; !ok {
				pickedWhenAdded[r.Digest] = picked
			}
		}
	}
	return &promotions
}

// TestPromotionOverLoopbackMatchesInProcess: a campaign whose corpora
// fill with tied seeds and then evict tied picks promotes seeds into
// sibling syncs' exports; over the lease wire it finishes byte-identical
// to the in-process run, every promoted seed's messages having crossed
// in the reply that added it.
func TestPromotionOverLoopbackMatchesInProcess(t *testing.T) {
	dns, err := protocols.ByName("DNS")
	if err != nil {
		t.Fatal(err)
	}
	sub := tiedSubject{dns}
	opts := func() parallel.Options {
		return parallel.Options{Mode: parallel.ModePeach, Instances: 2, VirtualHours: 2, Seed: 5, Telemetry: telemetry.New()}
	}
	ctx := context.Background()
	o := opts()
	res, err := parallel.Run(ctx, sub, o)
	if err != nil {
		t.Fatal(err)
	}
	want := artifactTree(t, res, o.Telemetry)

	coord := NewCoordinator(sub, opts(), Config{HeartbeatInterval: -1})
	cConn, wConn := net.Pipe()
	served := make(chan error, 1)
	go func() {
		served <- NewWorker(WorkerConfig{Name: "w", Resolve: func(string) (subject.Subject, error) { return sub, nil }}).Serve(wConn)
	}()
	defer func() {
		coord.Close()
		if err := <-served; err != nil {
			t.Error(err)
		}
	}()
	if err := coord.AddConn(cConn); err != nil {
		t.Fatal(err)
	}
	promotions := watchPromotions(t, coord)
	if err := coord.Start(ctx); err != nil {
		t.Fatal(err)
	}
	got := finishTree(t, coord)
	if *promotions == 0 {
		t.Fatal("no sync exported a promoted seed: the test checks nothing")
	}
	t.Logf("%d promoted seeds exported", *promotions)
	if len(got) != len(want) {
		t.Fatalf("%d artifacts over the lease wire, %d in-process", len(got), len(want))
	}
	for rel, a := range want {
		if got[rel] != a {
			t.Fatalf("artifact %s diverged between in-process and loopback runs", rel)
		}
	}
}
