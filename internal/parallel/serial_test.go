package parallel

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cmfuzz/internal/coverage"
	"cmfuzz/internal/fuzz"
	"cmfuzz/internal/protocols"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/telemetry"
)

// serialSource is the oracle the lease source is checked against: it
// steps the instances one at a time on the loop's goroutine and reads
// coverage straight off their engines, which are never ahead of the
// loop, counting executions, crashes, mutations and restart failures as
// they happen, and filing boot and restart crashes in the ledger itself.
// Each instance's corpus is followed by a fuzz.Corpus of its own, fed
// every addition and import in the engine's order.
type serialSource struct {
	loop   *Loop
	specs  []InstanceSpec
	insts  []*Instance
	corpus []*fuzz.Corpus
	n      []struct{ execs, crashes, muts, restarts int } // per instance
}

func (s *serialSource) Boot(i int) (int, error) {
	in, rep, err := s.loop.host.Boot(s.specs[i])
	s.record(rep.Crashes)
	if err != nil {
		return 0, err
	}
	s.insts = append(s.insts, in)
	s.corpus = append(s.corpus, fuzz.NewCorpus(0))
	s.n = append(s.n, struct{ execs, crashes, muts, restarts int }{})
	s.loop.Union.Union(in.engine.CoverageMap())
	return rep.StartEdges, nil
}

func (s *serialSource) record(crashes []CrashRec) {
	for k := range crashes {
		cr := &crashes[k]
		s.loop.Res.Bugs.Record(&cr.Crash, cr.Instance, cr.T, cr.Config)
	}
}

func (s *serialSource) Step(_ context.Context, i int) (Step, error) {
	step := s.insts[i].Step()
	s.n[i].execs++
	if step.Crash != nil {
		s.n[i].crashes++
	}
	if step.NewEdges > 0 {
		s.corpus[i].Add(s.insts[i].engine.LastSeed())
	}
	return step, nil
}

func (s *serialSource) Config(i int) string { return s.insts[i].cfg.String() }

func (s *serialSource) Merge(i int, union *coverage.Map) error {
	union.Union(s.insts[i].engine.CoverageMap())
	return nil
}

func (s *serialSource) Gauge(i int) Gauge {
	n := s.n[i]
	return Gauge{Edges: s.insts[i].engine.Coverage(), Execs: n.execs, Crashes: n.crashes, Mutations: n.muts, Corpus: s.corpus[i].Len()}
}

func (s *serialSource) Sync(i int) (int, error) {
	imported := 0
	for j, other := range s.corpus {
		if j != i {
			var seeds []fuzz.Seed
			for _, k := range other.Top(fuzz.SyncSeeds) {
				seeds = append(seeds, other.At(k))
			}
			imported += len(seeds)
			s.insts[i].engine.ImportSeeds(seeds)
			for _, seed := range seeds {
				s.corpus[i].Add(seed)
			}
		}
	}
	return imported, nil
}

func (s *serialSource) Saturated(i int) bool { return s.insts[i].saturated() }

func (s *serialSource) Mutate(i int) MutationOutcome {
	out := s.insts[i].Mutate()
	s.record(out.Crashes)
	s.insts[i].sat.Reset(s.insts[i].clock)
	s.n[i].muts += out.Mutations
	s.n[i].restarts += out.RestartFails
	return out
}

func (s *serialSource) Done(int) {}

func (s *serialSource) Result(i int) (InstanceResult, error) {
	in := s.insts[i]
	return InstanceResult{
		Index:           s.specs[i].Index,
		Config:          in.cfg.String(),
		Group:           in.group.Members,
		FinalBranches:   in.engine.Coverage(),
		Execs:           s.n[i].execs,
		Crashes:         s.n[i].crashes,
		ConfigMutations: s.n[i].muts,
		RestartFailures: s.n[i].restarts,
	}, nil
}

// openOn plans and boots a campaign of sub over the serial oracle or
// over the leases Run uses (Start), with the first leases out; done
// releases it.
func openOn(ctx context.Context, sub subject.Subject, opts Options, serial bool) (l *Loop, src Source, done func(), err error) {
	if !serial {
		if l, done, err = Start(ctx, sub, opts, (*Host).Plan); err != nil {
			return nil, nil, nil, err
		}
		return l, l.src, done, nil
	}
	host, err := NewHost(sub, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	l = NewLoop(host)
	done = l.Close
	plan, err := l.Plan(ctx, (*Host).Plan)
	if err != nil {
		done()
		return nil, nil, nil, err
	}
	src = &serialSource{loop: l, specs: plan.Specs}
	if err := l.Boot(ctx, src); err != nil {
		done()
		return nil, nil, nil, err
	}
	for i := range plan.Specs {
		src.Done(i)
	}
	return l, src, done, nil
}

// RunSerial is Run over the serial oracle, for the external tests.
func RunSerial(ctx context.Context, sub subject.Subject, opts Options) (*Result, error) {
	l, _, done, err := openOn(ctx, sub, opts, true)
	if err != nil {
		return nil, err
	}
	defer done()
	return l.Run(ctx)
}

// TestLanesMatchSerial is the lease source's oracle: every subject under
// every fuzzer, over a plain and an impaired link (loss 0.05, latency
// 0.01 + 0.02 jitter), must leave what the serial source leaves — at two
// bounds inside a lease, the instance summaries and gauges, the union,
// the series and the bug ledger; at the end, the Result, the counters and
// events.jsonl. Inside a lease is where an engine read would show: the
// instance has run past the loop there.
func TestLanesMatchSerial(t *testing.T) {
	ctx := context.Background()
	for _, sub := range protocols.All() {
		for _, mode := range []Mode{ModeCMFuzz, ModePeach, ModeSPFuzz} {
			for _, link := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/link=%v", sub.Info().Protocol, mode, link)
				transcript := func(serial bool) string {
					rec := telemetry.New()
					opts := Options{Mode: mode, VirtualHours: 0.75, Seed: 7, SaturationWindow: 300, Telemetry: rec}
					if link {
						opts.LinkLoss, opts.LinkLatencyBase, opts.LinkLatencyJitter = 0.05, 0.01, 0.02
					}
					l, src, done, err := openOn(ctx, sub, opts, serial)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					defer done()
					var buf bytes.Buffer
					for _, until := range []float64{1234.5, 2477} {
						if err := l.Advance(ctx, until); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						fmt.Fprintf(&buf, "at %v: union %d\n", until, l.Union.Count())
						for i := range l.clock {
							ir, err := src.Result(i)
							if err != nil {
								t.Fatal(err)
							}
							fmt.Fprintf(&buf, "%+v %+v\n", ir, src.Gauge(i))
						}
						fmt.Fprintln(&buf, l.Res.Series.Points(), l.Res.Bugs.Unique())
					}
					if err := l.Advance(ctx, l.Horizon()); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					res, err := l.Finish()
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					buf.Write(serializeResult(t, res))
					fmt.Fprintln(&buf, res.Counters)
					if err := rec.WriteJSONL(&buf); err != nil {
						t.Fatal(err)
					}
					return buf.String()
				}
				want, got := transcript(true), transcript(false)
				if got != want {
					w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
					for k := 0; k < len(w) && k < len(g); k++ {
						if w[k] != g[k] {
							t.Fatalf("%s: leases diverge from the serial source at line %d:\nserial: %s\nleases: %s", name, k+1, w[k], g[k])
						}
					}
					t.Fatalf("%s: leases left %d lines, the serial source %d", name, len(g), len(w))
				}
			}
		}
	}
}

// hookSubject wraps a subject to watch and steer the instances it boots:
// how many are started and not closed, how many Message calls are under
// way, and an optional hook run before every Message or Start.
type hookSubject struct {
	subject.Subject
	start   func() error
	message func()
	open    atomic.Int64
	active  atomic.Int64
}

type hookInstance struct {
	subject.Instance
	s       *hookSubject
	started bool
}

func (s *hookSubject) NewInstance() subject.Instance {
	return &hookInstance{Instance: s.Subject.NewInstance(), s: s}
}

func (in *hookInstance) Start(cfg map[string]string, tr *coverage.Trace) error {
	if in.s.start != nil {
		if err := in.s.start(); err != nil {
			return err
		}
	}
	err := in.Instance.Start(cfg, tr)
	if err == nil && !in.started {
		in.started = true
		in.s.open.Add(1)
	}
	return err
}

func (in *hookInstance) Message(p []byte) [][]byte {
	in.s.active.Add(1)
	defer in.s.active.Add(-1)
	if in.s.message != nil {
		in.s.message()
	}
	return in.Instance.Message(p)
}

func (in *hookInstance) Close() {
	if in.started {
		in.started = false
		in.s.open.Add(-1)
	}
	in.Instance.Close()
}

// quiesced fails t unless sub has no Message under way and no instance
// open — at once, since Run must join its leases before it returns — and
// the goroutine count falls back to before.
func quiesced(t *testing.T, sub *hookSubject, before int) {
	t.Helper()
	if n := sub.active.Load(); n != 0 {
		t.Fatalf("%d Message calls still under way after Run returned", n)
	}
	if n := sub.open.Load(); n != 0 {
		t.Fatalf("%d instances left open after Run returned", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunLeaksNoLease: a Run cancelled with leases in flight, and a Run
// whose second instance fails to boot, return with every lease joined
// and every booted instance closed.
func TestRunLeaksNoLease(t *testing.T) {
	before := runtime.NumGoroutine()
	sub := &hookSubject{Subject: mustSubject(t, "DNS")}
	if _, err := Run(newCountdownCtx(400), sub, Options{Mode: ModeCMFuzz, VirtualHours: 4, Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Run = %v, want context.Canceled", err)
	}
	quiesced(t, sub, before)

	// Peach boots each instance with one probe and one start; the third
	// start is instance 1's, and from there every start fails.
	var starts atomic.Int64
	sub = &hookSubject{Subject: mustSubject(t, "DNS")}
	sub.start = func() error {
		if starts.Add(1) > 2 {
			return errors.New("refused")
		}
		return nil
	}
	if _, err := Run(context.Background(), sub, Options{Mode: ModePeach, VirtualHours: 1, Seed: 1}); err == nil || !strings.Contains(err.Error(), "instance 1 failed to start") {
		t.Fatalf("Run with a failing boot = %v, want instance 1's boot error", err)
	}
	quiesced(t, sub, before)
}

// TestLeasePanicReraisesOnCaller: a subject that panics with anything but
// a *bugs.Crash inside a lease takes the campaign down on the caller's
// goroutine with that value, as it would stepping serially — after the
// other leases have been joined and the instances closed.
func TestLeasePanicReraisesOnCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	var calls atomic.Int64
	sub := &hookSubject{Subject: mustSubject(t, "DNS")}
	sub.message = func() {
		if calls.Add(1) == 500 {
			panic("subject defect")
		}
	}
	defer func() {
		if r := recover(); r != "subject defect" {
			t.Fatalf("recovered %v, want the subject's panic value", r)
		}
		quiesced(t, sub, before)
	}()
	Run(context.Background(), sub, Options{Mode: ModePeach, VirtualHours: 1, Seed: 1})
	t.Fatal("Run returned; want the lease's panic")
}
