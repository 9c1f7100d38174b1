package parallel

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"cmfuzz/internal/core/configspec"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/protocols"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/telemetry"
)

// twoSMSubject is a minimal subject whose Pit declares TWO state models
// with observably different traffic (different data models, different
// message sizes), so a nondeterministic state-model pick changes the
// campaign outcome.
type twoSMSubject struct{}

func (twoSMSubject) Info() subject.Info {
	return subject.Info{Protocol: "2SM", Implementation: "twosm", Transport: subject.Datagram, Port: 9998}
}
func (twoSMSubject) ConfigInput() configspec.Input { return configspec.Input{} }
func (twoSMSubject) PitXML() string {
	return `<Peach>
  <DataModel name="Short"><String name="s" value="AAAA"/></DataModel>
  <DataModel name="Long"><String name="s" value="BBBBBBBBBBBBBBBBBBBBBBBB"/></DataModel>
  <StateModel name="Zeta" initialState="s0">
    <State name="s0"><Action type="output" dataModel="Short"/></State>
  </StateModel>
  <StateModel name="Alpha" initialState="s0">
    <State name="s0"><Action type="output" dataModel="Long"/></State>
  </StateModel>
</Peach>`
}
func (twoSMSubject) NewInstance() subject.Instance { return &twoSMInstance{} }

type twoSMInstance struct{ tr *coverage.Trace }

func (i *twoSMInstance) Start(cfg map[string]string, tr *coverage.Trace) error {
	tr.Hit(1)
	return nil
}
func (i *twoSMInstance) SetTrace(tr *coverage.Trace) { i.tr = tr }
func (i *twoSMInstance) NewSession()                 {}
func (i *twoSMInstance) Message(p []byte) [][]byte {
	// Coverage depends on the payload content, so the two state models
	// reach different edges.
	for pos, b := range p {
		if pos > 8 {
			break
		}
		i.tr.Edge(uint32(pos), uint64(b))
	}
	return nil
}
func (i *twoSMInstance) Close() {}

// TestRunDeterministicWithTwoStateModels is the regression test for the
// state-model selection bug: `for _, m := range pit.StateModels` picked a
// map-iteration-random model, so a Pit with several state models made
// campaigns (and SPFuzz path partitions) unreproducible. Document-order
// selection must make repeated runs identical.
func TestRunDeterministicWithTwoStateModels(t *testing.T) {
	for _, mode := range []Mode{ModePeach, ModeSPFuzz} {
		var base *Result
		for try := 0; try < 8; try++ {
			r, err := Run(context.Background(), twoSMSubject{}, Options{Mode: mode, VirtualHours: 0.05, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			if base == nil {
				base = r
				continue
			}
			if r.FinalBranches != base.FinalBranches || r.TotalExecs != base.TotalExecs {
				t.Fatalf("%s run %d diverged: (%d branches, %d execs) vs (%d, %d) — state model pick is nondeterministic",
					mode, try, r.FinalBranches, r.TotalExecs, base.FinalBranches, base.TotalExecs)
			}
		}
	}
}

// TestSyncCatchUpAfterClockJump is the regression test for the sync
// scheduling bug: advancing nextSync by a single interval after an
// expensive step that jumped several intervals left nextSync behind the
// instance clock, firing a burst of back-to-back syncs on the following
// cheap steps. After the fix every sync must consume at least one fresh
// interval boundary past the previous sync's clock, and jumped intervals
// are reported via the event's skipped count instead of replayed.
func TestSyncCatchUpAfterClockJump(t *testing.T) {
	rec := telemetry.New()
	const interval = syncInterval
	// A heavy, jittered link latency makes step cost track the messages
	// a step sends and the draws they get: some steps stay inside one
	// interval while others jump several at once. With the pre-fix
	// single-increment scheduling this mix produces back-to-back sync
	// bursts that violate the grid check below (verified by reverting
	// the catch-up loop).
	_, err := Run(context.Background(), mustSubject(t, "DNS"), Options{
		Mode: ModePeach, VirtualHours: 6, Seed: 9,
		LinkLatencyJitter: 400,
		Telemetry:         rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	lastSync := map[int]float64{}
	jumps := 0
	for _, ev := range rec.Events() {
		if ev.Type != telemetry.EvSync {
			continue
		}
		if ev.Skipped > 0 {
			jumps++
		}
		if prev, ok := lastSync[ev.Instance]; ok {
			// At least one interval boundary must lie in (prev, ev.T]:
			// a sync inside the same interval cell as its predecessor is
			// exactly the back-to-back burst the fix removes.
			if math.Floor(ev.T/interval) <= math.Floor(prev/interval) {
				t.Fatalf("instance %d synced twice inside one interval cell: t=%.2f after t=%.2f (interval %.0f)",
					ev.Instance, ev.T, prev, interval)
			}
		}
		lastSync[ev.Instance] = ev.T
	}
	if len(lastSync) == 0 {
		t.Fatal("no sync events recorded")
	}
	if jumps == 0 {
		t.Fatal("test never exercised a multi-interval clock jump; raise LinkLatencyJitter")
	}
}

// TestNilTelemetryByteIdentical pins the no-op-sink contract: a campaign
// with telemetry enabled must produce byte-identical artifacts (result
// summary, coverage series, crash reports) to one with the default nil
// sink — the recorder observes, it never steers.
func TestNilTelemetryByteIdentical(t *testing.T) {
	sub := mustSubject(t, "DNS")
	opts := Options{Mode: ModeCMFuzz, VirtualHours: 1, Seed: 7}

	plain, err := Run(context.Background(), sub, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Telemetry = telemetry.New()
	instrumented, err := Run(context.Background(), sub, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(opts.Telemetry.Events()) == 0 {
		t.Fatal("recorder saw no events")
	}
	if plain.Counters != nil {
		t.Fatal("nil-sink run grew a counter registry")
	}
	// Counters are the one intentional addition; everything else must
	// match bit for bit.
	instrumented.Counters = nil

	a, b := serializeResult(t, plain), serializeResult(t, instrumented)
	if !bytes.Equal(a, b) {
		t.Fatalf("result differs between nil-sink and instrumented runs:\n%s\nvs\n%s", a, b)
	}
}

// serializeResult renders everything a Result exposes — summary numbers,
// per-instance stats, the coverage series and every deduplicated bug —
// so a byte comparison covers the full observable outcome.
func serializeResult(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	summary, err := json.Marshal(struct {
		Mode          string
		FinalBranches int
		TotalExecs    int
		ModelEntities int
		RelationEdges int
		Probes        int
		Instances     []InstanceResult
	}{res.Mode.String(), res.FinalBranches, res.TotalExecs,
		res.ModelEntities, res.RelationEdges, res.Probes, res.Instances})
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(summary)
	buf.WriteByte('\n')
	for _, p := range res.Series.Points() {
		fmt.Fprintf(&buf, "%.1f,%d\n", p.T, p.Count)
	}
	for _, rep := range res.Bugs.Unique() {
		fmt.Fprintf(&buf, "%s %d %.1f %q %d\n", rep.Crash.ID(), rep.Instance, rep.Time, rep.Config, rep.Count)
	}
	return buf.Bytes()
}

// TestTelemetryStreamDeterministic asserts the exported JSONL stream is
// identical run to run for a fixed seed — the property that makes event
// logs diffable across scheduler changes.
func TestTelemetryStreamDeterministic(t *testing.T) {
	sub := mustSubject(t, "CoAP")
	stream := func() []byte {
		rec := telemetry.New()
		if _, err := Run(context.Background(), sub, Options{Mode: ModeCMFuzz, VirtualHours: 0.5, Seed: 4, Telemetry: rec}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rec.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := stream(), stream()
	if !bytes.Equal(a, b) {
		t.Fatal("telemetry JSONL differs between identical runs")
	}
}

// TestTelemetryCountersMatchResult cross-checks the counter registry
// against the aggregates the Result already reports.
func TestTelemetryCountersMatchResult(t *testing.T) {
	rec := telemetry.New()
	res, err := Run(context.Background(), mustSubject(t, "MQTT"), Options{Mode: ModeCMFuzz, VirtualHours: 4, Seed: 2, Telemetry: rec})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	muts, fails := 0, 0
	for _, in := range res.Instances {
		muts += in.ConfigMutations
		fails += in.RestartFailures
	}
	if c[telemetry.CtrMutations] != muts {
		t.Fatalf("mutation counter %d != instance sum %d", c[telemetry.CtrMutations], muts)
	}
	if c[telemetry.CtrRestartFailures] != fails {
		t.Fatalf("restart-failure counter %d != instance sum %d", c[telemetry.CtrRestartFailures], fails)
	}
	if c[telemetry.CtrSyncs] == 0 || c[telemetry.CtrSamples] == 0 || c[telemetry.CtrBoots] < len(res.Instances) {
		t.Fatalf("core counters missing: %v", c)
	}
	if c[telemetry.CtrProbeStartups] != res.Probes {
		t.Fatalf("probe startup counter %d != Result.Probes %d", c[telemetry.CtrProbeStartups], res.Probes)
	}
}

// BenchmarkTelemetryOverhead guards the no-op and enabled costs of the
// telemetry layer on a full campaign: "off" must track the historical
// baseline (the sink is one nil check per event site) and "on" must stay
// within a few percent of it. EXPERIMENTS.md records the measured ratio.
func BenchmarkTelemetryOverhead(b *testing.B) {
	sub, err := protocols.ByName("DNS")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Run(context.Background(), sub, Options{Mode: ModeCMFuzz, VirtualHours: 0.5, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rec := telemetry.New()
			if _, err := Run(context.Background(), sub, Options{Mode: ModeCMFuzz, VirtualHours: 0.5, Seed: 1, Telemetry: rec}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
