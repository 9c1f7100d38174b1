package parallel

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/core/configmodel"
	"cmfuzz/internal/core/configspec"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/fuzz"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/telemetry"
)

// stubSubject is a minimal subject whose bootability is scripted through
// allow, and its startup crashes through crash, so restart-failure paths
// can be forced deterministically.
type stubSubject struct {
	allow  func(cfg map[string]string) bool
	crash  func(cfg map[string]string) *bugs.Crash // Start panics with a non-nil one
	boots  int
	closes int
}

func (s *stubSubject) Info() subject.Info {
	return subject.Info{Protocol: "STUB", Implementation: "stub", Transport: subject.Datagram, Port: 9999}
}
func (s *stubSubject) ConfigInput() configspec.Input { return configspec.Input{} }
func (s *stubSubject) PitXML() string {
	return `<Peach>
  <DataModel name="M"><String name="s" value="x"/></DataModel>
  <StateModel name="S" initialState="s0">
    <State name="s0"><Action type="output" dataModel="M"/></State>
  </StateModel>
</Peach>`
}
func (s *stubSubject) NewInstance() subject.Instance { return &stubInstance{sub: s} }

type stubInstance struct {
	sub *stubSubject
	tr  *coverage.Trace
}

func (i *stubInstance) Start(cfg map[string]string, tr *coverage.Trace) error {
	i.sub.boots++
	if i.sub.crash != nil {
		if c := i.sub.crash(cfg); c != nil {
			panic(c)
		}
	}
	if i.sub.allow != nil && !i.sub.allow(cfg) {
		return errors.New("stub: conflicting configuration")
	}
	tr.Hit(1)
	tr.Hit(2)
	return nil
}
func (i *stubInstance) SetTrace(tr *coverage.Trace) { i.tr = tr }
func (i *stubInstance) NewSession()                 {}
func (i *stubInstance) Message(p []byte) [][]byte   { i.tr.Hit(3); return nil }
func (i *stubInstance) Close()                      { i.sub.closes++ }

// stubHost is a Host for sub with model as the campaign's configuration
// model.
func stubHost(t *testing.T, sub *stubSubject, model *configmodel.Model) *Host {
	t.Helper()
	pit, err := fuzz.ParsePit(sub.PitXML())
	if err != nil {
		t.Fatal(err)
	}
	return &Host{Sub: sub, Pit: pit, StateModel: pit.DefaultStateModel(), Model: model, Defaults: model.Defaults()}
}

// bootStub boots one instance of sub under cfg through Host.Boot, with
// model as the campaign's configuration model and rng seed 1.
func bootStub(t *testing.T, sub *stubSubject, model *configmodel.Model, cfg configmodel.Assignment) *Instance {
	t.Helper()
	in, _, err := stubHost(t, sub, model).Boot(InstanceSpec{Config: cfg, RngSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestBootAndMutateReportEveryCrash: a boot's report and a mutation's
// outcome carry the crashes their starts hit for the ledger to dedup
// later, so each keeps every crash, in order, stamped with the
// instance, its clock and the configuration that crashed, and as a copy
// the crash changing afterwards does not reach.
func TestBootAndMutateReportEveryCrash(t *testing.T) {
	model := configmodel.NewModel([]configmodel.Entity{
		{Name: "mode", Type: configmodel.TypeString, Flag: configmodel.Mutable,
			Default: "v0", Values: []string{"v1", "v2"}},
	})
	c := &bugs.Crash{Protocol: "STUB", Kind: bugs.SEGV, Function: "parse_mode"}
	crashing := false
	sub := &stubSubject{crash: func(map[string]string) *bugs.Crash {
		if crashing {
			return c
		}
		return nil
	}}
	h := stubHost(t, sub, model)
	rec := func(instance int, at float64, mode string) CrashRec {
		return CrashRec{Crash: bugs.Crash{Protocol: "STUB", Kind: bugs.SEGV, Function: "parse_mode"},
			Instance: instance, T: at, Config: configmodel.Assignment{"mode": mode}.String()}
	}

	// Every start crashes: repair gives up on the scheduled value, and
	// the boot under the defaults and the last-resort one both crash.
	crashing = true
	_, rep, err := h.Boot(InstanceSpec{Index: 2, Config: configmodel.Assignment{"mode": "v1"}, RngSeed: 1})
	if err == nil {
		t.Fatal("a boot whose every start crashes succeeded")
	}
	c.Detail = "changed after the boot"
	if want := []CrashRec{rec(2, 0, "v0"), rec(2, 0, "v0")}; !reflect.DeepEqual(rep.Crashes, want) {
		t.Fatalf("boot crashes = %+v, want %+v", rep.Crashes, want)
	}

	crashing, c.Detail = false, ""
	in, rep, err := h.Boot(InstanceSpec{Index: 3, Config: model.Defaults(), RngSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes != nil {
		t.Fatalf("clean boot reported crashes %+v", rep.Crashes)
	}
	// The mutated value, the reverted one and the defaults fallback all
	// crash at the instance's clock.
	crashing, in.clock = true, 42.5
	out := in.Mutate()
	c.Detail = "changed after the mutation"
	if len(out.Events) == 0 || out.Events[0].Type != telemetry.EvRestartFail {
		t.Fatalf("mutation events = %+v, want a restart failure first", out.Events)
	}
	want := []CrashRec{rec(3, 42.5, out.Events[0].Value), rec(3, 42.5, "v0"), rec(3, 42.5, "v0")}
	if !reflect.DeepEqual(out.Crashes, want) {
		t.Fatalf("mutation crashes = %+v, want %+v", out.Crashes, want)
	}
	if out.RestartFails != 3 || out.Config != "mode=v0" || out.Coverage != in.engine.Coverage() {
		t.Fatalf("outcome = %+v, want 3 restart failures, config mode=v0 and %d edges", out, in.engine.Coverage())
	}
	// The records went out with that outcome: a clean restart reports none.
	crashing = false
	if out := in.Mutate(); out.Crashes != nil || out.Boots != 1 {
		t.Fatalf("clean restart = %+v, want one boot and no crashes", out)
	}
}

// TestBootClosesFailedInstance: an instance whose Start fails or crashes
// is closed before boot returns, as subject.Probe closes its own, so a
// failed live restart leaves no process running.
func TestBootClosesFailedInstance(t *testing.T) {
	for name, sub := range map[string]*stubSubject{
		"failing": {allow: func(map[string]string) bool { return false }},
		"crashing": {crash: func(map[string]string) *bugs.Crash {
			return &bugs.Crash{Protocol: "STUB", Kind: bugs.SEGV, Function: "parse_mode"}
		}},
	} {
		target := &netTarget{link: &link{}}
		if err := target.boot(sub, configmodel.Assignment{"mode": "v1"}, 0); err == nil {
			t.Fatalf("%s: the boot succeeded", name)
		}
		if sub.boots != 1 || sub.closes != 1 {
			t.Fatalf("%s: %d starts, %d closes, want 1 and 1", name, sub.boots, sub.closes)
		}
	}
}

// TestBootKeepsSpecConfig: booting never writes the spec's
// configuration, neither when repair reverts a conflicting binding nor
// when the instance later mutates a value, so the spec reads what it was
// scheduled with afterwards.
func TestBootKeepsSpecConfig(t *testing.T) {
	model := configmodel.NewModel([]configmodel.Entity{
		{Name: "mode", Type: configmodel.TypeString, Flag: configmodel.Mutable,
			Default: "v0", Values: []string{"v1", "v2"}},
	})
	sub := &stubSubject{allow: func(cfg map[string]string) bool { return cfg["mode"] != "v1" }}
	h := stubHost(t, sub, model)

	spec := InstanceSpec{Config: configmodel.Assignment{"mode": "v1"}, RngSeed: 1}
	in, rep, err := h.Boot(spec)
	if err != nil {
		t.Fatal(err)
	}
	if want := (configmodel.Assignment{"mode": "v0"}).String(); rep.Config != want {
		t.Fatalf("repaired boot ran %s, want %s", rep.Config, want)
	}
	if spec.Config["mode"] != "v1" {
		t.Fatalf("repair rewrote the spec's configuration to %v", spec.Config)
	}

	// mode=v2 boots as scheduled; a mutation that restarts the instance
	// changes its configuration, not the spec's.
	sub.allow = func(map[string]string) bool { return true }
	spec = InstanceSpec{Config: configmodel.Assignment{"mode": "v2"}, RngSeed: 1}
	if in, _, err = h.Boot(spec); err != nil {
		t.Fatal(err)
	}
	for tries := 0; tries < 32 && in.cfg["mode"] == "v2"; tries++ {
		in.Mutate()
	}
	if in.cfg["mode"] == "v2" {
		t.Fatal("Mutate never changed the instance's configuration")
	}
	if spec.Config["mode"] != "v2" {
		t.Fatalf("a value mutation rewrote the spec's configuration to %v", spec.Config)
	}
}

// TestMutateConfigFallsBackToDefaults is the regression test for the
// dead-target restart path: when both the mutated and the reverted
// restart fail, mutateConfig must boot the defaults instead of leaving
// the instance stepping against a dead target, and the failures must be
// surfaced in the restart-failure counter.
func TestMutateConfigFallsBackToDefaults(t *testing.T) {
	model := configmodel.NewModel([]configmodel.Entity{
		{Name: "mode", Type: configmodel.TypeString, Flag: configmodel.Mutable,
			Default: "v0", Values: []string{"v1", "v2"}},
	})
	sub := &stubSubject{allow: func(map[string]string) bool { return true }}
	in := bootStub(t, sub, model, configmodel.Assignment{"mode": "v1"})
	target := in.target

	// The target "dies": from now on only the default configuration
	// boots, so the mutated config (mode=v2) and the reverted config
	// (mode=v1) both fail to restart.
	sub.allow = func(cfg map[string]string) bool { return cfg["mode"] == "v0" }
	ok, fails := false, 0
	for tries := 0; tries < 32 && !ok; tries++ {
		// Attempts that draw the current value boot nothing; keep
		// drawing until the mutation actually restarts the target.
		out := in.Mutate()
		ok, fails = out.Boots > 0, fails+out.RestartFails
	}
	if !ok {
		t.Fatal("Mutate never recovered the instance")
	}
	if in.cfg["mode"] != "v0" {
		t.Fatalf("fallback config = %v, want the defaults", in.cfg)
	}
	if fails != 2 {
		t.Fatalf("restart failures = %d, want 2 (mutated + reverted)", fails)
	}
	// The swapped-in instance must be live.
	tr := coverage.NewTrace()
	if crash := target.Run([][]byte{{1}}, tr); crash != nil || tr.Count() == 0 {
		t.Fatalf("fallback target not live: crash=%v cov=%d", crash, tr.Count())
	}
}

// TestMutateConfigRevertStillWorks pins the pre-existing single-failure
// path: a conflicting mutation is reverted, the old configuration boots
// again, and exactly one restart failure is counted.
func TestMutateConfigRevertStillWorks(t *testing.T) {
	model := configmodel.NewModel([]configmodel.Entity{
		{Name: "mode", Type: configmodel.TypeString, Flag: configmodel.Mutable,
			Default: "v0", Values: []string{"v1", "v2"}},
	})
	sub := &stubSubject{allow: func(map[string]string) bool { return true }}
	in := bootStub(t, sub, model, configmodel.Assignment{"mode": "v1"})

	// Only the mutated value conflicts; the revert must succeed.
	sub.allow = func(cfg map[string]string) bool { return cfg["mode"] != "v2" }
	ok, fails := false, 0
	for tries := 0; tries < 32 && !ok; tries++ {
		out := in.Mutate()
		ok, fails = out.Boots > 0, fails+out.RestartFails
	}
	if !ok {
		t.Fatal("Mutate never fired")
	}
	if in.cfg["mode"] != "v1" {
		t.Fatalf("config after revert = %v, want mode=v1", in.cfg)
	}
	if fails != 1 {
		t.Fatalf("restart failures = %d, want 1", fails)
	}
}

// TestSeriesSampleCoalescing asserts new-edge samples are coalesced: no
// two retained interior samples may be closer than sampleEvery/10 of
// virtual time, and the series stays bounded instead of growing with
// every discovery-heavy early step.
func TestSeriesSampleCoalescing(t *testing.T) {
	sub := mustSubject(t, "DNS")
	r, err := Run(context.Background(), sub, Options{Mode: ModeCMFuzz, VirtualHours: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	pts := r.Series.Points()
	if len(pts) < 3 {
		t.Fatalf("series too sparse to check: %d points", len(pts))
	}
	const minGap = sampleEvery / 10
	for i := 1; i < len(pts)-1; i++ {
		if gap := pts[i].T - pts[i-1].T; gap < minGap {
			t.Fatalf("samples %d and %d only %.1fs apart, want >= %.1fs", i-1, i, gap, minGap)
		}
	}
	horizon := 1.0 * 3600
	if maxPts := int(horizon/minGap) + 2; len(pts) > maxPts {
		t.Fatalf("series has %d points, coalescing bound is %d", len(pts), maxPts)
	}
}

// TestRunIdenticalAcrossConcurrency asserts a campaign's outcome does not
// depend on the probe worker count.
func TestRunIdenticalAcrossConcurrency(t *testing.T) {
	sub := mustSubject(t, "DNS")
	base, err := Run(context.Background(), sub, Options{Mode: ModeCMFuzz, VirtualHours: 0.5, Seed: 11, Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, conc := range []int{2, 8} {
		got, err := Run(context.Background(), sub, Options{Mode: ModeCMFuzz, VirtualHours: 0.5, Seed: 11, Concurrency: conc})
		if err != nil {
			t.Fatal(err)
		}
		if got.FinalBranches != base.FinalBranches || got.TotalExecs != base.TotalExecs ||
			got.Probes != base.Probes || got.RelationEdges != base.RelationEdges {
			t.Fatalf("concurrency %d diverged: (%d,%d,%d,%d) vs (%d,%d,%d,%d)", conc,
				got.FinalBranches, got.TotalExecs, got.Probes, got.RelationEdges,
				base.FinalBranches, base.TotalExecs, base.Probes, base.RelationEdges)
		}
		for i := range got.Instances {
			if got.Instances[i].Config != base.Instances[i].Config {
				t.Fatalf("concurrency %d: instance %d config diverged", conc, i)
			}
		}
	}
}
