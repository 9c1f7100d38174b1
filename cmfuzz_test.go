package cmfuzz

import (
	"context"
	"errors"
	"math"
	"testing"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/core/configspec"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/subject"
)

func TestSubjectsList(t *testing.T) {
	subs := Subjects()
	if len(subs) != 6 {
		t.Fatalf("Subjects() = %d, want 6", len(subs))
	}
	wantOrder := []string{"MQTT", "CoAP", "DDS", "DTLS", "AMQP", "DNS"}
	for i, sub := range subs {
		if sub.Info().Protocol != wantOrder[i] {
			t.Errorf("subject %d = %s, want %s (Table I order)", i, sub.Info().Protocol, wantOrder[i])
		}
	}
}

func TestSubjectLookup(t *testing.T) {
	if _, err := Subject("Mosquitto"); err != nil {
		t.Fatal(err)
	}
	if _, err := Subject("nope"); err == nil {
		t.Fatal("unknown subject accepted")
	}
}

func TestIdentifyProducesRunnablePlan(t *testing.T) {
	sub, err := Subject("DNS")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Identify(sub, 4)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Model.Len() < 10 {
		t.Fatalf("model too small: %d entities", plan.Model.Len())
	}
	if len(plan.Groups) == 0 || len(plan.Groups) > 4 {
		t.Fatalf("groups = %d", len(plan.Groups))
	}
	if len(plan.Assignments) != len(plan.Groups) {
		t.Fatal("assignments/groups mismatch")
	}
	// The strongest DNS dependency must be captured and scheduled.
	if _, ok := plan.Relation.Graph.Weight("dnssec", "trust-anchor"); !ok {
		t.Fatal("dnssec/trust-anchor dependency edge missing")
	}
}

// crashOnStart wraps a subject so that Start panics with a seeded crash
// under the configurations crashes selects — a configuration-parsing
// defect that relation probing reaches.
type crashOnStart struct {
	subject.Subject
	crashes func(cfg map[string]string) bool
}

func (s crashOnStart) NewInstance() subject.Instance {
	return crashingInstance{s.Subject.NewInstance(), s.crashes}
}

type crashingInstance struct {
	subject.Instance
	crashes func(cfg map[string]string) bool
}

func (i crashingInstance) Start(cfg map[string]string, tr *coverage.Trace) error {
	if i.crashes(cfg) {
		panic(&bugs.Crash{Protocol: "DNS", Kind: bugs.HeapUseAfterFree, Function: "probe", Detail: "trust anchor freed before DNSSEC setup"})
	}
	return i.Instance.Start(cfg, tr)
}

// A startup crash while probing is a failed startup to the planner, as
// it is in every campaign: Identify returns a plan instead of panicking.
func TestIdentifySurvivesProbeCrash(t *testing.T) {
	dns, err := Subject("DNS")
	if err != nil {
		t.Fatal(err)
	}
	sub := crashOnStart{dns, func(cfg map[string]string) bool {
		return cfg["dnssec"] == "true" && cfg["trust-anchor"] != ""
	}}
	plan, err := Identify(sub, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Groups) != 4 || len(plan.Assignments) != 4 {
		t.Fatalf("groups/assignments = %d/%d, want 4/4", len(plan.Groups), len(plan.Assignments))
	}
	if _, ok := plan.Relation.Graph.Weight("dnssec", "trust-anchor"); ok {
		t.Fatal("the crashing pair still has a relation edge")
	}
}

// secureSubject is a three-option server on DNS's Pit: secure mode needs
// a key, and secure mode with a key unlocks an extra startup region.
type secureSubject struct{ subject.Subject }

func (secureSubject) ConfigInput() configspec.Input {
	return configspec.Input{CLIHelp: []string{`Usage: srv
  --mode MODE   operating mode, one of: plain, secure
  --key KEY     secret key, one of: k1, k2
  --cache N     cache entries (default: 64)
`}}
}

func (secureSubject) NewInstance() subject.Instance { return secureServer{} }

type secureServer struct{}

func (secureServer) Start(cfg map[string]string, tr *coverage.Trace) error {
	if cfg["mode"] == "secure" && cfg["key"] == "" {
		return errors.New("secure mode needs a key")
	}
	cov := 10
	if cfg["mode"] == "secure" {
		cov += 8
	}
	if cfg["cache"] != "0" {
		cov++
	}
	for i := 0; i < cov; i++ {
		tr.Edge(1, uint64(i))
	}
	return nil
}

func (secureServer) SetTrace(*coverage.Trace)        {}
func (secureServer) NewSession()                     {}
func (secureServer) Message(payload []byte) [][]byte { return nil }
func (secureServer) Close()                          {}

func TestIdentifySchedulesDependency(t *testing.T) {
	dns, err := Subject("DNS")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Identify(secureSubject{dns}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Model.Len() != 3 {
		t.Fatalf("model entities = %d", plan.Model.Len())
	}
	if _, ok := plan.Relation.Graph.Weight("key", "mode"); !ok {
		t.Fatal("dependency edge (mode,key) missing")
	}
	if len(plan.Groups) == 0 || len(plan.Assignments) != len(plan.Groups) {
		t.Fatalf("groups/assignments mismatch: %d/%d", len(plan.Groups), len(plan.Assignments))
	}
	// The group containing mode+key must schedule the secure combination.
	secure := false
	for _, a := range plan.Assignments {
		if a["mode"] == "secure" && a["key"] != "" {
			secure = true
		}
	}
	if !secure {
		t.Fatalf("no assignment schedules the secure dependency: %v", plan.Assignments)
	}
}

func TestFuzzPublicAPI(t *testing.T) {
	sub, err := Subject("CoAP")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Fuzz(sub, Options{Mode: ModeCMFuzz, VirtualHours: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalBranches == 0 || res.TotalExecs == 0 {
		t.Fatalf("empty result: %+v", res)
	}
}

// TestFuzzRejectsOutOfRangeOptions: a campaign's options are checked
// where every campaign starts, so a value out of range is an error from
// parallel.Run and the facade alike, never a panic further in.
func TestFuzzRejectsOutOfRangeOptions(t *testing.T) {
	sub, err := Subject("DNS")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		opts Options
	}{
		{"negative instances", Options{Instances: -1, VirtualHours: 0.1}},
		{"instances past the wire's count", Options{Instances: parallel.MaxInstances + 1, VirtualHours: 0.1}},
		{"NaN hours", Options{VirtualHours: math.NaN()}},
		{"negative link latency", Options{VirtualHours: 0.1, LinkLatencyBase: -1}},
		{"link loss 2", Options{VirtualHours: 0.1, LinkLoss: 2}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if res, err := parallel.Run(context.Background(), sub, c.opts); err == nil {
				t.Errorf("parallel.Run: no error, result %+v", res)
			}
			if res, err := Fuzz(sub, c.opts); err == nil {
				t.Errorf("Fuzz: no error, result %+v", res)
			}
		})
	}
}

// TestHeadlineClaim verifies the paper's core result end-to-end through
// the public API: on a configuration-rich subject, CMFuzz covers more
// branches than both baselines and finds configuration-gated bugs that
// neither baseline reaches.
func TestHeadlineClaim(t *testing.T) {
	sub, err := Subject("DNS")
	if err != nil {
		t.Fatal(err)
	}
	branches := map[Mode]int{}
	bugsFound := map[Mode]int{}
	for _, mode := range []Mode{ModeCMFuzz, ModePeach, ModeSPFuzz} {
		res, err := Fuzz(sub, Options{Mode: mode, VirtualHours: 4, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		branches[mode] = res.FinalBranches
		bugsFound[mode] = res.Bugs.Len()
	}
	if branches[ModeCMFuzz] <= branches[ModePeach] || branches[ModeCMFuzz] <= branches[ModeSPFuzz] {
		t.Fatalf("CMFuzz does not lead: %v", branches)
	}
	if bugsFound[ModeCMFuzz] == 0 {
		t.Fatal("CMFuzz found no bugs")
	}
	if bugsFound[ModePeach] != 0 || bugsFound[ModeSPFuzz] != 0 {
		t.Fatalf("baselines found config-gated bugs: %v", bugsFound)
	}
}
