package parallel

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"cmfuzz/internal/protocols"
	"cmfuzz/internal/subject"
)

// short campaigns keep the unit tests fast; the campaign package and the
// bench harness run the full 24-hour settings.
const testHours = 1

func mustSubject(t *testing.T, name string) subject.Subject {
	t.Helper()
	sub, err := protocols.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

func TestModeString(t *testing.T) {
	if ModeCMFuzz.String() != "CMFuzz" || ModePeach.String() != "Peach" || ModeSPFuzz.String() != "SPFuzz" {
		t.Fatal("mode names wrong")
	}
	if Mode(9).String() != "unknown" {
		t.Fatal("out-of-range mode")
	}
}

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Mode
		ok   bool
	}{
		{"cmfuzz", ModeCMFuzz, true},
		{"peach", ModePeach, true},
		{"spfuzz", ModeSPFuzz, true},
		{"CMFuzz", ModeCMFuzz, true},
		{"PEACH", ModePeach, true},
		{"SpFuzz", ModeSPFuzz, true},
		{"", 0, false}, // defaulting an empty name is the caller's policy
		{"afl", 0, false},
		{"peach ", 0, false},
		{"unknown", 0, false}, // Mode.String()'s out-of-range name is not a mode
	} {
		got, err := ParseMode(tc.name)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v, ok=%v", tc.name, got, err, tc.want, tc.ok)
		}
		if err != nil && err.Error() != fmt.Sprintf("unknown mode %q", tc.name) {
			t.Errorf("ParseMode(%q) error = %q", tc.name, err)
		}
		if err == nil && !strings.EqualFold(got.String(), tc.name) {
			t.Errorf("ParseMode(%q).String() = %q", tc.name, got)
		}
	}
}

func TestRunAllSubjectsAllModes(t *testing.T) {
	for _, sub := range protocols.All() {
		for _, mode := range []Mode{ModeCMFuzz, ModePeach, ModeSPFuzz} {
			res, err := Run(context.Background(), sub, Options{Mode: mode, VirtualHours: 0.25, Seed: 1})
			if err != nil {
				t.Fatalf("%s/%s: %v", sub.Info().Protocol, mode, err)
			}
			if res.FinalBranches == 0 {
				t.Errorf("%s/%s: zero coverage", sub.Info().Protocol, mode)
			}
			if res.TotalExecs == 0 {
				t.Errorf("%s/%s: zero executions", sub.Info().Protocol, mode)
			}
			if len(res.Instances) != 4 {
				t.Errorf("%s/%s: %d instances", sub.Info().Protocol, mode, len(res.Instances))
			}
			if pts := res.Series.Points(); pts[len(pts)-1].Count != res.FinalBranches {
				t.Errorf("%s/%s: series end %d != final %d",
					sub.Info().Protocol, mode, pts[len(pts)-1].Count, res.FinalBranches)
			}
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	sub := mustSubject(t, "DNS")
	a, err := Run(context.Background(), sub, Options{Mode: ModeCMFuzz, VirtualHours: testHours, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), sub, Options{Mode: ModeCMFuzz, VirtualHours: testHours, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalBranches != b.FinalBranches || a.TotalExecs != b.TotalExecs || a.Bugs.Len() != b.Bugs.Len() {
		t.Fatalf("nondeterministic: (%d,%d,%d) vs (%d,%d,%d)",
			a.FinalBranches, a.TotalExecs, a.Bugs.Len(),
			b.FinalBranches, b.TotalExecs, b.Bugs.Len())
	}
}

func TestCMFuzzBeatsBaselinesOnDNS(t *testing.T) {
	sub := mustSubject(t, "DNS")
	results := map[Mode]*Result{}
	for _, mode := range []Mode{ModeCMFuzz, ModePeach, ModeSPFuzz} {
		r, err := Run(context.Background(), sub, Options{Mode: mode, VirtualHours: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		results[mode] = r
	}
	if results[ModeCMFuzz].FinalBranches <= results[ModePeach].FinalBranches {
		t.Fatalf("CMFuzz %d <= Peach %d",
			results[ModeCMFuzz].FinalBranches, results[ModePeach].FinalBranches)
	}
	if results[ModeCMFuzz].FinalBranches <= results[ModeSPFuzz].FinalBranches {
		t.Fatalf("CMFuzz %d <= SPFuzz %d",
			results[ModeCMFuzz].FinalBranches, results[ModeSPFuzz].FinalBranches)
	}
}

func TestCMFuzzSchedulesDistinctConfigs(t *testing.T) {
	sub := mustSubject(t, "CoAP")
	r, err := Run(context.Background(), sub, Options{Mode: ModeCMFuzz, VirtualHours: 0.25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.ModelEntities == 0 || r.Probes == 0 {
		t.Fatalf("no model identification happened: %+v", r)
	}
	distinct := map[string]bool{}
	for _, in := range r.Instances {
		distinct[in.Config] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("all instances share one configuration: %v", distinct)
	}
	// Groups must partition (no entity twice).
	seen := map[string]bool{}
	for _, g := range r.Groups {
		for _, m := range g.Members {
			if seen[m] {
				t.Fatalf("entity %q in two groups", m)
			}
			seen[m] = true
		}
	}
}

func TestBaselinesRunDefaultConfigs(t *testing.T) {
	sub := mustSubject(t, "MQTT")
	r, err := Run(context.Background(), sub, Options{Mode: ModePeach, VirtualHours: 0.25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range r.Instances {
		if strings.Contains(in.Config, "bridge=true") || strings.Contains(in.Config, "websockets=true") {
			t.Fatalf("Peach instance runs a non-default feature: %s", in.Config)
		}
		if in.ConfigMutations != 0 {
			t.Fatal("baseline mutated its configuration")
		}
	}
}

func TestConfigGatedBugsOnlyFoundByCMFuzz(t *testing.T) {
	sub := mustSubject(t, "DNS")
	cm, err := Run(context.Background(), sub, Options{Mode: ModeCMFuzz, VirtualHours: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cm.Bugs.Len() == 0 {
		t.Fatal("CMFuzz found no DNS bugs in 6 virtual hours")
	}
	pe, err := Run(context.Background(), sub, Options{Mode: ModePeach, VirtualHours: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pe.Bugs.Len() != 0 {
		t.Fatalf("Peach found %d config-gated bugs under defaults", pe.Bugs.Len())
	}
}

func TestSPFuzzUsesPathPartition(t *testing.T) {
	sub := mustSubject(t, "MQTT")
	r, err := Run(context.Background(), sub, Options{Mode: ModeSPFuzz, VirtualHours: 0.25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// SPFuzz instances run default configs (config diversity is CMFuzz's).
	for _, in := range r.Instances {
		if strings.Contains(in.Config, "bridge=true") {
			t.Fatalf("SPFuzz instance has non-default config: %s", in.Config)
		}
	}
}

func TestDisableConfigMutation(t *testing.T) {
	sub := mustSubject(t, "CoAP")
	r, err := Run(context.Background(), sub, Options{Mode: ModeCMFuzz, VirtualHours: 4, Seed: 1, DisableConfigMutation: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range r.Instances {
		if in.ConfigMutations != 0 {
			t.Fatal("config mutation happened despite being disabled")
		}
	}
}

func TestSeriesMonotone(t *testing.T) {
	sub := mustSubject(t, "CoAP")
	r, err := Run(context.Background(), sub, Options{Mode: ModeCMFuzz, VirtualHours: testHours, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pts := r.Series.Points()
	for i := 1; i < len(pts); i++ {
		if pts[i].Count < pts[i-1].Count || pts[i].T < pts[i-1].T {
			t.Fatalf("series not monotone at %d: %+v %+v", i, pts[i-1], pts[i])
		}
	}
}

func TestRepairConfigSalvagesConflicts(t *testing.T) {
	sub := mustSubject(t, "DNS")
	// dnssec without trust-anchor conflicts; repair must drop or complete it.
	items := map[string]string{"server": "8.8.8.8", "dnssec": "true"}
	cfgIn := make(map[string]string, len(items))
	for k, v := range items {
		cfgIn[k] = v
	}
	repaired := repairConfig(sub, toAssignment(cfgIn), toAssignment(map[string]string{"server": "8.8.8.8"}))
	if got := subject.Probe(sub, map[string]string(repaired)); got == 0 {
		t.Fatalf("repaired config still fails startup: %v", repaired)
	}
}

func toAssignment(m map[string]string) map[string]string { return m }

func BenchmarkCampaignStepDNS(b *testing.B) {
	sub, err := protocols.ByName("DNS")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), sub, Options{Mode: ModeCMFuzz, VirtualHours: 0.1, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
