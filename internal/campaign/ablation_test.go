package campaign

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"cmfuzz/internal/spec"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/telemetry"
)

// ablationGoldenRows and ablationGoldenEvents are what every ablation
// variant gives on MQTT and DNS at 2 virtual hours, one repetition and
// four instances: the rendered rows, and the SHA-256 of the merged
// events.jsonl. They were recorded when the variants were still
// campaign options; a planner that moves any draw moves them.
const (
	ablationGoldenRows = `Subject      Variant               Branches  Bugs
Mosquitto    cmfuzz (full)             4818     3
Mosquitto    alloc=random              4579     1
Mosquitto    alloc=round-robin         4417     1
Mosquitto    no-config-mutation        4818     3
Mosquitto    weight=raw-coverage       4245     2
Mosquitto    peach                     3152     0
Mosquitto    peach-shared-sched        2382     0
Dnsmasq      cmfuzz (full)             2115     4
Dnsmasq      alloc=random              1809     3
Dnsmasq      alloc=round-robin         1790     3
Dnsmasq      no-config-mutation        2115     4
Dnsmasq      weight=raw-coverage       1763     3
Dnsmasq      peach                     1322     0
Dnsmasq      peach-shared-sched        1255     0
`
	ablationGoldenEvents = "73b0862af82f6a28cbc3ea98d9ec88bca3f91cf3004b18119dacecd6e5b20208"
)

// TestAblationGolden pins the ablation table and its event stream byte
// for byte, so a variant planner gives exactly the campaign the option
// it replaced gave.
func TestAblationGolden(t *testing.T) {
	rec := telemetry.New()
	cfg := Config{Spec: spec.Campaign{Hours: 2, Instances: 4}, Repetitions: 1, Telemetry: rec}
	subs := []subject.Subject{telSubject(t, "MQTT"), telSubject(t, "DNS")}
	rows, err := Ablations(context.Background(), subs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var events bytes.Buffer
	if err := rec.WriteJSONL(&events); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(events.Bytes())
	if got := RenderAblations(rows); got != ablationGoldenRows {
		t.Errorf("ablation rows:\n%s\nwant\n%s", got, ablationGoldenRows)
	}
	if got := hex.EncodeToString(sum[:]); got != ablationGoldenEvents {
		t.Errorf("events.jsonl SHA-256 = %s, want %s", got, ablationGoldenEvents)
	}
}

// TestAllocatorAblations: each allocation variant's planner, and the
// paper's, runs a DNS campaign whose plan has groups.
func TestAllocatorAblations(t *testing.T) {
	cfg := Config{Spec: spec.Campaign{Subject: "DNS", Hours: 0.25}}
	var jobs []job
	for _, v := range ablationVariants {
		if v.name == "cmfuzz (full)" || strings.HasPrefix(v.name, "alloc=") {
			jobs = append(jobs, cfg.cell(cfg.Spec, v.plan, v.name, 0))
		}
	}
	results, err := runBatch(context.Background(), telSubject(t, "DNS"), cfg, nil, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d allocation variants, want 3", len(results))
	}
	for i, r := range results {
		if len(r.Groups) == 0 {
			t.Fatalf("%s produced no groups", jobs[i].label)
		}
	}
}
