package fleet_test

import (
	"context"
	"fmt"
	"testing"

	"cmfuzz/internal/fleet"
	"cmfuzz/internal/protocols"
)

// A flightTail reads flight records as they are filed: next returns
// what id's ring gained since the previous call, by kind. The ring keeps
// the last 256 entries — more than any one round files, not more than a
// long campaign does — so tests that follow a campaign for many slices
// read it round by round.
type flightTail map[string]int64

func (ft flightTail) next(t *testing.T, m *fleet.Manager, id string) map[string][]map[string]any {
	t.Helper()
	doc, ok := m.Flight(id)
	if !ok {
		t.Fatalf("no flight recorder for %q", id)
	}
	fresh := int(doc.Total - ft[id])
	ft[id] = doc.Total
	if fresh > len(doc.Events) {
		t.Fatalf("%s filed %d flight records since last read; the ring holds %d", id, fresh, len(doc.Events))
	}
	out := map[string][]map[string]any{}
	for _, e := range doc.Events[len(doc.Events)-fresh:] {
		if d, ok := e.Detail.(map[string]any); ok {
			out[e.Kind] = append(out[e.Kind], d)
		}
	}
	return out
}

// TestPlacementAwareDrain is the benchmark's shape — six equal campaigns
// over two workers — under several submission orders. Three campaigns
// land on each worker, and from then on a round grants one campaign per
// worker: whoever ranks second on a worker sits the round out instead
// of being restored on the other one. So the drain re-executes nothing
// — no cold restore at all — defers often, and every tree still equals
// its standalone run.
func TestPlacementAwareDrain(t *testing.T) {
	base := sixOverTwo(0)
	for _, order := range [][]int{{0, 1, 2, 3, 4, 5}, {3, 0, 5, 1, 4, 2}, {5, 4, 3, 2, 1, 0}} {
		t.Run(fmt.Sprint(order), func(t *testing.T) {
			var specs []fleet.CampaignSpec
			for _, i := range order {
				specs = append(specs, base[i])
			}
			pool, wait := newPool(t, 2)
			defer wait()
			state := t.TempDir()
			m, err := fleet.NewManager(fleet.Config{StateDir: state, Slice: 150}, pool, protocols.ByName)
			if err != nil {
				t.Fatal(err)
			}
			sample := scrape(t, m)
			submitAll(t, m, specs)
			tail := flightTail{}
			rounds, deferred := 0, 0
			for ; ; rounds++ {
				ok, err := m.Step(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				for _, spec := range specs {
					filed := tail.next(t, m, spec.ID)
					deferred += len(filed["deferred"])
					for _, h := range filed["handoff"] {
						if h["miss"] != nil {
							t.Fatalf("round %d: %s handed off with %v; placement should have kept every live coordinator", rounds+1, spec.ID, h)
						}
					}
				}
			}
			wantDoneMatching(t, m, state, specs)

			slices := 0
			for _, spec := range specs {
				slices += findStatus(t, m, spec.ID).Slices
			}
			if got := sample("cmfuzz_fleet_cold_restores_total"); got != 0 {
				t.Fatalf("cmfuzz_fleet_cold_restores_total = %d, want 0", got)
			}
			// Two workers, one slice each per round, start to finish.
			if slices != 2*rounds {
				t.Fatalf("%d slices in %d rounds, want both workers busy every round", slices, rounds)
			}
			if deferred == 0 {
				t.Fatal("no campaign was ever passed over: the drain never exercised placement")
			}
			if got := sample("cmfuzz_fleet_deferred_grants_total"); got != deferred {
				t.Fatalf("cmfuzz_fleet_deferred_grants_total = %d, flight rings hold %d deferred records", got, deferred)
			}
		})
	}
}

// TestPassedOverCampaignIsNotStarved puts two long campaigns on one
// worker beside a short one on the other. While the short one lives,
// the two neighbours take turns — the one passed over is named in a
// deferred record with the worker it wanted and who held it, reads as
// suspended on that worker in the status, and is granted again within a
// few rounds on rank alone, never restored. Only once the other worker
// has nothing left to run does a neighbour move to it, cold, and says
// so.
func TestPassedOverCampaignIsNotStarved(t *testing.T) {
	specs := []fleet.CampaignSpec{
		{ID: "dns-short", Subject: "DNS", Hours: 0.25, Seed: 11, Instances: 1},
		{ID: "dtls-b", Subject: "DTLS", Hours: 0.5, Seed: 5, Instances: 1},
		{ID: "coap-c", Subject: "CoAP", Hours: 0.5, Seed: 7, Instances: 1},
	}
	f := newNamedFleet(t, "w0", "w1")
	defer f.close()
	state := t.TempDir()
	m, err := fleet.NewManager(fleet.Config{StateDir: state, Slice: 150}, f.pool, protocols.ByName)
	if err != nil {
		t.Fatal(err)
	}
	sample := scrape(t, m)
	submitAll(t, m, specs)

	tail := flightTail{}
	slices, waited := map[string]int{}, map[string]int{}
	deferred, migrations, sawWarmOn := 0, 0, false
	for round := 1; ; round++ {
		runnable := 0
		for _, st := range m.Status() {
			if st.State != fleet.StateDone {
				runnable++
			}
		}
		ok, err := m.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		ran := 0
		suspended := m.Suspended()
		for _, st := range m.Status() {
			if st.Slices > slices[st.ID] {
				slices[st.ID], waited[st.ID] = st.Slices, 0
				ran++
			} else if st.State != fleet.StateDone {
				if waited[st.ID]++; waited[st.ID] > 3 {
					t.Fatalf("round %d: %s has not been granted for %d rounds", round, st.ID, waited[st.ID])
				}
			}
			if _, warm := suspended[st.ID]; warm {
				if len(st.WarmOn) != 1 || st.Workers != 0 || st.State != fleet.StateQueued {
					t.Fatalf("round %d: suspended %s reads %+v, want queued on one warm_on worker", round, st.ID, st)
				}
				sawWarmOn = true
			} else if len(st.WarmOn) != 0 {
				t.Fatalf("round %d: %s holds no suspended coordinator and reads warm_on %v", round, st.ID, st.WarmOn)
			}
			filed := tail.next(t, m, st.ID)
			for _, d := range filed["deferred"] {
				deferred++
				wanted, _ := d["workers"].([]string)
				holders, _ := d["held_by"].([]string)
				if d["round"] != round || len(wanted) != 1 || len(holders) != 1 || holders[0] == st.ID {
					t.Fatalf("round %d: %s deferred with %v, want the round, the worker it wanted and the campaign holding it", round, st.ID, d)
				}
			}
			for _, h := range filed["handoff"] {
				if h["miss"] == nil {
					continue
				}
				// The only reason to pay a history here: the other worker had
				// nothing left to run.
				migrations++
				if h["miss"] != "idle_worker" || h["warm"] != false || h["elapsed"] == nil || h["remaining"] == nil {
					t.Fatalf("round %d: %s handed off cold with %v, want miss=idle_worker and the elapsed/remaining figures", round, st.ID, h)
				}
				if runnable != 2 {
					t.Fatalf("round %d: %s moved cold with %d campaigns runnable; a worker idles only with two", round, st.ID, runnable)
				}
			}
		}
		if want := min(runnable, 2); ran != want {
			t.Fatalf("round %d: %d campaigns sliced with %d runnable, want %d", round, ran, runnable, want)
		}
	}
	wantDoneMatching(t, m, state, specs)
	if !sawWarmOn || deferred == 0 || migrations != 1 {
		t.Fatalf("suspended seen in status = %v, %d deferred grants, %d cold migrations; want true, some, exactly one", sawWarmOn, deferred, migrations)
	}
	if got := sample("cmfuzz_fleet_deferred_grants_total"); got != deferred {
		t.Fatalf("cmfuzz_fleet_deferred_grants_total = %d, flight rings filed %d", got, deferred)
	}
	if got := sample("cmfuzz_fleet_cold_restores_total"); got != migrations {
		t.Fatalf("cmfuzz_fleet_cold_restores_total = %d, want the one migration", got)
	}
}

// TestGrowthRepaysReplay pins both sides of the re-sizing rule. A
// campaign holding one worker when the second frees up grows onto both
// only if re-executing its history at the new width is repaid before
// its horizon: elapsed < remaining × (granted/held − 1). Early in a long
// campaign it is, and the hand-off says what decided it; with one slice
// to go it is not, and the campaign finishes warm where it is. The tree
// is the standalone run's either way.
func TestGrowthRepaysReplay(t *testing.T) {
	for _, tc := range []struct {
		name          string
		shortH, longH float64
		growAt        float64 // the long campaign's clock when it grows; 0: never
	}{
		// The short campaign is done after one slice of the long one's
		// twelve: 300 < 3300 × (2/1 − 1).
		{"early campaign grows", 1.0 / 12, 1, 300},
		// Done after three of four: 900 >= 300 × (2/1 − 1).
		{"last slice stays", 0.25, 1.0 / 3, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			specs := []fleet.CampaignSpec{
				{ID: "dns-long", Subject: "DNS", Hours: tc.longH, Seed: 11},
				{ID: "dtls-short", Subject: "DTLS", Hours: tc.shortH, Seed: 5},
			}
			pool, wait := newPool(t, 2)
			defer wait()
			state := t.TempDir()
			m, err := fleet.NewManager(fleet.Config{StateDir: state, Slice: 300}, pool, protocols.ByName)
			if err != nil {
				t.Fatal(err)
			}
			sample := scrape(t, m)
			submitAll(t, m, specs)

			tail := flightTail{}
			grown := false
			for first := true; ; first = false {
				ok, err := m.Step(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				for _, h := range tail.next(t, m, "dns-long")["handoff"] {
					elapsed, _ := h["elapsed"].(float64)
					remaining, _ := h["remaining"].(float64)
					switch {
					case first:
					case h["miss"] == "grow" && !grown:
						grown = true
						// A slice ends on the first step past its bound, so the
						// clock reads a step or two over.
						if h["warm"] != false || h["workers"] != 2 || h["held"] != 1 ||
							elapsed < tc.growAt || elapsed > tc.growAt+30 || elapsed+remaining != tc.longH*3600 {
							t.Fatalf("grow hand-off = %v, want cold onto 2 workers from 1 at elapsed ~%v of %v", h, tc.growAt, tc.longH*3600)
						}
					case h["miss"] != nil || h["warm"] != true || (h["workers"] == 2) != grown:
						t.Fatalf("hand-off of dns-long = %v (grown: %v), want warm where it sits", h, grown)
					}
				}
			}
			wantDoneMatching(t, m, state, specs)
			cold := 0
			if tc.growAt > 0 {
				cold = 1
			}
			if grown != (tc.growAt > 0) || sample("cmfuzz_fleet_cold_restores_total") != cold {
				t.Fatalf("grown = %v with %d cold restores, want %v and %d", grown, sample("cmfuzz_fleet_cold_restores_total"), tc.growAt > 0, cold)
			}
		})
	}
}
