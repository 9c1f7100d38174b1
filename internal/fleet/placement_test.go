package fleet_test

import (
	"context"
	"fmt"
	"net"
	"testing"

	"cmfuzz/internal/dist"
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
// over two workers — under several submission orders. Every campaign
// boots once, on the workers it keeps to the end, and from then on a
// round picks two of them and suspends the rest. So the drain
// re-executes nothing — no cold restore at all — resumes often, keeps
// both workers' worth of campaigns slicing every round while two are
// runnable, and every tree still equals its standalone run.
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
			sliced := map[string]int{}
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
				for _, st := range m.Status() {
					if st.Slices > sliced[st.ID] {
						sliced[st.ID] = st.Slices
						ran++
					}
				}
				// Two workers, one slice each per round, start to finish.
				if want := min(runnable, 2); ran != want {
					t.Fatalf("round %d: %d campaigns sliced with %d runnable, want %d", round, ran, runnable, want)
				}
				for _, spec := range specs {
					for _, h := range tail.next(t, m, spec.ID)["handoff"] {
						if h["miss"] != nil {
							t.Fatalf("round %d: %s handed off with %v; every live coordinator should have been kept", round, spec.ID, h)
						}
					}
				}
			}
			wantDoneMatching(t, m, state, specs)
			if got := sample("cmfuzz_fleet_cold_restores_total"); got != 0 {
				t.Fatalf("cmfuzz_fleet_cold_restores_total = %d, want 0", got)
			}
			if sample("cmfuzz_fleet_warm_resumes_total") == 0 {
				t.Fatal("no campaign was ever resumed: the drain never suspended anything")
			}
		})
	}
}

// TestCampaignsSpreadOverPool: two 2-instance campaigns picked in one
// round over four workers boot one instance on each worker.
func TestCampaignsSpreadOverPool(t *testing.T) {
	pool, wait := newPool(t, 4)
	defer wait()
	m, err := fleet.NewManager(fleet.Config{StateDir: t.TempDir(), Slice: 300}, pool, protocols.ByName)
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, m, []fleet.CampaignSpec{
		{ID: "dns-a", Subject: "DNS", Hours: 0.25, Seed: 11, Instances: 2},
		{ID: "mqtt-b", Subject: "MQTT", Hours: 0.25, Seed: 3, Instances: 2},
	})
	if ok, err := m.Step(context.Background()); !ok || err != nil {
		t.Fatalf("step: ok=%v err=%v", ok, err)
	}
	for _, st := range m.Status() {
		if st.Slices != 1 {
			t.Fatalf("%s ran %d slices in the first round, want 1", st.ID, st.Slices)
		}
	}
	// Each of the four instances is on exactly one worker, so four busy
	// workers hold one each.
	for k, w := range pool.Workers() {
		if w.Execs == 0 {
			t.Fatalf("worker %d ran nothing in a round that sliced four instances: %+v", k, pool.Workers())
		}
	}
	m.Close()
}

// TestStrandedCampaignRestoresCold: every worker a live coordinator
// booted on dies — here the one worker the pool had when it started —
// while the pool has gained another. The coordinator has nothing left
// to continue, so it is dropped with miss=dead and re-run cold from
// checkpoint.bin on the survivor, and ends with its standalone tree.
func TestStrandedCampaignRestoresCold(t *testing.T) {
	specs := []fleet.CampaignSpec{
		{ID: "dns-a", Subject: "DNS", Hours: 0.25, Seed: 11, Instances: 1},
		{ID: "mqtt-b", Subject: "MQTT", Hours: 0.25, Seed: 3, Instances: 1},
	}
	f := newNamedFleet(t, "w0")
	defer f.close()
	state := t.TempDir()
	m, err := fleet.NewManager(fleet.Config{StateDir: state, Slice: 300}, f.pool, protocols.ByName)
	if err != nil {
		t.Fatal(err)
	}
	sample := scrape(t, m)
	submitAll(t, m, specs)
	ctx := context.Background()
	if ok, err := m.Step(ctx); !ok || err != nil {
		t.Fatalf("step 1: ok=%v err=%v", ok, err)
	}
	// dns-a is live on w0 alone; mqtt-b boots on w0 and w1 next round.
	f.attach("w1")
	if ok, err := m.Step(ctx); !ok || err != nil {
		t.Fatalf("step 2: ok=%v err=%v", ok, err)
	}
	tail := flightTail{}
	tail.next(t, m, "dns-a")
	f.kill("w0")
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	wantDoneMatching(t, m, state, specs)
	hs := tail.next(t, m, "dns-a")["handoff"]
	if len(hs) == 0 {
		t.Fatal("dns-a was never picked after its worker died")
	}
	if h := hs[0]; h["warm"] != false || h["miss"] != "dead" {
		t.Fatalf("dns-a's first hand-off after the death = %v, want a cold one with miss=dead", h)
	}
	if got := sample("cmfuzz_fleet_cold_restores_total"); got != 1 {
		t.Fatalf("cmfuzz_fleet_cold_restores_total = %d, want dns-a's one", got)
	}
}

// TestStrandedMidSliceRestoresCold: the one worker a campaign booted on
// dies under its slice — a write fuse on the lease after the first —
// while the pool has gained another. The slice fails with no live
// worker left in the campaign's set; instead of failing the campaign,
// the round drops its coordinator with miss=dead, and it is re-run cold
// on the survivor to its standalone tree.
func TestStrandedMidSliceRestoresCold(t *testing.T) {
	spec := fleet.CampaignSpec{ID: "dns-a", Subject: "DNS", Hours: 0.25, Seed: 11, Instances: 1}
	pool := dist.NewPool(dist.Config{HeartbeatInterval: -1})
	serveErr := make(chan error, 2)
	attach := func(name string, fuse int) {
		cConn, wConn := net.Pipe()
		w := dist.NewWorker(dist.WorkerConfig{Name: name, Resolve: protocols.ByName})
		go func() { serveErr <- w.Serve(wConn) }()
		conn := net.Conn(cConn)
		if fuse > 0 {
			// The welcome, the plan, the boot and the first lease get
			// through; the second lease, due at the first sync, fails.
			conn = &faultConn{Conn: cConn, limit: fuse}
		}
		if err := pool.AddConn(conn); err != nil {
			t.Fatal(err)
		}
	}
	attach("w0", 4)
	defer func() {
		pool.Close()
		for i := 0; i < 2; i++ {
			<-serveErr
		}
	}()
	state := t.TempDir()
	m, err := fleet.NewManager(fleet.Config{StateDir: state, Slice: 300}, pool, protocols.ByName)
	if err != nil {
		t.Fatal(err)
	}
	sample := scrape(t, m)
	submitAll(t, m, []fleet.CampaignSpec{spec})
	ctx := context.Background()
	if ok, err := m.Step(ctx); !ok || err != nil {
		t.Fatalf("step 1: ok=%v err=%v", ok, err)
	}
	attach("w1", 0)
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	wantDoneMatching(t, m, state, []fleet.CampaignSpec{spec})
	var misses []any
	for _, h := range handoffs(t, m, spec.ID) {
		if h["miss"] != nil {
			misses = append(misses, h["miss"])
		}
	}
	if len(misses) != 1 || misses[0] != "dead" || sample("cmfuzz_fleet_cold_restores_total") != 1 {
		t.Fatalf("hand-off misses %v with %d cold restores, want one dead and one restore", misses, sample("cmfuzz_fleet_cold_restores_total"))
	}
}
