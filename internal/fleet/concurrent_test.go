package fleet_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"testing"

	"cmfuzz/internal/dist"
	"cmfuzz/internal/fleet"
	"cmfuzz/internal/protocols"
	"cmfuzz/internal/subject"
)

// TestConcurrentMatchesSerial is the byte-identity proof for the
// concurrency cap: a 4-campaign mix drained uncapped (disjoint
// partitions, one slice per campaign per round, warm hand-offs) must
// write, campaign for campaign, the exact artifact trees a cap of one
// writes (one campaign per round on every worker it can use, the rest
// suspended). Slicing invariance times worker-count invariance — the
// composition this test pins end to end.
func TestConcurrentMatchesSerial(t *testing.T) {
	specs := []fleet.CampaignSpec{
		{ID: "dns-a", Subject: "DNS", Hours: 0.5, Seed: 11},
		{ID: "mqtt-b", Subject: "MQTT", Hours: 0.25, Seed: 3},
		{ID: "coap-c", Subject: "CoAP", Hours: 0.25, Seed: 7},
		{ID: "dtls-d", Subject: "DTLS", Hours: 0.5, Seed: 5},
	}

	drain := func(concurrency int) (string, map[string]fleet.CampaignStatus) {
		pool, wait := newPool(t, 4)
		defer wait()
		state := t.TempDir()
		m, err := fleet.NewManager(fleet.Config{StateDir: state, Slice: 300, Concurrency: concurrency},
			pool, protocols.ByName)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range specs {
			if err := m.Submit(spec); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		sts := map[string]fleet.CampaignStatus{}
		for _, st := range m.Status() {
			sts[st.ID] = st
		}
		return state, sts
	}

	serialState, serialSts := drain(1) // a round is one campaign
	concState, concSts := drain(0)     // a round is every runnable campaign

	for _, spec := range specs {
		if st := serialSts[spec.ID]; st.State != fleet.StateDone {
			t.Fatalf("cap-1 %s = %s (%s), want done", spec.ID, st.State, st.Error)
		}
		if st := concSts[spec.ID]; st.State != fleet.StateDone {
			t.Fatalf("uncapped %s = %s (%s), want done", spec.ID, st.State, st.Error)
		}
		diffTrees(t, "uncapped vs cap-1 "+spec.ID,
			readTree(t, filepath.Join(serialState, spec.ID, "artifacts")),
			readTree(t, filepath.Join(concState, spec.ID, "artifacts")))
	}
}

// faultConn fails every write after `limit` successful ones, simulating
// a worker process dying at a deterministic point in the RPC sequence
// (net.Pipe carries no kernel buffering, so the interleaving is
// reproducible).
type faultConn struct {
	net.Conn
	writes int
	limit  int
}

var errInjected = errors.New("injected worker failure")

func (f *faultConn) Write(p []byte) (int, error) {
	if f.writes >= f.limit {
		return 0, errInjected
	}
	f.writes++
	return f.Conn.Write(p)
}

// TestPartitionWorkerDeath kills one worker of a 2-worker partition
// mid-slice. In-partition reassignment replays the lost instance on the
// survivor, so the campaign ends with the tree of an undisturbed
// standalone run, byte for byte; so does the other campaign, slicing
// concurrently on its own partition. The survivor keeps the campaign:
// every hand-off after its first is warm, with no miss.
func TestPartitionWorkerDeath(t *testing.T) {
	specA := fleet.CampaignSpec{ID: "dns-a", Subject: "DNS", Hours: 0.25, Seed: 11, Instances: 2}
	specB := fleet.CampaignSpec{ID: "mqtt-b", Subject: "MQTT", Hours: 0.25, Seed: 3, Instances: 2}
	wantA := standaloneTree(t, specA)
	wantB := standaloneTree(t, specB)

	// Four pipe workers; the allocator hands untried campaigns their
	// shares in submission order, so A gets {w0,w1} and B gets {w2,w3}.
	// w1 carries a write fuse: welcome, assign, boot, and the first
	// lease succeed, then the next lease dispatch fails — a mid-slice
	// death inside A's partition.
	pool := dist.NewPool(dist.Config{HeartbeatInterval: -1})
	serveErr := make(chan error, 4)
	for i := 0; i < 4; i++ {
		cConn, wConn := net.Pipe()
		w := dist.NewWorker(dist.WorkerConfig{Name: fmt.Sprintf("w%d", i), Resolve: func(name string) (subject.Subject, error) {
			return protocols.ByName(name)
		}})
		go func() { serveErr <- w.Serve(wConn) }()
		conn := net.Conn(cConn)
		if i == 1 {
			conn = &faultConn{Conn: cConn, limit: 4}
		}
		if err := pool.AddConn(conn); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		pool.Close()
		for i := 0; i < 4; i++ {
			if err := <-serveErr; err != nil {
				t.Error(err)
			}
		}
	}()

	state := t.TempDir()
	m, err := fleet.NewManager(fleet.Config{StateDir: state, Slice: 300}, pool, protocols.ByName)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []fleet.CampaignSpec{specA, specB} {
		if err := m.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"dns-a", "mqtt-b"} {
		if st := findStatus(t, m, id); st.State != fleet.StateDone {
			t.Fatalf("%s = %s (%s), want done", id, st.State, st.Error)
		}
	}

	// B never shared a connection with the dead worker, and A lost one
	// mid-slice: every artifact of both is the undisturbed run's.
	diffTrees(t, "unaffected campaign", wantB, readTree(t, filepath.Join(state, "mqtt-b", "artifacts")))
	diffTrees(t, "death-afflicted campaign", wantA, readTree(t, filepath.Join(state, "dns-a", "artifacts")))

	// The fuse really fired, in A's partition...
	doc, _ := m.Flight("dns-a")
	deaths := 0
	for _, e := range doc.Events {
		if e.Kind == "worker_death" {
			deaths++
		}
	}
	if deaths != 1 {
		t.Fatalf("dns-a's flight ring holds %d worker deaths, want 1", deaths)
	}
	// ...and A kept its partition: the first hand-off started it, and
	// every later one was warm — no park, restore or cold re-grant.
	hs := handoffs(t, m, "dns-a")
	if len(hs) < 2 {
		t.Fatalf("dns-a was handed workers %d times, want a slice after the death", len(hs))
	}
	for k, h := range hs {
		if _, missed := h["miss"]; missed || h["warm"] != (k > 0) || h["resumed"] != false {
			t.Fatalf("dns-a's hand-off %d = %v; want the first cold and every later one warm, none resumed or missed", k, h)
		}
	}
	if last := hs[len(hs)-1]; last["workers"] != 1 {
		t.Fatalf("dns-a's last hand-off = %v, want the survivor alone", last)
	}
}

// TestElasticAdmissionFleet: a worker attaching after the scheduler is
// already slicing joins the free set and is handed to a campaign on
// the very next round. With one worker, only the top-priority campaign
// can run; once a second worker joins, both slice concurrently.
func TestElasticAdmissionFleet(t *testing.T) {
	pool, wait := newPool(t, 1)
	defer wait()
	state := t.TempDir()
	m, err := fleet.NewManager(fleet.Config{StateDir: state, Slice: 300}, pool, protocols.ByName)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []fleet.CampaignSpec{
		{ID: "dns-a", Subject: "DNS", Hours: 0.25, Seed: 11, Instances: 1},
		{ID: "mqtt-b", Subject: "MQTT", Hours: 0.25, Seed: 3, Instances: 1},
	} {
		if err := m.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	if ok, err := m.Step(ctx); !ok || err != nil {
		t.Fatalf("step 1: ok=%v err=%v", ok, err)
	}
	if a, b := findStatus(t, m, "dns-a"), findStatus(t, m, "mqtt-b"); a.Slices != 1 || b.Slices != 0 {
		t.Fatalf("after step 1: slices = %d/%d, want 1/0 (one worker, one partition)", a.Slices, b.Slices)
	}

	// Late joiner: next round's allocation absorbs it and the starved
	// campaign gets its own partition.
	cConn, wConn := net.Pipe()
	w := dist.NewWorker(dist.WorkerConfig{Name: "late", Resolve: func(name string) (subject.Subject, error) {
		return protocols.ByName(name)
	}})
	lateErr := make(chan error, 1)
	go func() { lateErr <- w.Serve(wConn) }()
	if err := pool.AddConn(cConn); err != nil {
		t.Fatal(err)
	}

	if ok, err := m.Step(ctx); !ok || err != nil {
		t.Fatalf("step 2: ok=%v err=%v", ok, err)
	}
	if a, b := findStatus(t, m, "dns-a"), findStatus(t, m, "mqtt-b"); a.Slices != 2 || b.Slices != 1 {
		t.Fatalf("after step 2: slices = %d/%d, want 2/1 (late worker absorbed)", a.Slices, b.Slices)
	}
	if b := findStatus(t, m, "mqtt-b"); b.Workers != 1 {
		t.Fatalf("mqtt-b workers = %d, want 1", b.Workers)
	}
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	// Close the pool before joining the late worker's Serve loop (the
	// deferred wait() would otherwise run too late, after this join).
	pool.Close()
	if err := <-lateErr; err != nil {
		t.Error(err)
	}
}
