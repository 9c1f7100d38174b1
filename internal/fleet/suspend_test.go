package fleet_test

import (
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"cmfuzz/internal/dist"
	"cmfuzz/internal/fleet"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/protocols"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/telemetry/metrics"
)

// sixOverTwo is the shape that makes suspension matter: six campaigns
// time-sliced over two workers, so every round squeezes four out.
func sixOverTwo(instances int) []fleet.CampaignSpec {
	return []fleet.CampaignSpec{
		{ID: "dns-a", Subject: "DNS", Hours: 0.25, Seed: 11, Instances: instances},
		{ID: "mqtt-b", Subject: "MQTT", Hours: 0.25, Seed: 3, Instances: instances},
		{ID: "coap-c", Subject: "CoAP", Hours: 0.25, Seed: 7, Instances: instances},
		{ID: "dtls-d", Subject: "DTLS", Hours: 0.25, Seed: 5, Instances: instances},
		{ID: "amqp-e", Subject: "AMQP", Hours: 0.25, Seed: 9, Instances: instances},
		{ID: "dds-f", Subject: "DDS", Hours: 0.25, Seed: 2, Instances: instances},
	}
}

func submitAll(t *testing.T, m *fleet.Manager, specs []fleet.CampaignSpec) {
	t.Helper()
	for _, spec := range specs {
		if err := m.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
}

// wantDoneMatching asserts every spec finished with the artifact tree
// of its standalone run.
func wantDoneMatching(t *testing.T, m *fleet.Manager, state string, specs []fleet.CampaignSpec) {
	t.Helper()
	for _, spec := range specs {
		if st := findStatus(t, m, spec.ID); st.State != fleet.StateDone {
			t.Fatalf("%s = %s (%s), want done", spec.ID, st.State, st.Error)
		}
		diffTrees(t, spec.ID, standaloneTree(t, spec), readTree(t, filepath.Join(state, spec.ID, "artifacts")))
	}
}

// handoffs returns the details of id's hand-off flight records, oldest
// first.
func handoffs(t *testing.T, m *fleet.Manager, id string) []map[string]any {
	t.Helper()
	doc, ok := m.Flight(id)
	if !ok {
		t.Fatalf("no flight recorder for %q", id)
	}
	var out []map[string]any
	for _, e := range doc.Events {
		if e.Kind == "handoff" {
			out = append(out, e.Detail.(map[string]any))
		}
	}
	return out
}

// handoffTally counts, over every spec's flight ring, the hand-offs
// that resumed a suspended campaign and the misses by reason.
func handoffTally(t *testing.T, m *fleet.Manager, specs []fleet.CampaignSpec) (resumed int, misses map[string]int) {
	t.Helper()
	misses = map[string]int{}
	for _, spec := range specs {
		for _, h := range handoffs(t, m, spec.ID) {
			if h["resumed"] == true {
				resumed++
			}
			if why, ok := h["miss"].(string); ok {
				misses[why]++
			}
		}
	}
	return resumed, misses
}

// scrape instruments m on a fresh registry and returns a func that
// renders it, checks it against promlint, and reads one
// unlabelled sample.
func scrape(t *testing.T, m *fleet.Manager) func(name string) int {
	t.Helper()
	reg := metrics.NewRegistry()
	m.Instrument(reg)
	return func(name string) int {
		t.Helper()
		var buf bytes.Buffer
		if err := reg.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := metrics.Lint(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("fleet metrics fail strict lint: %v\n%s", err, buf.String())
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				v, err := strconv.ParseFloat(rest, 64)
				if err != nil {
					t.Fatalf("sample %q: %v", line, err)
				}
				return int(v)
			}
		}
		t.Fatalf("no sample %s in:\n%s", name, buf.String())
		return 0
	}
}

// TestSuspendedDrainMatchesStandalone is the byte-identity proof for
// the third hand-off: six campaigns over two workers are suspended and
// resumed all through the drain, and every artifact tree still equals
// its standalone run. Resumes must actually happen (flight ring,
// counters, slice_start events), and a campaign the round did not pick
// reads as queued whether it is suspended or parked. Every
// checkpoint.bin the drain leaves between rounds holds a position, not
// a history: at most 256 bytes.
func TestSuspendedDrainMatchesStandalone(t *testing.T) {
	specs := sixOverTwo(0)
	pool, wait := newPool(t, 2)
	defer wait()
	state := t.TempDir()
	m, err := fleet.NewManager(fleet.Config{StateDir: state, Slice: 300}, pool, protocols.ByName)
	if err != nil {
		t.Fatal(err)
	}
	sample := scrape(t, m)
	events, cancel := m.Subscribe()
	defer cancel()
	submitAll(t, m, specs)

	ctx := context.Background()
	warmStarts, sawSuspended, checkpoints := 0, false, 0
	for {
		ok, err := m.Step(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		for _, spec := range specs {
			if fi, err := os.Stat(filepath.Join(state, spec.ID, "checkpoint.bin")); err == nil {
				if checkpoints++; fi.Size() > 256 {
					t.Fatalf("%s: checkpoint.bin of %d bytes, want at most 256", spec.ID, fi.Size())
				}
			}
		}
		for id := range m.Suspended() {
			sawSuspended = true
			if st := findStatus(t, m, id); st.State != fleet.StateQueued {
				t.Fatalf("suspended %s reads state=%s, want queued", id, st.State)
			}
		}
		for more := true; more; {
			select {
			case ev := <-events:
				if ev.Dropped != 0 {
					t.Fatalf("event stream dropped %d events; drain it faster", ev.Dropped)
				}
				if ev.Type == "slice_start" && ev.Warm {
					warmStarts++
				}
			default:
				more = false
			}
		}
	}
	wantDoneMatching(t, m, state, specs)
	if checkpoints == 0 {
		t.Fatal("no checkpoint.bin between rounds: the size bound checks nothing")
	}

	resumed, misses := handoffTally(t, m, specs)
	if !sawSuspended || resumed == 0 {
		t.Fatalf("suspended seen = %v, resumed hand-offs = %d (misses %v); want both", sawSuspended, resumed, misses)
	}
	if got := sample("cmfuzz_fleet_warm_resumes_total"); got != resumed {
		t.Fatalf("cmfuzz_fleet_warm_resumes_total = %d, flight rings say %d", got, resumed)
	}
	// Every miss of a suspended campaign is a cold restore; so is no
	// other hand-off in an uninterrupted drain.
	cold := 0
	for _, n := range misses {
		cold += n
	}
	if got := sample("cmfuzz_fleet_cold_restores_total"); got != cold {
		t.Fatalf("cmfuzz_fleet_cold_restores_total = %d, flight rings record %d misses %v", got, cold, misses)
	}
	if warmStarts < resumed {
		t.Fatalf("slice_start events with warm = %d, want at least the %d resumes", warmStarts, resumed)
	}
}

// namedFleet is a pool of pipe workers with distinct names whose
// worker-side connections the test can cut, with heartbeats fast enough
// that a cut is noticed while a test polls for it.
type namedFleet struct {
	t        *testing.T
	pool     *dist.Pool
	ends     map[string]net.Conn
	serveErr chan error
	attached int
}

func newNamedFleet(t *testing.T, names ...string) *namedFleet {
	f := &namedFleet{
		t:        t,
		pool:     dist.NewPool(dist.Config{HeartbeatInterval: 5 * time.Millisecond}),
		ends:     map[string]net.Conn{},
		serveErr: make(chan error, 8),
	}
	for _, name := range names {
		f.attach(name)
	}
	f.pool.StartHeartbeats()
	return f
}

func (f *namedFleet) attach(name string) {
	f.t.Helper()
	cConn, wConn := net.Pipe()
	w := dist.NewWorker(dist.WorkerConfig{Name: name, Resolve: func(name string) (subject.Subject, error) {
		return protocols.ByName(name)
	}})
	go func() { f.serveErr <- w.Serve(wConn) }()
	if err := f.pool.AddConn(cConn); err != nil {
		f.t.Fatal(err)
	}
	f.ends[name] = wConn
	f.attached++
}

// kill cuts name's connection from the worker side and returns once
// the pool has declared the worker dead.
func (f *namedFleet) kill(name string) {
	f.t.Helper()
	f.ends[name].Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, w := range f.pool.Workers() {
			if w.Name == name && !w.Alive {
				return
			}
		}
		if time.Now().After(deadline) {
			f.t.Fatalf("worker %s never declared dead", name)
		}
		time.Sleep(time.Millisecond)
	}
}

func (f *namedFleet) close() {
	f.pool.Close()
	for i := 0; i < f.attached; i++ {
		if err := <-f.serveErr; err != nil {
			f.t.Error(err)
		}
	}
}

// TestSuspendedCampaignLosesItsWorker: a worker holding instances of a
// suspended campaign dies before the campaign is picked again. The
// campaign still has a live worker, so it is resumed warm and absorbs
// the death as a running one does — its lost instances replayed on the
// survivor, a worker_death in its flight ring — also when a new worker
// has attached under the dead one's name, which no running campaign
// takes up: it is a different connection, with none of their state on
// it. Nothing is restored cold, and every tree is the standalone run's.
func TestSuspendedCampaignLosesItsWorker(t *testing.T) {
	for _, reattach := range []bool{false, true} {
		name := "dead worker stays gone"
		if reattach {
			name = "replacement attaches under the same name"
		}
		t.Run(name, func(t *testing.T) {
			// Four instances each, so every campaign has instances on both
			// workers.
			specs := sixOverTwo(0)[:3]
			f := newNamedFleet(t, "w0", "w1")
			defer f.close()
			state := t.TempDir()
			m, err := fleet.NewManager(fleet.Config{StateDir: state, Slice: 300}, f.pool, protocols.ByName)
			if err != nil {
				t.Fatal(err)
			}
			sample := scrape(t, m)
			submitAll(t, m, specs)

			ctx := context.Background()
			var victim string
			for step := 0; victim == ""; step++ {
				if ok, err := m.Step(ctx); !ok || err != nil || step > 10 {
					t.Fatalf("step %d: ok=%v err=%v, and nothing suspended yet", step, ok, err)
				}
				for id := range m.Suspended() {
					victim = id
				}
			}
			tail := flightTail{}
			tail.next(t, m, victim)
			f.kill("w0")
			if reattach {
				f.attach("w0")
			}

			if err := m.Drain(ctx); err != nil {
				t.Fatal(err)
			}
			wantDoneMatching(t, m, state, specs)
			filed := tail.next(t, m, victim)
			if len(filed["handoff"]) == 0 {
				t.Fatalf("%s was never picked again", victim)
			}
			if h := filed["handoff"][0]; h["resumed"] != true || h["warm"] != true || h["miss"] != nil {
				t.Fatalf("%s's first hand-off after the death = %v, want a warm resume", victim, h)
			}
			if len(filed["worker_death"]) != 1 {
				t.Fatalf("%s filed %d worker deaths after the kill, want 1", victim, len(filed["worker_death"]))
			}
			if _, misses := handoffTally(t, m, specs); len(misses) != 0 || sample("cmfuzz_fleet_cold_restores_total") != 0 {
				t.Fatalf("hand-off misses %v, %d cold restores; want none", misses, sample("cmfuzz_fleet_cold_restores_total"))
			}
		})
	}
}

// TestWarmCapDemotesLeastRecentlySliced shrinks the warm cap to one
// instance per worker: with six one-instance campaigns over two
// workers, four are squeezed out each round and only two may stay
// suspended. The ones kept must always be the most recently sliced
// (ties: later submission), demotion must surface as evicted_lru on the
// next hand-off, and none of it may change a byte of any artifact.
func TestWarmCapDemotesLeastRecentlySliced(t *testing.T) {
	specs := sixOverTwo(1)
	order := map[string]int{}
	for i, spec := range specs {
		order[spec.ID] = i
	}
	pool, wait := newPool(t, 2)
	defer wait()
	state := t.TempDir()
	m, err := fleet.NewManager(fleet.Config{StateDir: state, Slice: 300}, pool, protocols.ByName)
	if err != nil {
		t.Fatal(err)
	}
	m.SetWarmCap(1)
	submitAll(t, m, specs)

	ctx := context.Background()
	slices := map[string]int{}
	lastSliced := map[string]int{}
	for round := 1; ; round++ {
		ok, err := m.Step(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		suspended := m.Suspended()
		if len(suspended) > 2 {
			t.Fatalf("round %d: %d campaigns suspended, cap allows 2", round, len(suspended))
		}
		var parked []string
		for _, st := range m.Status() {
			if st.Slices > slices[st.ID] {
				slices[st.ID], lastSliced[st.ID] = st.Slices, round
			}
			if _, warm := suspended[st.ID]; st.State == fleet.StateQueued && st.Slices > 0 && !warm {
				parked = append(parked, st.ID)
			}
		}
		for kept := range suspended {
			for _, dropped := range parked {
				if lastSliced[kept] < lastSliced[dropped] ||
					(lastSliced[kept] == lastSliced[dropped] && order[kept] < order[dropped]) {
					t.Fatalf("round %d: kept %s (sliced round %d) warm but demoted %s (sliced round %d)",
						round, kept, lastSliced[kept], dropped, lastSliced[dropped])
				}
			}
		}
	}
	wantDoneMatching(t, m, state, specs)
	resumed, misses := handoffTally(t, m, specs)
	if misses["evicted_lru"] == 0 || resumed == 0 {
		t.Fatalf("resumed = %d, misses = %v; want both resumes and evicted_lru demotions", resumed, misses)
	}
}

// TestSerialSchedulerHonoursWarmCap: under a cap of one every campaign
// but the round's pick is suspended, so the warm cap is all that bounds
// the live coordinators. With the cap at one instance per worker only
// two one-instance campaigns may stay live beside the one being sliced;
// the rest restore cold, to the same bytes.
func TestSerialSchedulerHonoursWarmCap(t *testing.T) {
	specs := sixOverTwo(1)
	pool, wait := newPool(t, 2)
	defer wait()
	state := t.TempDir()
	m, err := fleet.NewManager(fleet.Config{StateDir: state, Slice: 300, Concurrency: 1}, pool, protocols.ByName)
	if err != nil {
		t.Fatal(err)
	}
	m.SetWarmCap(1)
	sample := scrape(t, m)
	submitAll(t, m, specs)
	ctx := context.Background()
	for {
		ok, err := m.Step(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		// The campaign just sliced is live but not suspended.
		if live := len(m.Suspended()); live > 2 {
			t.Fatalf("%d campaigns suspended between rounds, cap allows 2", live)
		}
	}
	wantDoneMatching(t, m, state, specs)
	if sample("cmfuzz_fleet_cold_restores_total") == 0 {
		t.Fatal("no cold restores: the cap never demoted anything")
	}
}

// TestCancelWithSuspendedCampaigns pins the safety net under every
// suspended coordinator: while it is suspended, checkpoint.bin on disk
// validates and restores to exactly the clock the coordinator reports;
// cancelling Run drops it without rewriting that file; and a fresh
// manager on the same state directory finishes every campaign
// byte-identical.
func TestCancelWithSuspendedCampaigns(t *testing.T) {
	specs := sixOverTwo(0)[:4]
	pool, wait := newPool(t, 2)
	defer wait()
	state := t.TempDir()
	m, err := fleet.NewManager(fleet.Config{StateDir: state, Slice: 300}, pool, protocols.ByName)
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, m, specs)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if ok, err := m.Step(ctx); !ok || err != nil {
			t.Fatalf("step %d: ok=%v err=%v", i, ok, err)
		}
	}
	suspended := m.Suspended()
	if len(suspended) == 0 {
		t.Fatal("nothing suspended after three rounds of four campaigns over two workers")
	}
	onDisk := map[string]os.FileInfo{}
	for id, clock := range suspended {
		ckPath := filepath.Join(state, id, "checkpoint.bin")
		blob, err := os.ReadFile(ckPath)
		if err != nil {
			t.Fatalf("suspended %s has no checkpoint: %v", id, err)
		}
		if err := dist.ValidateCheckpoint(blob); err != nil {
			t.Fatalf("suspended %s: checkpoint.bin invalid: %v", id, err)
		}
		sub, err := protocols.ByName(findStatus(t, m, id).Subject)
		if err != nil {
			t.Fatal(err)
		}
		probe := dist.NewCoordinatorOn(pool, sub, parallel.Options{})
		if err := probe.Restore(ctx, blob); err != nil {
			t.Fatalf("suspended %s: checkpoint.bin does not restore: %v", id, err)
		}
		if got := probe.MinClock(); got != clock {
			t.Fatalf("suspended %s: checkpoint.bin restores to clock %v, coordinator reports %v", id, got, clock)
		}
		probe.Close()
		if onDisk[id], err = os.Stat(ckPath); err != nil {
			t.Fatal(err)
		}
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := m.Run(cancelled); err != context.Canceled {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if left := m.Suspended(); len(left) != 0 {
		t.Fatalf("Run returned with live coordinators: %v", left)
	}
	for _, spec := range specs {
		st := findStatus(t, m, spec.ID)
		if st.State != fleet.StateQueued {
			t.Fatalf("%s after cancel: state=%s, want queued", spec.ID, st.State)
		}
		ckPath := filepath.Join(state, spec.ID, "checkpoint.bin")
		blob, err := os.ReadFile(ckPath)
		if err != nil {
			t.Fatalf("%s parked without a checkpoint: %v", spec.ID, err)
		}
		if err := dist.ValidateCheckpoint(blob); err != nil {
			t.Fatalf("%s: checkpoint.bin invalid after cancel: %v", spec.ID, err)
		}
		if was, ok := onDisk[spec.ID]; ok {
			now, err := os.Stat(ckPath)
			if err != nil {
				t.Fatal(err)
			}
			if !os.SameFile(was, now) {
				t.Fatalf("%s: parking a suspended campaign rewrote a checkpoint that was already current", spec.ID)
			}
		}
	}

	m2, err := fleet.NewManager(fleet.Config{StateDir: state, Slice: 300}, pool, protocols.ByName)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	wantDoneMatching(t, m2, state, specs)
}
