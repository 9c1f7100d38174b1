// Package fleet is the long-lived multi-campaign scheduler behind
// `cmfuzz serve`: many (protocol, configuration-group) campaigns share
// one worker fleet, a deterministic UCB1 bandit reassigns worker time
// slices toward the campaigns with the best observed coverage rate per
// execution, and every campaign survives coordinator restarts through
// its dist checkpoint: its options and the bound its last slice reached,
// which a restart re-runs it to.
//
// The scheduler picks campaigns, not workers. A campaign's coordinator
// boots its instances on the live workers of the shared dist.Pool when
// it starts, and they stay there until the campaign is done, evicted,
// or every one of those workers has died. Each round the bandit ranks
// the runnable campaigns, and the top ones — one per live worker —
// advance one virtual-clock slice simultaneously. A campaign picked
// again continues its lease loop directly, warm; one left out of a
// round is suspended, its coordinator and worker-side engines kept live
// and nothing re-executed. A re-run to checkpoint.bin's bound is paid
// only where nothing live is left to continue (Step). Byte identity
// survives by composition: each campaign's replay is slicing-invariant
// (see dist.Advance) and worker-count-invariant, so the artifacts a
// campaign produces are byte-identical whatever schedule the bandit
// picks, whichever workers it booted on, and however often the hosting
// process restarts.
//
// On-disk layout under Config.StateDir:
//
//	<id>/spec.json       the submitted campaign spec (write-once)
//	<id>/checkpoint.bin  dist checkpoint (~120 bytes), rewritten after every slice
//	<id>/artifacts/      final artifacts, written at completion
//
// All writes are atomic (campaign.WriteFileAtomic), so a kill at any
// instant leaves either the previous or the next consistent state.
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"cmfuzz/internal/campaign"
	"cmfuzz/internal/dist"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/spec"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/telemetry"
	"cmfuzz/internal/telemetry/metrics"
)

// Config parameterizes a Manager.
type Config struct {
	// StateDir persists specs, checkpoints, and final artifacts.
	StateDir string
	// Slice is the virtual-clock length of one scheduling quantum
	// (default 900 virtual seconds — a quarter of a default sync
	// interval cycle, long enough to amortize checkpointing, short
	// enough for the bandit to react).
	Slice float64
	// Concurrency caps a scheduling round at the N highest-priority
	// campaigns. 0 (the default) slices one campaign per live worker
	// concurrently.
	Concurrency int
}

// A CampaignSpec is one submitted campaign, as posted to /api/submit
// and persisted as spec.json: the canonical campaign description.
type CampaignSpec = spec.Campaign

// Campaign lifecycle states.
const (
	StateQueued  = "queued"  // not picked by the latest round (may hold a checkpoint, or be suspended with a live coordinator)
	StateRunning = "running" // picked by the latest round
	StateDone    = "done"    // artifacts written
	StateFailed  = "failed"  // gave up; Error holds why
)

// A CampaignStatus is the /api/status snapshot of one campaign.
type CampaignStatus struct {
	ID      string  `json:"id"`
	Subject string  `json:"subject"`
	Mode    string  `json:"mode"`
	State   string  `json:"state"`
	Clock   float64 `json:"clock"`
	Horizon float64 `json:"horizon"`
	Edges   int     `json:"edges"`
	Execs   int     `json:"execs"`
	Slices  int     `json:"slices"`
	Reward  float64 `json:"reward"`
	Error   string  `json:"error,omitempty"`
}

// campaignRec is the manager-side record of one campaign.
type campaignRec struct {
	spec CampaignSpec
	// opts is spec validated into campaign options, once, at submission
	// or recovery; the zero value for a campaign that failed validation.
	opts  parallel.Options
	state string
	err   string

	// coord is the campaign's live coordinator, its instances booted on
	// the workers it started on: picked by the current round (slicing),
	// or not (suspended); nil when parked, done, failed or never started.
	coord *dist.Coordinator
	// lastRound is the scheduling round that last picked the campaign —
	// the warm cap's least-recently-sliced key, and what tells a
	// suspended coordinator from one being sliced. miss is why the
	// campaign's live coordinator was dropped (dead, evicted_lru); the
	// next hand-off record reports and clears it.
	lastRound int
	miss      map[string]any

	// Bandit bookkeeping. reward is an exponential moving average of the
	// per-slice coverage rate — new union edges per (executions+1)
	// observed during the slice. Coverage rate decays as a campaign
	// saturates, so the bandit discounts old observations instead of
	// averaging over the campaign's whole life; a lifetime mean would
	// keep feeding a campaign that scored big early and plateaued.
	slices int
	reward float64

	// Cached progress, updated at slice boundaries so /api/status never
	// races the replay loop.
	clock   float64
	horizon float64
	edges   int
	execs   int

	// flight is the campaign's flight recorder: a bounded ring of recent
	// telemetry events, bandit awards, and lease summaries, dumped as
	// triage.json when something dies. Observation-only — never read by
	// the scheduler.
	flight *flightRing
}

func (c *campaignRec) runnable() bool { return c.state == StateQueued || c.state == StateRunning }

// A Manager owns the campaign table and the slice scheduler. One
// goroutine drives Step/Drain/Run; Submit, Status, and Results are safe
// to call concurrently from HTTP handlers.
type Manager struct {
	cfg     Config
	pool    *dist.Pool
	resolve func(string) (subject.Subject, error)

	mu        sync.Mutex
	cond      *sync.Cond
	campaigns map[string]*campaignRec
	order     []string
	stopped   bool

	// round counts Step calls; warmCap is warmCapPerWorker (a field only
	// so tests can shrink it). Scheduler goroutine only.
	round   int
	warmCap int
	// Hand-off outcomes, for Instrument: picks that continued a
	// suspended coordinator, and picks that re-ran one to
	// checkpoint.bin's bound.
	warmResumes  atomic.Int64
	coldRestores atomic.Int64

	// events fans lifecycle events out to /api/events subscribers.
	events *broker
}

// Instrument registers the manager's metric families on reg: the
// campaign table (collectCampaigns, over Status), the lifetime
// flight-recorder event count, the lifetime count of stream events
// lost to slow SSE subscribers, and how many picks resumed a suspended
// campaign warm against how many re-ran one to its checkpoint. The
// workers and lease round trips are the pool's (dist.Pool.Instrument).
// Call once, before Run.
func (m *Manager) Instrument(reg *metrics.Registry) {
	collectCampaigns(reg, m.Status)
	reg.CounterFunc("cmfuzz_flight_events_total",
		"Flight-recorder events captured across all campaigns (including evicted ones).",
		func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			var total int64
			for _, c := range m.campaigns {
				total += c.flight.count()
			}
			return float64(total)
		})
	reg.CounterFunc("cmfuzz_stream_dropped_total",
		"Stream events discarded because a subscriber's buffer was full.",
		func() float64 { return float64(m.events.dropped()) })
	reg.CounterFunc("cmfuzz_fleet_warm_resumes_total",
		"Picks that continued a suspended campaign on the workers holding its instances, re-executing nothing.",
		func() float64 { return float64(m.warmResumes.Load()) })
	reg.CounterFunc("cmfuzz_fleet_cold_restores_total",
		"Picks that re-ran a campaign from its spec to its checkpointed bound.",
		func() float64 { return float64(m.coldRestores.Load()) })
}

// collectCampaigns publishes the campaign table snap returns on reg:
//
//	cmfuzz_campaigns{state=...}              campaigns per lifecycle state
//	cmfuzz_campaign_clock_seconds{...}       virtual-clock progress
//	cmfuzz_campaign_horizon_seconds{...}     virtual-clock budget
//	cmfuzz_campaign_edges{...}               union coverage so far
//	cmfuzz_campaign_execs{...}               executions so far
//	cmfuzz_campaign_slices{...}              scheduler quanta received
//	cmfuzz_bandit_reward{...}                scheduler reward EMA
//
// Per-campaign series are labeled campaign=<id>,subject=<protocol>.
// Status reads the slice-boundary snapshots, so scraping never contends
// with a campaign mid-advance — and because every scrape re-reads them,
// campaigns recovered from disk after a restart report their persisted
// final figures, not zeros.
func collectCampaigns(reg *metrics.Registry, snap func() []CampaignStatus) {
	reg.Collect(func(set func(name, help string, value float64, labels ...metrics.Label)) {
		byState := map[string]int{}
		for _, cs := range snap() {
			byState[cs.State]++
			cl := metrics.L("campaign", cs.ID)
			sl := metrics.L("subject", cs.Subject)
			set("cmfuzz_campaign_clock_seconds", "Virtual-clock progress of the campaign.",
				cs.Clock, cl, sl)
			set("cmfuzz_campaign_horizon_seconds", "Virtual-clock budget of the campaign.",
				cs.Horizon, cl, sl)
			set("cmfuzz_campaign_edges", "Union branch coverage observed so far.",
				float64(cs.Edges), cl, sl)
			set("cmfuzz_campaign_execs", "Protocol executions spent so far.",
				float64(cs.Execs), cl, sl)
			set("cmfuzz_campaign_slices", "Scheduler time slices granted so far.",
				float64(cs.Slices), cl, sl)
			set("cmfuzz_bandit_reward", "Discounted reward EMA (new edges per execution) the scheduler holds for the campaign.",
				cs.Reward, cl, sl)
		}
		for _, state := range []string{StateQueued, StateRunning, StateDone, StateFailed} {
			set("cmfuzz_campaigns", "Campaigns per lifecycle state.",
				float64(byState[state]), metrics.L("state", state))
		}
	})
}

// NewManager opens (or creates) the state directory and recovers every
// campaign found there: completed campaigns (artifacts present) come
// back done, everything else comes back queued — with its checkpoint,
// if one was persisted, re-run to on the campaign's first slice.
func NewManager(cfg Config, pool *dist.Pool, resolve func(string) (subject.Subject, error)) (*Manager, error) {
	if cfg.Slice <= 0 {
		cfg.Slice = 900
	}
	if cfg.StateDir == "" {
		return nil, errors.New("fleet: no state directory configured")
	}
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:       cfg,
		pool:      pool,
		resolve:   resolve,
		campaigns: make(map[string]*campaignRec),
		warmCap:   warmCapPerWorker,
		events:    newBroker(),
	}
	m.cond = sync.NewCond(&m.mu)

	entries, err := os.ReadDir(cfg.StateDir)
	if err != nil {
		return nil, err
	}
	// Recover in name order: the original submission order is not
	// persisted, and a deterministic recovery order keeps the bandit's
	// tie-breaking reproducible across restarts.
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name() < entries[j].Name() })
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		spec, err := readSpec(filepath.Join(cfg.StateDir, e.Name(), "spec.json"))
		if errors.Is(err, fs.ErrNotExist) {
			continue // not a campaign dir (or torn before the atomic spec write: never submitted)
		}
		if err != nil && spec.ID == "" {
			// A spec.json that does not decode still marks a submitted
			// campaign: it is failed below under its directory's name,
			// with the decode error, rather than gone from /api/status.
			spec = CampaignSpec{ID: e.Name()}
		}
		rec, invalid := newCampaignRec(spec)
		if err != nil {
			invalid = err // a field no campaign has, such as a retired ablation's
		}
		if raw, err := os.ReadFile(filepath.Join(m.dir(spec.ID), "artifacts", "result.json")); err == nil {
			rec.state = StateDone
			rec.clock = rec.horizon
			// Recover the final figures from the artifact so status and
			// monitor gauges don't read zero for campaigns completed in a
			// previous process lifetime.
			var final struct {
				FinalBranches int `json:"final_branches"`
				TotalExecs    int `json:"total_execs"`
			}
			if json.Unmarshal(raw, &final) == nil {
				rec.edges = final.FinalBranches
				rec.execs = final.TotalExecs
			}
		}
		// A spec Submit would refuse today (written by hand, or by a
		// build that did not validate) would otherwise fail — or panic —
		// the campaign's first slice after recovery, on every restart.
		// Mark the campaign failed now, with the reason so /api/status
		// reports why, and keep scanning: one damaged campaign must not
		// abort recovery of the rest.
		if rec.state == StateQueued && invalid != nil {
			rec.state, rec.err = StateFailed, invalid.Error()
		}
		// A checkpoint that does not validate (torn by a kill mid-rename,
		// disk trouble, or written by an older build) is renamed aside,
		// and the campaign re-runs from spec.json: its checkpoint only
		// ever saved it the re-run to a bound.
		if rec.state == StateQueued {
			ckPath := filepath.Join(m.dir(spec.ID), "checkpoint.bin")
			if blob, err := os.ReadFile(ckPath); err == nil {
				if verr := dist.ValidateCheckpoint(blob); verr != nil {
					os.Rename(ckPath, ckPath+".corrupt")
					rec.flight.add("checkpoint_quarantined", map[string]any{"error": verr.Error()})
				}
			}
		}
		m.campaigns[spec.ID] = rec
		m.order = append(m.order, spec.ID)
	}
	return m, nil
}

// newCampaignRec builds the record of a queued campaign and reports
// whether its spec is valid.
func newCampaignRec(spec CampaignSpec) (*campaignRec, error) {
	opts, err := spec.Options()
	return &campaignRec{spec: spec, opts: opts, state: StateQueued, horizon: opts.Horizon(), flight: newFlightRing()}, err
}

func (m *Manager) dir(id string) string { return filepath.Join(m.cfg.StateDir, id) }

func validID(id string) bool {
	if id == "" || len(id) > 64 || id[0] == '.' {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return false
		}
	}
	return true
}

// ErrExists reports a submit with an already-used campaign id.
var ErrExists = errors.New("fleet: campaign id already exists")

// Submit validates spec, persists it, and queues the campaign. The
// bandit will start slicing it on the scheduler's next round.
func (m *Manager) Submit(spec CampaignSpec) error {
	if !validID(spec.ID) {
		return fmt.Errorf("fleet: invalid campaign id %q", spec.ID)
	}
	rec, err := newCampaignRec(spec)
	if err != nil {
		return fmt.Errorf("fleet: campaign %q: %w", spec.ID, err)
	}
	if _, err := spec.Target(m.resolve); err != nil {
		return fmt.Errorf("fleet: campaign %q: %w", spec.ID, err)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.campaigns[spec.ID]; ok {
		return ErrExists
	}
	if err := os.MkdirAll(m.dir(spec.ID), 0o755); err != nil {
		return err
	}
	if err := writeSpec(filepath.Join(m.dir(spec.ID), "spec.json"), spec); err != nil {
		return err
	}
	m.campaigns[spec.ID] = rec
	m.order = append(m.order, spec.ID)
	m.cond.Broadcast()
	m.events.publish(StreamEvent{Type: "submit", Campaign: spec.ID, State: StateQueued})
	return nil
}

// Status snapshots every campaign in submission order.
func (m *Manager) Status() []CampaignStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]CampaignStatus, 0, len(m.order))
	for _, id := range m.order {
		c := m.campaigns[id]
		out = append(out, CampaignStatus{
			ID:      c.spec.ID,
			Subject: c.spec.Subject,
			Mode:    c.opts.Mode.String(),
			State:   c.state,
			Clock:   c.clock,
			Horizon: c.horizon,
			Edges:   c.edges,
			Execs:   c.execs,
			Slices:  c.slices,
			Reward:  c.reward,
			Error:   c.err,
		})
	}
	return out
}

// Results returns the final result.json of a completed campaign.
func (m *Manager) Results(id string) ([]byte, error) {
	m.mu.Lock()
	c, ok := m.campaigns[id]
	state := ""
	if ok {
		state = c.state
	}
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("fleet: unknown campaign %q", id)
	}
	if state != StateDone {
		return nil, fmt.Errorf("fleet: campaign %q is %s, not done", id, state)
	}
	return os.ReadFile(filepath.Join(m.dir(id), "artifacts", "result.json"))
}

// rewardDecay is the EMA coefficient for the per-slice coverage-rate
// reward: reward = decay*old + (1-decay)*new. 0.5 tracks a saturating
// campaign within a couple of slices without thrashing on one noisy
// slice.
const rewardDecay = 0.5

// observer builds c's dist.Observer: lease summaries and worker deaths
// flow into the flight recorder, and a death additionally dumps
// triage.json and hits the event stream.
// Lease fires from the goroutine advancing the campaign's slice;
// everything it touches locks.
func (m *Manager) observer(c *campaignRec) dist.Observer {
	return dist.Observer{
		Lease: func(instance, records, reqBytes, repBytes int, seconds float64, syncDue bool) {
			c.flight.add("lease", map[string]any{
				"instance":  instance,
				"records":   records,
				"req_bytes": reqBytes,
				"rep_bytes": repBytes,
				"seconds":   seconds,
				"sync_due":  syncDue,
			})
		},
		Death: func(worker string) {
			c.flight.add("worker_death", map[string]any{"worker": worker})
			m.dumpFlight(c, "worker_death")
			m.events.publish(StreamEvent{Type: "worker_death", Campaign: c.spec.ID, Worker: worker})
		},
	}
}

// newCoordinator makes a coordinator for c on the pool, not started.
// Step makes those of a round's cold picks in rank order before any of
// them starts, so the pool's campaign ids — and with them the workers
// each campaign boots on — follow the ranking, not goroutine scheduling.
func (m *Manager) newCoordinator(c *campaignRec) (*dist.Coordinator, error) {
	sub, err := c.spec.Target(m.resolve)
	if err != nil {
		return nil, err
	}
	// Concurrency is pinned to 1: a round starts and restores its
	// campaigns side by side already, and one probe goroutine each keeps
	// that from multiplying into campaigns × GOMAXPROCS of them. A fresh
	// plain recorder per coordinator — not a run-stamped one — so a
	// re-run campaign's event log is the standalone run's, byte for byte.
	opts := c.opts
	opts.Concurrency = 1
	opts.Telemetry = telemetry.New()
	coord := dist.NewCoordinatorOn(m.pool, sub, opts)
	coord.SetObserver(m.observer(c))
	return coord, nil
}

// start brings c's fresh coordinator up: it re-runs the campaign to the
// persisted checkpoint's bound when one exists (Restore), or starts it.
func (m *Manager) start(ctx context.Context, c *campaignRec, coord *dist.Coordinator) error {
	var err error
	ckPath := filepath.Join(m.dir(c.spec.ID), "checkpoint.bin")
	if blob, rerr := os.ReadFile(ckPath); rerr == nil {
		m.coldRestores.Add(1)
		err = coord.Restore(ctx, blob)
	} else {
		err = coord.Start(ctx)
	}
	if err != nil {
		coord.Close()
		return err
	}
	// Tap after Start/Restore: the flight ring records what happens from
	// here, not a re-run's replay of the past. The tap mirrors campaign
	// telemetry (crashes, config switches) into the flight recorder
	// without touching the recorder's own event log.
	coord.Recorder().SetTap(func(ev telemetry.Event) { c.flight.add("telemetry", ev) })
	clock, edges, execs := coord.Progress()
	m.mu.Lock()
	c.coord = coord
	c.state = StateRunning
	c.clock, c.edges, c.execs = clock, edges, execs
	c.horizon = coord.Horizon()
	m.mu.Unlock()
	return nil
}

// runSlice advances c by one scheduling quantum — its live coordinator,
// or fresh brought up first — then either completes the campaign
// (artifacts written, checkpoint removed) or persists the checkpoint of
// the bound it reached: the only place checkpoint.bin is written,
// because only a completed Advance moves it. Called with m.mu NOT held.
func (m *Manager) runSlice(ctx context.Context, c *campaignRec, fresh *dist.Coordinator) error {
	warm := fresh == nil
	if warm {
		m.setState(c, StateRunning)
	} else if err := m.start(ctx, c, fresh); err != nil {
		return err
	}
	coord := c.coord
	m.mu.Lock()
	m.events.publish(StreamEvent{
		Type: "slice_start", Campaign: c.spec.ID, State: c.state,
		Clock: c.clock, Edges: c.edges, Execs: c.execs, Warm: warm,
	})
	m.mu.Unlock()
	target := coord.MinClock() + m.cfg.Slice
	if h := coord.Horizon(); target > h {
		target = h
	}
	if err := coord.Advance(ctx, target); err != nil {
		return err
	}
	if coord.MinClock() >= coord.Horizon() {
		res, err := coord.Finish(ctx)
		if err != nil {
			return err
		}
		dir := filepath.Join(m.dir(c.spec.ID), "artifacts")
		if err := campaign.WriteTelemetry(dir, coord.Recorder()); err != nil {
			return err
		}
		// result.json lands last: its presence marks the campaign done,
		// so every other artifact must already be in place when a
		// recovery scan sees it.
		if err := campaign.WriteArtifacts(dir, res); err != nil {
			return err
		}
		coord.Close()
		os.Remove(filepath.Join(m.dir(c.spec.ID), "checkpoint.bin"))

		m.mu.Lock()
		c.coord = nil
		c.state = StateDone
		c.clock = coord.Horizon()
		edgesDelta, execsDelta := res.FinalBranches-c.edges, res.TotalExecs-c.execs
		c.edges = res.FinalBranches
		c.execs = res.TotalExecs
		c.slices++
		m.events.publish(StreamEvent{
			Type: "slice_end", Campaign: c.spec.ID, State: StateDone,
			Clock: c.clock, Edges: c.edges, Execs: c.execs,
			EdgesDelta: edgesDelta, ExecsDelta: execsDelta, Reward: c.reward,
		})
		m.events.publish(StreamEvent{
			Type: "done", Campaign: c.spec.ID, State: StateDone,
			Clock: c.clock, Edges: c.edges, Execs: c.execs,
		})
		m.mu.Unlock()
		return nil
	}

	blob, err := coord.Checkpoint()
	if err != nil {
		return err
	}
	if err := campaign.WriteFileAtomic(filepath.Join(m.dir(c.spec.ID), "checkpoint.bin"), blob, 0o644); err != nil {
		return err
	}

	clock, edges, execs := coord.Progress()
	m.mu.Lock()
	edgesDelta, execsDelta := edges-c.edges, execs-c.execs
	r := float64(edgesDelta) / float64(execsDelta+1)
	if c.slices == 0 {
		c.reward = r
	} else {
		c.reward = rewardDecay*c.reward + (1-rewardDecay)*r
	}
	c.slices++
	c.clock, c.edges, c.execs = clock, edges, execs
	m.events.publish(StreamEvent{
		Type: "checkpoint", Campaign: c.spec.ID, State: StateRunning, Clock: clock,
	})
	m.events.publish(StreamEvent{
		Type: "slice_end", Campaign: c.spec.ID, State: StateRunning,
		Clock: clock, Edges: edges, Execs: execs,
		EdgesDelta: edgesDelta, ExecsDelta: execsDelta, Reward: c.reward,
	})
	m.mu.Unlock()
	return nil
}

// rank lists the runnable campaigns best first, with the slices they
// have run between them. Called with m.mu held; deterministic throughout
// (ties break toward earlier submission).
//
// Untried campaigns come first in submission order, then tried ones by
// discounted-UCB score — EMA reward + sqrt(2 ln N / n) * scale, with
// scale the best current EMA so the exploration bonus is commensurable
// with the rewards (edge counts per exec vary by orders of magnitude
// across protocols).
func (m *Manager) rank() (cands []*campaignRec, total int) {
	for _, id := range m.order {
		c := m.campaigns[id]
		if c.runnable() {
			cands = append(cands, c)
			total += c.slices
		}
	}
	scale := 0.0
	for _, c := range cands {
		if c.reward > scale {
			scale = c.reward
		}
	}
	if scale == 0 {
		scale = 1
	}
	score := make(map[*campaignRec]float64, len(cands))
	for _, c := range cands {
		if c.slices == 0 {
			// Untried: rank ahead of every scored campaign, preserving
			// submission order among themselves.
			score[c] = math.Inf(1)
			continue
		}
		score[c] = c.reward + math.Sqrt(2*math.Log(float64(total))/float64(c.slices))*scale
	}
	sort.SliceStable(cands, func(i, j int) bool { return score[cands[i]] > score[cands[j]] })
	return cands, total
}

// instanceCap is the campaign's parallel instance count: what its live
// coordinator keeps booted on the workers.
func (c *campaignRec) instanceCap() int {
	if c.opts.Instances > 0 {
		return c.opts.Instances
	}
	return parallel.DefaultInstances
}

// Step runs one scheduling round: rank the runnable campaigns, pick the
// top ones — one per live worker, at most Config.Concurrency (a cap of
// one is the classic one-pick-per-step bandit) — and advance every pick
// one slice in parallel. It reports false when no campaign is runnable.
// A context cancellation parks every interrupted campaign at its last
// persisted checkpoint.
//
// Where a campaign runs is not the round's to choose: its instances
// stay on the workers its coordinator booted them on (dist.Coordinator
// spreads campaigns over the pool as they boot), because moving them
// would cost the campaign's whole history. A pick with a live
// coordinator continues its lease loop with nothing re-booted and
// nothing re-executed — warm if it sliced last round, resumed if it was
// suspended. Any other pick — new, parked, recovered, or evicted — is
// re-run to checkpoint.bin's bound on the pool's live workers (or
// started, the first time): the cold hand-off. A campaign not picked
// keeps its coordinator, suspended, within the warm cap. A coordinator
// whose workers have all died has nothing left to continue and is
// dropped, to be re-run cold when it is next picked.
func (m *Manager) Step(ctx context.Context) (bool, error) {
	m.round++
	m.mu.Lock()
	ranked, total := m.rank()
	m.mu.Unlock()
	if len(ranked) == 0 {
		return false, nil
	}
	for _, c := range ranked {
		if c.coord != nil && c.coord.Stranded() {
			m.drop(c, map[string]any{"miss": "dead"})
		}
	}
	// With no live worker at all the top campaign is still picked: its
	// start fails, and the failure surfaces on the campaign instead of
	// the round silently reporting nothing runnable.
	picks := max(m.liveWorkers(), 1)
	if m.cfg.Concurrency > 0 {
		picks = min(picks, m.cfg.Concurrency)
	}
	picked := ranked[:min(picks, len(ranked))]
	fresh := make([]*dist.Coordinator, len(picked))
	errs := make([]error, len(picked))
	for i, c := range picked {
		warm := c.coord != nil
		if !warm {
			fresh[i], errs[i] = m.newCoordinator(c)
		}
		resumed := warm && c.lastRound != m.round-1
		if resumed {
			m.warmResumes.Add(1)
		}
		c.handoff(warm, resumed)
		c.lastRound = m.round
		c.flight.add("award", map[string]any{
			"reward":  c.reward,
			"slices":  c.slices,
			"total":   total,
			"untried": c.slices == 0,
		})
	}
	// Retire surplus suspended campaigns before the cold picks boot fresh
	// instances onto the same workers.
	m.enforceWarmCap()
	m.mu.Lock()
	for _, c := range ranked[len(picked):] {
		c.state = StateQueued
	}
	m.mu.Unlock()

	var wg sync.WaitGroup
	for i, c := range picked {
		if errs[i] != nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = m.runSlice(ctx, c, fresh[i])
		}()
	}
	wg.Wait()

	interrupted := false
	for i, c := range picked {
		switch err := errs[i]; {
		case err == nil:
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			m.park(c)
			interrupted = true
		case c.coord != nil && c.coord.Stranded():
			// Its workers died under the slice: the campaign is intact at
			// checkpoint.bin, and re-runs there on whatever is alive.
			m.drop(c, map[string]any{"miss": "dead"})
		default:
			m.failCampaign(c, err)
		}
	}
	if interrupted {
		return false, ctx.Err()
	}
	return true, nil
}

// liveWorkers counts the pool's live workers.
func (m *Manager) liveWorkers() int {
	n := 0
	for _, w := range m.pool.Workers() {
		if w.Alive {
			n++
		}
	}
	return n
}

// handoff files how a pick was met in c's flight recorder: warm (no
// coordinator had to be started or restored), resumed (a suspended one
// was picked up again), and — on the cold hand-off after a live
// coordinator was dropped — why.
func (c *campaignRec) handoff(warm, resumed bool) {
	detail := map[string]any{"warm": warm, "resumed": resumed}
	for k, v := range c.miss {
		detail[k] = v
	}
	c.miss = nil
	c.flight.add("handoff", detail)
}

// failCampaign handles a campaign-fatal slice error (dead fleet, lost
// subject, disk error): the campaign is marked failed, its flight
// recorder dumped, and its instances released, while the scheduler
// keeps serving the others.
func (m *Manager) failCampaign(c *campaignRec, err error) {
	if c.coord != nil {
		c.coord.Close()
		c.coord = nil
	}
	c.flight.add("failed", map[string]any{"error": err.Error()})
	m.dumpFlight(c, "campaign_failed")
	m.mu.Lock()
	c.state = StateFailed
	c.err = err.Error()
	m.mu.Unlock()
	m.events.publish(StreamEvent{
		Type: "failed", Campaign: c.spec.ID, State: StateFailed, Error: err.Error(),
	})
}

func (m *Manager) setState(c *campaignRec, state string) {
	m.mu.Lock()
	c.state = state
	m.mu.Unlock()
}

// park closes c's coordinator — releasing its instances on the workers
// — leaving the campaign queued so a later scheduler (this process or
// the next) can re-run it to checkpoint.bin's bound. It writes nothing:
// runSlice persisted the checkpoint when the last Advance completed,
// and an interrupted one leaves the checkpoint where it was.
func (m *Manager) park(c *campaignRec) {
	if c.coord == nil {
		return
	}
	c.coord.Close()
	c.coord = nil
	m.setState(c, StateQueued)
}

// drop parks a campaign whose live coordinator cannot, or should not,
// be continued, noting why for its next hand-off record.
func (m *Manager) drop(c *campaignRec, miss map[string]any) {
	c.miss = miss
	m.park(c)
}

// warmCapPerWorker bounds what suspended campaigns — live coordinators
// the round did not pick — may keep booted: this many instances per
// live worker (four default campaigns). A constant, not a Config field:
// it trades worker and coordinator memory against restore
// re-execution, the right value follows from instance footprint rather
// than deployment, and below it the cap is inert.
const warmCapPerWorker = 16

// enforceWarmCap parks suspended coordinators, least recently sliced
// first (ties: submission order), until the instances they keep booted
// fit warmCap per live worker.
func (m *Manager) enforceWarmCap() {
	budget := m.liveWorkers() * m.warmCap
	var warm []*campaignRec
	kept := 0
	for _, c := range m.held() {
		if c.lastRound != m.round {
			warm = append(warm, c)
			kept += c.instanceCap()
		}
	}
	sort.SliceStable(warm, func(i, j int) bool { return warm[i].lastRound < warm[j].lastRound })
	for _, c := range warm {
		if kept <= budget {
			return
		}
		kept -= c.instanceCap()
		m.drop(c, map[string]any{"miss": "evicted_lru"})
	}
}

// held lists, in submission order, every campaign holding a live
// coordinator.
func (m *Manager) held() []*campaignRec {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []*campaignRec
	for _, id := range m.order {
		if c := m.campaigns[id]; c.coord != nil {
			out = append(out, c)
		}
	}
	return out
}

// Run is the serve-mode main loop: slice runnable campaigns, sleep on
// the condition variable while the table is empty or complete, wake on
// Submit. On context cancellation every running campaign is parked
// (closed, at its last checkpoint) before Run returns ctx.Err().
func (m *Manager) Run(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() {
		m.mu.Lock()
		m.stopped = true
		m.cond.Broadcast()
		m.mu.Unlock()
	})
	defer stop()
	for {
		ok, err := m.Step(ctx)
		if err != nil || ctx.Err() != nil {
			m.parkAll()
			return ctx.Err()
		}
		if ok {
			continue
		}
		m.mu.Lock()
		for !m.stopped && !m.anyRunnable() {
			m.cond.Wait()
		}
		stopped := m.stopped
		m.mu.Unlock()
		if stopped {
			m.parkAll()
			return ctx.Err()
		}
	}
}

// anyRunnable reports whether a round would have anything to slice.
// Called with m.mu held.
func (m *Manager) anyRunnable() bool {
	for _, c := range m.campaigns {
		if c.runnable() {
			return true
		}
	}
	return false
}

// parkAll parks every campaign holding a live coordinator, suspended
// ones included.
func (m *Manager) parkAll() {
	for _, c := range m.held() {
		m.park(c)
	}
}

// Close stops the manager and parks every live campaign. Nothing is
// written, so the on-disk state stays at the last completed slice,
// exactly as if the process had been killed: restart tests use it to
// simulate a crash.
func (m *Manager) Close() {
	m.mu.Lock()
	m.stopped = true
	m.cond.Broadcast()
	m.mu.Unlock()
	m.parkAll()
}
