// Package parallel orchestrates parallel fuzzing campaigns over the
// protocol subjects. It implements the three fuzzers the paper compares:
//
//   - CMFuzz: configuration model identification + relation-aware
//     scheduling (one cohesive configuration group per instance), with
//     adaptive mutation of MUTABLE configuration values on coverage
//     saturation (paper §III-B2);
//   - Peach parallel mode: N identical default-configuration instances
//     with periodic seed synchronization;
//   - SPFuzz: default configuration, state-model path space partitioned
//     across instances (stateful-path-based parallelism).
//
// Campaigns run on a virtual clock: each engine step models a batch of
// protocol executions and advances the owning instance's clock by a cost
// derived from the bytes sent, so 24 simulated hours replay in seconds
// and deterministically for a fixed seed. Each instance owns its subject
// object and its link to it, which isolates instances as the paper's
// per-instance network namespaces do.
//
// The campaign is factored into Host/Plan/Boot/Instance primitives and
// one single-threaded event loop (Loop) that replays step records in
// virtual-clock order (LeaseSource). Instances run concurrently, in leases
// from one seed sync to the next (Instance.RunLease): Run's on goroutines
// in this process, the distributed coordinator's (internal/dist) on its
// workers — so both produce byte-identical Results for the same seed.
package parallel

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/core/configmodel"
	"cmfuzz/internal/core/schedule"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/telemetry"
	"cmfuzz/internal/telemetry/trace"
)

// Mode selects the parallel fuzzer.
type Mode int

// The fuzzers compared in Table I.
const (
	ModeCMFuzz Mode = iota
	ModePeach
	ModeSPFuzz
)

var modeNames = [...]string{ModeCMFuzz: "CMFuzz", ModePeach: "Peach", ModeSPFuzz: "SPFuzz"}

// String names the mode as the paper does.
func (m Mode) String() string {
	if m < 0 || int(m) >= len(modeNames) {
		return "unknown"
	}
	return modeNames[m]
}

// ParseMode maps a fuzzer name as typed on a command line or in a
// campaign spec (cmfuzz, peach or spfuzz, in any case) to its Mode.
func ParseMode(name string) (Mode, error) {
	for m, n := range modeNames {
		if strings.EqualFold(name, n) {
			return Mode(m), nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q", name)
}

// Options parameterizes a campaign.
type Options struct {
	// Mode selects the fuzzer (default CMFuzz).
	Mode Mode
	// Instances is the parallel instance count (default 4, as in §IV).
	Instances int
	// VirtualHours is the campaign length in simulated hours (default 24).
	VirtualHours float64
	// Seed drives all randomness.
	Seed int64
	// SaturationWindow is how long coverage must stay flat before a
	// CMFuzz instance mutates a configuration value (default 1800).
	SaturationWindow float64
	// SaturationMinGain is the per-window coverage growth below which an
	// instance counts as saturated (default 8 edges) — wide hash-family
	// instrumentation trickles a few edges long after a configuration is
	// effectively exhausted.
	SaturationMinGain int
	// DisableConfigMutation turns off adaptive configuration-value
	// mutation (ablation).
	DisableConfigMutation bool
	// LinkLoss drops each fuzzer→target datagram with this probability
	// (0 disables). Applied on each instance's link, so it impairs the
	// live-target link (and simulated links) identically.
	LinkLoss float64
	// LinkLatencyBase/LinkLatencyJitter charge virtual latency per
	// delivered message: base plus uniform jitter, in virtual seconds
	// (0/0 disables).
	LinkLatencyBase   float64
	LinkLatencyJitter float64
	// Concurrency bounds the relation-probing worker pool (0 means
	// GOMAXPROCS); the probe matrix's result is identical for any worker
	// count. It does not bound the campaign: Run gives every instance a
	// goroutine of its own, and the event loop replays them in
	// virtual-clock order.
	Concurrency int
	// Telemetry receives the campaign's structured event stream (boots,
	// group assignments, seed syncs, coverage samples, saturation fires,
	// configuration mutations, restart failures, crash dedup, probe-matrix
	// stats), and the run's entry on the recorder's live board, under
	// the recorder's label or the mode name. Nil — the default — is a
	// no-op sink: the campaign runs the exact same decisions and the
	// Result is byte-identical to an uninstrumented run.
	Telemetry *telemetry.Recorder
	// Trace, when non-nil, is the parent wall-clock span this run
	// records under: relation.quantify (with probe.plan/execute/score),
	// schedule.allocate, instance.boot, and one long-lived instance span
	// per parallel instance carrying its sync, config.mutate and
	// instance.lease children.
	// Wall-clock data lives only in the tracer — it never feeds a
	// campaign decision, so the Result stays byte-identical.
	Trace *trace.Span
}

// The paper's campaign shape (§IV): what a zero Instances or
// VirtualHours means, and what the command line shows as its default.
// MaxInstances is what the dist Assign payload's u16 instance-spec
// count can carry; a larger campaign would be truncated on the wire.
const (
	DefaultInstances = 4
	DefaultHours     = 24
	MaxInstances     = math.MaxUint16
)

// The cost model, in virtual seconds: an engine step costs stepCost plus
// byteCost per payload byte, instances sync seeds every syncInterval,
// and the series samples at least every sampleEvery (Figure 4's
// resolution). Relation probing tries maxValues values per entity.
const (
	stepCost     = 2.0
	byteCost     = 0.00002
	syncInterval = 600.0
	sampleEvery  = 300.0
	maxValues    = 4
)

// New-edge samples are coalesced to at most one per minSampleGap of
// virtual time; without the floor, the discovery-heavy early campaign
// records a point per coverage step and the series grows unbounded long
// before the first sampleEvery window elapses. The final point stays
// exact (observed at the horizon in Finish).
const minSampleGap = sampleEvery / 10

func (o *Options) setDefaults() {
	if o.Instances == 0 {
		o.Instances = DefaultInstances
	}
	if o.VirtualHours == 0 {
		o.VirtualHours = DefaultHours
	}
	if o.SaturationWindow == 0 {
		o.SaturationWindow = 1800
	}
	if o.SaturationMinGain == 0 {
		o.SaturationMinGain = 8
	}
}

// Validate reports the first value of o outside its range (zero values
// setDefaults fills pass). NewHost applies it to every campaign's
// options, spec.Campaign.Options to what a command line or a submit body
// says, the dist codec to what an Assign or a checkpoint decodes to.
func (o Options) Validate() error {
	// Each check is written so that NaN fails it.
	nonNegative := func(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }
	switch {
	case o.Mode < 0 || int(o.Mode) >= len(modeNames):
		return fmt.Errorf("unknown mode %d", o.Mode)
	case o.Instances < 0 || o.Instances > MaxInstances:
		return fmt.Errorf("instances %d outside [0, %d]", o.Instances, MaxInstances)
	case !(o.VirtualHours > 0) || math.IsInf(o.Horizon(), 1):
		return fmt.Errorf("hours %v must be positive and finite", o.VirtualHours)
	case !nonNegative(o.SaturationWindow):
		return fmt.Errorf("sat_window %v must be finite and not negative", o.SaturationWindow)
	case o.SaturationMinGain < 0:
		return fmt.Errorf("sat_min_gain %d must not be negative", o.SaturationMinGain)
	case !(o.LinkLoss >= 0 && o.LinkLoss <= 1):
		return fmt.Errorf("link_loss %v outside [0, 1]", o.LinkLoss)
	case !nonNegative(o.LinkLatencyBase) || !nonNegative(o.LinkLatencyJitter):
		return fmt.Errorf("link_latency %v and link_jitter %v must be finite and not negative", o.LinkLatencyBase, o.LinkLatencyJitter)
	}
	return nil
}

// Horizon is the campaign's virtual end time in seconds.
func (o Options) Horizon() float64 { return o.VirtualHours * 3600 }

// InstanceResult summarizes one parallel instance.
type InstanceResult struct {
	Index           int
	Config          string
	Group           []string
	FinalBranches   int
	Execs           int
	Crashes         int
	ConfigMutations int
	// RestartFailures counts failed target restarts during configuration
	// mutation (each failed boot attempt, including a failed revert or
	// defaults fallback, counts once).
	RestartFailures int
}

// Result is one campaign's outcome.
type Result struct {
	Mode          Mode
	Subject       subject.Info
	Series        *coverage.Series // union branch coverage over time
	FinalBranches int
	Instances     []InstanceResult
	Bugs          *bugs.Ledger
	TotalExecs    int
	// CMFuzz internals, for inspection and the ablations.
	ModelEntities int
	RelationEdges int
	Probes        int
	Groups        []schedule.Group
	// Counters aggregates the telemetry counter registry (syncs,
	// mutations, restarts, probe startups, ...). Nil unless
	// Options.Telemetry was set, so results without telemetry stay
	// byte-identical to pre-telemetry builds.
	Counters telemetry.Counters
}

// Run executes one parallel fuzzing campaign of sub under opts, planned
// by Host.Plan: plan, boot every instance in this process, and run the
// event loop (Loop) to the horizon. Each instance runs on a goroutine of
// its own and the loop replays them in virtual-clock order, so the
// Result does not depend on GOMAXPROCS.
//
// Cancelling ctx stops the campaign at the next event-loop iteration;
// Run then finalizes the partial result (series observed at the current
// watermark, per-instance summaries, counters) and returns it alongside
// ctx.Err(), so callers can still write well-formed artifacts for the
// portion that ran. Cancellation before the event loop starts returns
// (nil, ctx.Err()). Run returns only once every instance has stopped.
func Run(ctx context.Context, sub subject.Subject, opts Options) (*Result, error) {
	return RunPlanned(ctx, sub, opts, (*Host).Plan)
}

// RunPlanned is Run with the plan computed by plan instead of Host.Plan:
// the entry point of the ablation variants.
func RunPlanned(ctx context.Context, sub subject.Subject, opts Options, plan Planner) (*Result, error) {
	l, done, err := Start(ctx, sub, opts, plan)
	if err != nil {
		return nil, err
	}
	defer done()
	return l.Run(ctx)
}

// Start plans a campaign of sub under opts with planner and boots every
// instance in this process, each with its first lease out; Advance and
// Finish on the returned loop follow. done joins the leases still in
// flight, closes the instances and closes the loop.
func Start(ctx context.Context, sub subject.Subject, opts Options, planner Planner) (l *Loop, done func(), err error) {
	host, err := NewHost(sub, opts)
	if err != nil {
		return nil, nil, err
	}
	l = NewLoop(host)
	g := &goLeases{loop: l}
	done = func() { g.close(); l.Close() }
	plan, err := l.Plan(ctx, planner)
	if err == nil {
		g.specs, g.inflight = plan.Specs, make([]chan leaseEnd, len(plan.Specs))
		src := NewLeaseSource(l, plan.Specs, Transport{Boot: g.boot, Send: g.send, Await: g.await})
		if err = l.Boot(ctx, src); err == nil {
			for i := range plan.Specs {
				src.Done(i) // the first leases
			}
			return l, done, nil
		}
	}
	done()
	return nil, nil, err
}

// fallbackDetail summarizes the defaults-fallback outcome for telemetry.
func fallbackDetail(err error) string {
	if err != nil {
		return "defaults fallback failed: " + err.Error()
	}
	return "defaults fallback"
}

// repairConfig makes a jointly conflicting group assignment bootable by
// greedily reverting non-default bindings (in sorted key order for
// determinism) until startup succeeds. Each reverted binding is kept
// reverted only if reverting it actually helps, so the configuration
// keeps as much of its scheduled character as possible. It returns a
// map of its own and never writes cfg: the caller's spec keeps its
// configuration, and the instance's value mutations stay its own.
func repairConfig(sub subject.Subject, cfg, defaults configmodel.Assignment) configmodel.Assignment {
	boots := func(c configmodel.Assignment) bool {
		ok := false
		bugs.Capture(func() { ok = subject.Probe(sub, map[string]string(c)) > 0 })
		return ok
	}
	cfg = cfg.Clone()
	if boots(cfg) {
		return cfg
	}
	keys := make([]string, 0, len(cfg))
	for k := range cfg {
		if cfg[k] != defaults[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	// First try reverting each non-default binding alone, restoring it
	// when that does not fix startup, so pairs like (feature,
	// its-dependency) survive together when they are not the culprit.
	for _, k := range keys {
		old := cfg[k]
		if def, ok := defaults[k]; ok {
			cfg[k] = def
		} else {
			delete(cfg, k)
		}
		if boots(cfg) {
			return cfg
		}
		cfg[k] = old
	}
	// Pairwise reversion did not help; strip all non-default bindings
	// one by one cumulatively.
	for _, k := range keys {
		if def, ok := defaults[k]; ok {
			cfg[k] = def
		} else {
			delete(cfg, k)
		}
		if boots(cfg) {
			return cfg
		}
	}
	return defaults.Clone()
}

func mutableIn(model *configmodel.Model, members []string) []configmodel.Entity {
	var out []configmodel.Entity
	for _, name := range members {
		if e, ok := model.Get(name); ok && e.Flag == configmodel.Mutable && len(e.Values) > 1 {
			out = append(out, e)
		}
	}
	return out
}
