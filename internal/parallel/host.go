package parallel

import (
	"fmt"
	"sync"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/core/configmodel"
	"cmfuzz/internal/core/configspec"
	"cmfuzz/internal/core/relation"
	"cmfuzz/internal/core/schedule"
	"cmfuzz/internal/fuzz"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/telemetry"
	"cmfuzz/internal/telemetry/trace"
)

// An InstanceSpec fully determines one parallel instance: its scheduled
// configuration, cohesive group, path restriction, and seeds. Specs are
// the unit the distributed coordinator ships to worker nodes — booting
// the same spec on any process yields the same instance behavior.
type InstanceSpec struct {
	Index  int
	Config configmodel.Assignment
	Group  schedule.Group
	Paths  []fuzz.Path
	// EngineSeed drives the instance's fuzzing engine; RngSeed drives its
	// configuration-mutation choices. Both are derived from the campaign
	// seed by Plan and carried explicitly so a remote worker does not
	// need to re-derive mode-dependent seeding rules.
	EngineSeed int64
	RngSeed    int64
}

// A Host owns the per-process context instances need: the parsed Pit
// and the configuration model. Both the in-process campaign loop and a
// distributed worker node build one Host per campaign; everything in it
// is a deterministic function of the subject, so two Hosts for the same
// subject are interchangeable.
type Host struct {
	Sub        subject.Subject
	Opts       Options // defaults applied
	Pit        *fuzz.Pit
	StateModel *fuzz.StateModel
	Model      *configmodel.Model
	Defaults   configmodel.Assignment
}

// NewHost parses the subject's Pit and configuration model and returns a
// Host ready to plan or boot instances. opts gets its defaults applied,
// and a value out of range is an error.
func NewHost(sub subject.Subject, opts Options) (*Host, error) {
	opts.setDefaults()
	if err := opts.Validate(); err != nil {
		return nil, fmt.Errorf("parallel: %w", err)
	}
	info := sub.Info()
	pit, err := fuzz.ParsePit(sub.PitXML())
	if err != nil {
		return nil, fmt.Errorf("parallel: %s pit: %w", info.Protocol, err)
	}
	model := configmodel.Build(configspec.Extract(sub.ConfigInput()))
	return &Host{
		Sub:  sub,
		Opts: opts,
		Pit:  pit,
		// Document order, not map iteration: a Pit with several state
		// models must yield the same model every run or SPFuzz path
		// partitions (and every engine walk) stop reproducing.
		StateModel: pit.DefaultStateModel(),
		Model:      model,
		Defaults:   model.Defaults(),
	}, nil
}

// A Plan is the campaign's pre-fuzzing work product: one InstanceSpec
// per instance plus the model internals the Result reports. In a
// distributed campaign the coordinator computes the Plan (identification,
// relation probing, cohesive grouping) and ships the specs to workers.
type Plan struct {
	Specs []InstanceSpec
	// Groups is the cohesive allocation (CMFuzz mode; may be shorter
	// than Instances when the relation graph has few entities).
	Groups []schedule.Group
	// Relation is the relation model Groups came from (CMFuzz mode only).
	Relation *relation.Result
}

// A Planner computes a campaign's Plan on h, filing probe-time startup
// crashes in ledger (instance -1) and its events and spans in tel and
// under parent. Campaigns run Host.Plan; the ablation variants
// (internal/campaign) are planners built from its steps.
type Planner func(h *Host, ledger *bugs.Ledger, tel *telemetry.Recorder, parent *trace.Span) *Plan

// Plan is the paper's scheduling phase: for CMFuzz, relation probing
// under interaction weights, Algorithm 2's cohesive groups and each
// group's configuration; for SPFuzz, the state model's paths dealt
// across instances on the defaults; for Peach, the defaults.
func (h *Host) Plan(ledger *bugs.Ledger, tel *telemetry.Recorder, parent *trace.Span) *Plan {
	if h.Opts.Mode == ModeCMFuzz {
		rel := h.Probe(ledger, relation.WeightInteraction, tel, parent)
		return h.Specs(rel, h.Allocate(rel, parent), tel)
	}
	var all []fuzz.Path
	if h.Opts.Mode == ModeSPFuzz && h.StateModel != nil {
		all = h.StateModel.Paths(12, 64)
	}
	plan := h.Specs(nil, nil, nil)
	for i := range plan.Specs {
		for j := i; j < len(all); j += len(plan.Specs) {
			plan.Specs[i].Paths = append(plan.Specs[i].Paths, all[j])
		}
	}
	return plan
}

// Probe is the plan's probe step: relation.Quantify over the host's
// model under weighting w, on Opts.Concurrency workers. A probe's
// startup crash (a configuration-parsing defect) is scored as a failed
// startup rather than tearing the campaign down, and filed in the
// ledger once every probe is in, in planning order: the first
// configuration to hit a bug is the one its report names, whatever the
// worker count.
func (h *Host) Probe(ledger *bugs.Ledger, w relation.Weighting, tel *telemetry.Recorder, parent *trace.Span) *relation.Result {
	var mu sync.Mutex
	crashes := map[string]*bugs.Crash{}
	rel := relation.Quantify(h.Model, func(cfg configmodel.Assignment) int {
		cov := 0
		if crash := bugs.Capture(func() { cov = subject.Probe(h.Sub, map[string]string(cfg)) }); crash != nil {
			mu.Lock()
			crashes[cfg.String()] = crash
			mu.Unlock()
			return 0
		}
		return cov
	}, relation.Options{MaxValues: maxValues, Weighting: w, Workers: h.Opts.Concurrency, Telemetry: tel, Trace: parent})
	for _, cfg := range rel.Probed {
		if crash := crashes[cfg]; crash != nil {
			ledger.Record(crash, -1, 0, cfg)
		}
	}
	return rel
}

// Allocate is Algorithm 2: rel's graph dealt into at most Opts.Instances
// cohesive groups, under a schedule.allocate span.
func (h *Host) Allocate(rel *relation.Result, parent *trace.Span) []schedule.Group {
	span := parent.Child("schedule.allocate",
		trace.A("algorithm", "cohesive"), trace.A("nodes", len(rel.Graph.Nodes())))
	groups := schedule.Allocate(rel.Graph, h.Opts.Instances)
	span.Set("groups", len(groups))
	span.End()
	return groups
}

// Specs is the plan's spec step: instance i runs groups[i]'s
// configuration over rel, and an instance past the last group the
// defaults, each an EvGroup event in tel. Every instance's seeds are
// its own, derived from the campaign seed and its index.
func (h *Host) Specs(rel *relation.Result, groups []schedule.Group, tel *telemetry.Recorder) *Plan {
	plan := &Plan{Specs: make([]InstanceSpec, h.Opts.Instances), Groups: groups, Relation: rel}
	for i := range plan.Specs {
		s := &plan.Specs[i]
		*s = InstanceSpec{Index: i, EngineSeed: h.Opts.Seed*7919 + int64(i), RngSeed: h.Opts.Seed*104729 + int64(i)}
		if i < len(groups) {
			s.Group, s.Config = groups[i], schedule.GroupAssignment(h.Model, rel, groups[i])
		} else {
			s.Config = h.Defaults.Clone()
		}
		tel.Emit(telemetry.Event{Type: telemetry.EvGroup, Instance: i,
			Group: s.Group.Members, Config: s.Config.String()})
	}
	return plan
}
