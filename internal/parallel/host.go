package parallel

import (
	"fmt"

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

// Plan runs the mode-dependent scheduling phase: configuration model
// relation probing and cohesive grouping for CMFuzz, path partitioning
// for SPFuzz, defaults for Peach. Probe-time startup crashes are filed
// in ledger (instance -1). tel receives the per-instance group events.
func (h *Host) Plan(ledger *bugs.Ledger, tel *telemetry.Recorder, parent *trace.Span) *Plan {
	opts := h.Opts
	plan := &Plan{Specs: make([]InstanceSpec, opts.Instances)}
	configs := make([]configmodel.Assignment, opts.Instances)
	groups := make([]schedule.Group, opts.Instances)
	paths := make([][]fuzz.Path, opts.Instances)

	switch opts.Mode {
	case ModeCMFuzz:
		weighting := relation.WeightInteraction
		if opts.RawRelationWeighting {
			weighting = relation.WeightRawCoverage
		}
		// The probe closure runs concurrently across the probe pool's
		// workers; each call boots its own throwaway instance, and a
		// startup crash (a configuration-parsing defect hit while
		// probing) is filed in the concurrency-safe ledger and scored as
		// a failed startup rather than tearing the campaign down.
		rel := relation.Quantify(h.Model, func(cfg configmodel.Assignment) int {
			cov := 0
			if crash := bugs.Capture(func() { cov = subject.Probe(h.Sub, map[string]string(cfg)) }); crash != nil {
				ledger.Record(crash, -1, 0, cfg.String())
				return 0
			}
			return cov
		}, relation.Options{MaxValues: maxValues, Weighting: weighting, Workers: opts.Concurrency, Telemetry: tel, Trace: parent})
		plan.Relation = rel
		allocName := map[Allocator]string{AllocRandom: "random", AllocRoundRobin: "round-robin"}[opts.Allocator]
		if allocName == "" {
			allocName = "cohesive"
		}
		span := parent.Child("schedule.allocate",
			trace.A("algorithm", allocName), trace.A("nodes", len(rel.Graph.Nodes())))
		var alloc []schedule.Group
		switch opts.Allocator {
		case AllocRandom:
			alloc = schedule.RandomAllocate(rel.Graph, opts.Instances, opts.Seed)
		case AllocRoundRobin:
			alloc = schedule.RoundRobinAllocate(rel.Graph, opts.Instances)
		default:
			alloc = schedule.Allocate(rel.Graph, opts.Instances)
		}
		span.Set("groups", len(alloc))
		span.End()
		plan.Groups = alloc
		for i := range configs {
			if i < len(alloc) {
				groups[i] = alloc[i]
				configs[i] = schedule.GroupAssignment(h.Model, rel, alloc[i])
			} else {
				configs[i] = h.Defaults.Clone()
			}
			tel.Emit(telemetry.Event{Type: telemetry.EvGroup, Instance: i,
				Group: groups[i].Members, Config: configs[i].String()})
		}
	case ModeSPFuzz:
		var all []fuzz.Path
		if h.StateModel != nil {
			all = h.StateModel.Paths(12, 64)
		}
		for i := range configs {
			configs[i] = h.Defaults.Clone()
			for j := i; j < len(all); j += opts.Instances {
				paths[i] = append(paths[i], all[j])
			}
		}
	default: // Peach
		for i := range configs {
			configs[i] = h.Defaults.Clone()
		}
	}

	for i := range plan.Specs {
		engineSeed := opts.Seed*7919 + int64(i)
		if opts.Mode == ModePeach && opts.PeachSharedSchedules {
			engineSeed = opts.Seed*7919 + int64(i/2)
		}
		plan.Specs[i] = InstanceSpec{
			Index:      i,
			Config:     configs[i],
			Group:      groups[i],
			Paths:      paths[i],
			EngineSeed: engineSeed,
			RngSeed:    opts.Seed*104729 + int64(i),
		}
	}
	return plan
}
