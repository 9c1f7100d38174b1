package campaign

import (
	"context"
	"fmt"
	"strings"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/core/relation"
	"cmfuzz/internal/core/schedule"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/telemetry"
	"cmfuzz/internal/telemetry/trace"
)

// AblationRow compares one CMFuzz design choice against its alternatives
// on one subject.
type AblationRow struct {
	Subject  string
	Variant  string
	Branches int
	Bugs     int
}

// ablationVariants are the design choices DESIGN.md calls out, each a
// campaign that differs from the full CMFuzz one in its mode, its
// configuration-value mutation or its planner:
//
//   - allocation strategy: Algorithm 2's cohesive grouping vs random and
//     round-robin dealing;
//   - adaptive configuration-value mutation: on vs off;
//   - relation weighting: interaction gain vs the paper-literal raw
//     startup coverage;
//   - Peach schedule redundancy: independent vs pairwise-shared workers.
var ablationVariants = []struct {
	name, mode string
	noMutation bool
	plan       parallel.Planner
}{
	{name: "cmfuzz (full)", plan: paper},
	{name: "alloc=random", plan: func(h *parallel.Host, ledger *bugs.Ledger, tel *telemetry.Recorder, parent *trace.Span) *parallel.Plan {
		rel := h.Probe(ledger, relation.WeightInteraction, tel, parent)
		return h.Specs(rel, schedule.RandomAllocate(rel.Graph, h.Opts.Instances, h.Opts.Seed), tel)
	}},
	{name: "alloc=round-robin", plan: func(h *parallel.Host, ledger *bugs.Ledger, tel *telemetry.Recorder, parent *trace.Span) *parallel.Plan {
		rel := h.Probe(ledger, relation.WeightInteraction, tel, parent)
		return h.Specs(rel, schedule.RoundRobinAllocate(rel.Graph, h.Opts.Instances), tel)
	}},
	{name: "no-config-mutation", noMutation: true, plan: paper},
	{name: "weight=raw-coverage", plan: func(h *parallel.Host, ledger *bugs.Ledger, tel *telemetry.Recorder, parent *trace.Span) *parallel.Plan {
		rel := h.Probe(ledger, relation.WeightRawCoverage, tel, parent)
		return h.Specs(rel, h.Allocate(rel, parent), tel)
	}},
	{name: "peach", mode: "peach", plan: paper},
	// Instance i runs instance i/2's engine seed (walking down, one not
	// yet replaced): one strategy replicated without task division.
	{name: "peach-shared-sched", mode: "peach", plan: func(h *parallel.Host, ledger *bugs.Ledger, tel *telemetry.Recorder, parent *trace.Span) *parallel.Plan {
		plan := h.Plan(ledger, tel, parent)
		for i := len(plan.Specs) - 1; i > 0; i-- {
			plan.Specs[i].EngineSeed = plan.Specs[i/2].EngineSeed
		}
		return plan
	}},
}

// Ablations runs every variant × repetition on each subject as one
// batch and averages each variant's repetitions.
func Ablations(ctx context.Context, subs []subject.Subject, cfg Config) ([]AblationRow, error) {
	reps, err := cfg.Reps()
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, sub := range subs {
		info := sub.Info()
		var jobs []job
		for _, v := range ablationVariants {
			c := cfg.Spec
			c.Subject, c.Mode, c.NoConfigMutation = info.Protocol, v.mode, v.noMutation
			for rep := 0; rep < reps; rep++ {
				jobs = append(jobs, cfg.cell(c, v.plan, v.name, rep))
			}
		}
		span := cfg.Trace.Child("ablation", trace.A("subject", info.Protocol), trace.A("repetitions", reps))
		results, err := runBatch(ctx, sub, cfg, span, jobs)
		span.End()
		if err != nil {
			return nil, err
		}
		for vi, v := range ablationVariants {
			sumBranches, sumBugs := 0, 0
			for _, r := range results[vi*reps : (vi+1)*reps] {
				sumBranches += r.FinalBranches
				sumBugs += r.Bugs.Len()
			}
			rows = append(rows, AblationRow{
				Subject:  info.Implementation,
				Variant:  v.name,
				Branches: sumBranches / reps,
				Bugs:     sumBugs / reps,
			})
		}
	}
	return rows, nil
}

// RenderAblations formats the ablation table.
func RenderAblations(rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-20s %9s %5s\n", "Subject", "Variant", "Branches", "Bugs")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-20s %9d %5d\n", r.Subject, r.Variant, r.Branches, r.Bugs)
	}
	return b.String()
}
