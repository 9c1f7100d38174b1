package campaign

import (
	"context"
	"fmt"
	"strings"

	"cmfuzz/internal/subject"
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
// campaign spec that differs from the full CMFuzz template in one
// respect:
//
//   - allocation strategy: Algorithm 2's cohesive grouping vs random and
//     round-robin dealing;
//   - adaptive configuration-value mutation: on vs off;
//   - relation weighting: interaction gain vs the paper-literal raw
//     startup coverage;
//   - Peach schedule redundancy: independent vs pairwise-shared workers.
var ablationVariants = []struct {
	name, mode, alloc                   string
	noMutation, rawWeights, peachShared bool
}{
	{name: "cmfuzz (full)"},
	{name: "alloc=random", alloc: "random"},
	{name: "alloc=round-robin", alloc: "round-robin"},
	{name: "no-config-mutation", noMutation: true},
	{name: "weight=raw-coverage", rawWeights: true},
	{name: "peach", mode: "peach"},
	// PeachSharedSchedules is an Options knob, not a campaign parameter.
	{name: "peach-shared-sched", mode: "peach", peachShared: true},
}

// Ablations runs every variant × repetition on each subject as one
// batch and averages each variant's repetitions.
func Ablations(ctx context.Context, subs []subject.Subject, cfg Config) ([]AblationRow, error) {
	reps, err := cfg.repetitions()
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, sub := range subs {
		info := sub.Info()
		var jobs []job
		for _, v := range ablationVariants {
			c := cfg.Spec
			c.Subject, c.Mode, c.Alloc = info.Protocol, v.mode, v.alloc
			c.NoConfigMutation, c.RawWeights = v.noMutation, v.rawWeights
			for rep := 0; rep < reps; rep++ {
				j := cfg.cell(c, v.name, rep)
				j.peachShared = v.peachShared
				jobs = append(jobs, j)
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
