// Package cmfuzz is the public facade of the CMFuzz reproduction — a
// parallel fuzzing framework for IoT protocols built on configuration
// model identification and scheduling (Xu et al., DAC 2025).
//
// The pipeline (paper Figure 1):
//
//  1. Configuration Model Identification — configuration items are
//     extracted from CLI options and configuration files (Algorithm 1)
//     and normalized into 4-tuple entities (Name, Type, Flag, Values).
//  2. Configuration Model Scheduling — pairwise relation weights are
//     quantified from startup coverage (Figure 3) and the entities are
//     divided into cohesive groups (Algorithm 2), one per parallel
//     fuzzing instance.
//  3. Parallel fuzzing — each instance runs a Peach-style
//     generation-based fuzzer under its scheduled configuration in an
//     isolated network namespace, adaptively mutating MUTABLE
//     configuration values when coverage saturates.
//
// Quick start:
//
//	sub, _ := cmfuzz.Subject("MQTT")
//	res, _ := cmfuzz.Fuzz(sub, cmfuzz.Options{Mode: cmfuzz.ModeCMFuzz, VirtualHours: 24, Seed: 1})
//	fmt.Println(res.FinalBranches, "branches,", res.Bugs.Len(), "bugs")
//
// The package re-exports the stable surface of the internal packages;
// see cmd/cmfuzz for the CLI and cmd/cmbench for the evaluation harness
// that regenerates the paper's tables and figures.
package cmfuzz

import (
	"cmfuzz/internal/bugs"
	"cmfuzz/internal/campaign"
	"cmfuzz/internal/core/configmodel"
	"cmfuzz/internal/core/configspec"
	"cmfuzz/internal/core/relation"
	"cmfuzz/internal/core/schedule"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/protocols"
	"cmfuzz/internal/spec"
	"cmfuzz/internal/subject"
	"context"
)

// Re-exported types: the campaign surface.
type (
	// Options parameterizes one parallel fuzzing campaign.
	Options = parallel.Options
	// Result is a campaign outcome.
	Result = parallel.Result
	// Mode selects the fuzzer (CMFuzz, Peach parallel, SPFuzz).
	Mode = parallel.Mode
	// EvalConfig scales a full evaluation (hours × repetitions).
	EvalConfig = campaign.Config
	// Input carries configuration sources for extraction.
	Input = configspec.Input
	// Assignment is one concrete configuration.
	Assignment = configmodel.Assignment
	// TargetSubject is a protocol implementation under test.
	TargetSubject = subject.Subject
)

// The fuzzer modes of the paper's comparison.
const (
	ModeCMFuzz = parallel.ModeCMFuzz
	ModePeach  = parallel.ModePeach
	ModeSPFuzz = parallel.ModeSPFuzz
)

// Subjects returns the six evaluation subjects in Table I order.
func Subjects() []subject.Subject { return protocols.All() }

// Subject returns one subject by protocol or implementation name
// ("MQTT" or "Mosquitto").
func Subject(name string) (subject.Subject, error) { return protocols.ByName(name) }

// Fuzz runs one parallel fuzzing campaign.
func Fuzz(sub subject.Subject, opts Options) (*Result, error) {
	return parallel.Run(context.Background(), sub, opts)
}

// Plan is Identify's output: the models configuration model
// identification and scheduling built, and the configuration each group
// is scheduled with.
type Plan struct {
	// Model is the generalized configuration model (Figure 2).
	Model *configmodel.Model
	// Relation is the relation-aware configuration model (Figure 3).
	Relation *relation.Result
	// Groups are the cohesive entity groups (Algorithm 2), one per
	// instance; fewer than the instances when the model is small.
	Groups []schedule.Group
	// Assignments are the runtime-ready configurations, parallel to
	// Groups.
	Assignments []configmodel.Assignment
}

// Identify runs configuration model identification and scheduling for a
// subject across the given number of instances (0 means the campaign
// default) and returns the plan without fuzzing. It plans with the
// planner every CMFuzz campaign runs, so a configuration whose startup
// crashes the subject is scored as a failed startup, not raised.
func Identify(sub subject.Subject, instances int) (*Plan, error) {
	// Planning never reads the horizon; Hours only passes validation.
	opts, err := spec.Campaign{Instances: instances, Hours: parallel.DefaultHours}.Options()
	if err != nil {
		return nil, err
	}
	h, err := parallel.NewHost(sub, opts)
	if err != nil {
		return nil, err
	}
	p := h.Plan(bugs.NewLedger(), nil, nil)
	plan := &Plan{Model: h.Model, Relation: p.Relation, Groups: p.Groups}
	for _, s := range p.Specs[:len(p.Groups)] {
		plan.Assignments = append(plan.Assignments, s.Config)
	}
	return plan, nil
}
