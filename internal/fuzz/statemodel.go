package fuzz

import (
	"fmt"
	"math/rand"
)

// ActionKind is the type of a state model action.
type ActionKind int

// The action kinds supported by the state model.
const (
	// ActionOutput sends a message instantiated from a data model.
	ActionOutput ActionKind = iota
	// ActionInput consumes the peer's response (a synchronization point;
	// the synchronous target delivers responses inline, so the action is
	// a modeling artifact kept for Pit fidelity).
	ActionInput
	// ActionChangeState transfers control to another state.
	ActionChangeState
)

// An Action is one step inside a state.
type Action struct {
	Kind      ActionKind
	DataModel string // for ActionOutput
	To        string // for ActionChangeState
}

// A State is a named sequence of actions. Its output actions run in
// order; if it holds one or more change-state actions, one is chosen
// (uniformly, or by an explicit path) and control transfers. A state
// without change-state actions ends the session.
type State struct {
	Name    string
	Actions []Action
}

// A StateModel captures a protocol's interaction flow.
type StateModel struct {
	Name    string
	Initial string
	States  map[string]*State
}

// Validate checks referential integrity: the initial state exists, every
// transition targets a known state, and every output names a model in
// models (skipped when models is nil).
func (sm *StateModel) Validate(models map[string]*DataModel) error {
	if _, ok := sm.States[sm.Initial]; !ok {
		return fmt.Errorf("fuzz: initial state %q undefined", sm.Initial)
	}
	for _, st := range sm.States {
		for _, a := range st.Actions {
			switch a.Kind {
			case ActionChangeState:
				if _, ok := sm.States[a.To]; !ok {
					return fmt.Errorf("fuzz: state %q transitions to undefined state %q", st.Name, a.To)
				}
			case ActionOutput:
				if models != nil {
					if _, ok := models[a.DataModel]; !ok {
						return fmt.Errorf("fuzz: state %q outputs undefined data model %q", st.Name, a.DataModel)
					}
				}
			}
		}
	}
	return nil
}

// Walk performs one randomized traversal from the initial state and
// returns the ordered data-model names to send. maxSteps bounds cyclic
// models.
func (sm *StateModel) Walk(r *rand.Rand, maxSteps int) []string {
	var out []string
	cur := sm.States[sm.Initial]
	for steps := 0; cur != nil && steps < maxSteps; steps++ {
		var transitions []string
		for _, a := range cur.Actions {
			switch a.Kind {
			case ActionOutput:
				out = append(out, a.DataModel)
			case ActionChangeState:
				transitions = append(transitions, a.To)
			}
		}
		if len(transitions) == 0 {
			break
		}
		cur = sm.States[transitions[r.Intn(len(transitions))]]
	}
	return out
}

// A compiledStateModel is an immutable, walk-optimized view of a
// StateModel: each state's actions are pre-split into its ordered output
// models, resolved to compiled data models, and its resolved transition
// targets, so a traversal performs no map lookups and no per-state slice
// building. It draws from the rng exactly as StateModel.Walk does (one
// Intn per state with transitions), so compiled and uncompiled walks are
// interchangeable seed for seed. Compiled models are read-only and safe
// for concurrent use.
type compiledStateModel struct {
	initial *compiledState
}

type compiledState struct {
	models []*compiledModel // ActionOutput data models, in action order; nil for an undefined one
	next   []*compiledState // ActionChangeState targets, in action order
}

// compile builds the walk-optimized view over models. Transitions to
// undefined states resolve to nil, ending a walk there exactly like
// Walk's failed map lookup.
func (sm *StateModel) compile(models map[string]*compiledModel) *compiledStateModel {
	states := make(map[string]*compiledState, len(sm.States))
	for name := range sm.States {
		states[name] = &compiledState{}
	}
	for name, st := range sm.States {
		cs := states[name]
		for _, a := range st.Actions {
			switch a.Kind {
			case ActionOutput:
				cs.models = append(cs.models, models[a.DataModel])
			case ActionChangeState:
				cs.next = append(cs.next, states[a.To])
			}
		}
	}
	return &compiledStateModel{initial: states[sm.Initial]}
}

// walkInto performs one randomized traversal from the initial state,
// appending the ordered data models to out and returning the extended
// slice. Passing a reused out[:0] makes steady-state walks
// allocation-free. The rng draw sequence matches StateModel.Walk.
func (c *compiledStateModel) walkInto(r *rand.Rand, maxSteps int, out []*compiledModel) []*compiledModel {
	cur := c.initial
	for steps := 0; cur != nil && steps < maxSteps; steps++ {
		out = append(out, cur.models...)
		if len(cur.next) == 0 {
			break
		}
		cur = cur.next[r.Intn(len(cur.next))]
	}
	return out
}

// A Path is one concrete traversal: the models output along the way.
// SPFuzz partitions the path space across parallel instances.
type Path struct {
	Models []string
}

// Paths enumerates distinct traversals by depth-first search over the
// branching structure, visiting each state at most twice per path (so
// cyclic models terminate) and returning at most maxPaths paths of at
// most maxDepth states each.
func (sm *StateModel) Paths(maxDepth, maxPaths int) []Path {
	var out []Path
	var dfs func(stateName string, visits map[string]int, depth int, models []string)
	dfs = func(stateName string, visits map[string]int, depth int, models []string) {
		if len(out) >= maxPaths || depth >= maxDepth {
			if depth > 0 && len(out) < maxPaths {
				out = append(out, Path{Models: clip(models)})
			}
			return
		}
		st, ok := sm.States[stateName]
		if !ok || visits[stateName] >= 2 {
			out = append(out, Path{Models: clip(models)})
			return
		}
		visits[stateName]++
		defer func() { visits[stateName]-- }()
		depth++
		var transitions []string
		for _, a := range st.Actions {
			switch a.Kind {
			case ActionOutput:
				models = append(models, a.DataModel)
			case ActionChangeState:
				transitions = append(transitions, a.To)
			}
		}
		if len(transitions) == 0 {
			out = append(out, Path{Models: clip(models)})
			return
		}
		for _, to := range transitions {
			if len(out) >= maxPaths {
				return
			}
			dfs(to, visits, depth, models)
		}
	}
	dfs(sm.Initial, map[string]int{}, 0, nil)
	return dedupPaths(out)
}

func clip(s []string) []string { return append([]string(nil), s...) }

func dedupPaths(in []Path) []Path {
	seen := make(map[string]bool, len(in))
	var out []Path
	for _, p := range in {
		key := fmt.Sprint(p.Models)
		if seen[key] || len(p.Models) == 0 {
			continue
		}
		seen[key] = true
		out = append(out, p)
	}
	return out
}
