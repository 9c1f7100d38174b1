package fuzz

import (
	"strings"
	"testing"
)

// linearSM: s0 --connect--> s1 --publish--> end, with an optional branch
// s1 --subscribe--> s2 --publish--> end.
func linearSM() *StateModel {
	return &StateModel{
		Name:    "sm",
		Initial: "s0",
		States: map[string]*State{
			"s0": {Name: "s0", Actions: []Action{
				{Kind: ActionOutput, DataModel: "Connect"},
				{Kind: ActionChangeState, To: "s1"},
			}},
			"s1": {Name: "s1", Actions: []Action{
				{Kind: ActionOutput, DataModel: "Publish"},
				{Kind: ActionChangeState, To: "s2"},
				{Kind: ActionChangeState, To: "end"},
			}},
			"s2": {Name: "s2", Actions: []Action{
				{Kind: ActionOutput, DataModel: "Subscribe"},
			}},
			"end": {Name: "end", Actions: []Action{
				{Kind: ActionOutput, DataModel: "Disconnect"},
			}},
		},
	}
}

func TestValidate(t *testing.T) {
	sm := linearSM()
	models := map[string]*DataModel{
		"Connect": {}, "Publish": {}, "Subscribe": {}, "Disconnect": {},
	}
	if err := sm.Validate(models); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}

	bad := linearSM()
	bad.Initial = "ghost"
	if err := bad.Validate(nil); err == nil {
		t.Fatal("missing initial state accepted")
	}

	bad2 := linearSM()
	bad2.States["s0"].Actions[1].To = "ghost"
	if err := bad2.Validate(nil); err == nil {
		t.Fatal("dangling transition accepted")
	}

	bad3 := linearSM()
	if err := bad3.Validate(map[string]*DataModel{}); err == nil {
		t.Fatal("missing data model accepted")
	}
}

func TestWalkStartsAtInitial(t *testing.T) {
	sm := linearSM()
	r := testRand()
	for i := 0; i < 20; i++ {
		models := sm.Walk(r, 10)
		if len(models) == 0 || models[0] != "Connect" {
			t.Fatalf("walk = %v, must start with Connect", models)
		}
		last := models[len(models)-1]
		if last != "Subscribe" && last != "Disconnect" {
			t.Fatalf("walk = %v, must end at a terminal state", models)
		}
	}
}

func TestWalkBoundsCycles(t *testing.T) {
	sm := &StateModel{
		Name:    "loop",
		Initial: "a",
		States: map[string]*State{
			"a": {Name: "a", Actions: []Action{
				{Kind: ActionOutput, DataModel: "M"},
				{Kind: ActionChangeState, To: "a"},
			}},
		},
	}
	models := sm.Walk(testRand(), 5)
	if len(models) != 5 {
		t.Fatalf("cyclic walk produced %d outputs, want 5 (bounded)", len(models))
	}
}

func TestPathsEnumeratesBranches(t *testing.T) {
	sm := linearSM()
	paths := sm.Paths(10, 100)
	if len(paths) != 2 {
		t.Fatalf("paths = %d, want 2 distinct", len(paths))
	}
	joined := make([]string, len(paths))
	for i, p := range paths {
		joined[i] = strings.Join(p.Models, ">")
	}
	want := map[string]bool{
		"Connect>Publish>Subscribe":  false,
		"Connect>Publish>Disconnect": false,
	}
	for _, j := range joined {
		if _, ok := want[j]; !ok {
			t.Fatalf("unexpected path %q", j)
		}
		want[j] = true
	}
	for p, seen := range want {
		if !seen {
			t.Errorf("path %q not enumerated", p)
		}
	}
}

func TestPathsRespectsLimits(t *testing.T) {
	sm := &StateModel{
		Name:    "wide",
		Initial: "root",
		States: map[string]*State{
			"root": {Name: "root", Actions: []Action{
				{Kind: ActionOutput, DataModel: "A"},
				{Kind: ActionChangeState, To: "b1"},
				{Kind: ActionChangeState, To: "b2"},
				{Kind: ActionChangeState, To: "b3"},
			}},
			"b1": {Name: "b1", Actions: []Action{{Kind: ActionOutput, DataModel: "B1"}}},
			"b2": {Name: "b2", Actions: []Action{{Kind: ActionOutput, DataModel: "B2"}}},
			"b3": {Name: "b3", Actions: []Action{{Kind: ActionOutput, DataModel: "B3"}}},
		},
	}
	if got := len(sm.Paths(10, 2)); got > 2 {
		t.Fatalf("maxPaths ignored: %d paths", got)
	}
	if got := len(sm.Paths(10, 100)); got != 3 {
		t.Fatalf("full enumeration = %d, want 3", got)
	}
}

func TestPathsTerminatesOnCycles(t *testing.T) {
	sm := &StateModel{
		Name:    "cycle",
		Initial: "a",
		States: map[string]*State{
			"a": {Name: "a", Actions: []Action{
				{Kind: ActionOutput, DataModel: "MA"},
				{Kind: ActionChangeState, To: "b"},
			}},
			"b": {Name: "b", Actions: []Action{
				{Kind: ActionOutput, DataModel: "MB"},
				{Kind: ActionChangeState, To: "a"},
			}},
		},
	}
	paths := sm.Paths(20, 50)
	if len(paths) == 0 {
		t.Fatal("cyclic model produced no paths")
	}
	// Each state outputs one model, so a path's models count its states.
	for _, p := range paths {
		if len(p.Models) > 20 {
			t.Fatalf("path exceeds depth bound: %v", p.Models)
		}
	}
}
