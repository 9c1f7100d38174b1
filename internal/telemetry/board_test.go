package telemetry

import (
	"fmt"
	"sync"
	"testing"
)

// TestChildCountsBeforeAndAfterMerge: a parent's counter reads include a
// child's counts while the child runs, and count them exactly once
// after Merge folds it in, however often the child is merged.
func TestChildCountsBeforeAndAfterMerge(t *testing.T) {
	parent := New()
	parent.Count(CtrSyncs, 1)
	a, b := parent.Child("a"), parent.Child("b")
	a.Count(CtrSyncs, 2)
	b.Count(CtrSyncs, 3)
	b.Count(CtrCrashes, 1)
	if got := parent.Counter(CtrSyncs); got != 6 {
		t.Fatalf("before Merge: syncs = %d, want 6", got)
	}
	if got := parent.Counters(); got[CtrSyncs] != 6 || got[CtrCrashes] != 1 {
		t.Fatalf("before Merge: counters = %v", got)
	}
	if len(parent.Events()) != 0 {
		t.Fatal("an unmerged child's events reached the parent's log")
	}

	parent.Merge(a)
	parent.Merge(b)
	if got := parent.Counter(CtrSyncs); got != 6 {
		t.Fatalf("after Merge: syncs = %d, want 6", got)
	}
	if got := parent.Counters().String(); got != "crashes=1 syncs=6" {
		t.Fatalf("after Merge: counters = %q", got)
	}
	// A child's own registry is untouched by the merge.
	if got := b.Counters().String(); got != "crashes=1 syncs=3" {
		t.Fatalf("child counters = %q", got)
	}
}

// TestBoardPublishReplacesInRegistrationOrder: a run's entry is replaced
// in place, new runs register after the others, a child publishes on
// its parent's board under its label, and an unlabelled recorder files
// the run under its mode. Board hands out copies.
func TestBoardPublishReplacesInRegistrationOrder(t *testing.T) {
	parent := New()
	parent.Publish(RunStatus{Mode: "Peach", Instances: make([]InstanceStatus, 1)})
	child := parent.Child("CMFuzz/rep0")
	child.Publish(RunStatus{Mode: "CMFuzz", Execs: 10, Instances: []InstanceStatus{{Execs: 10}}})
	parent.Publish(RunStatus{Mode: "Peach", Execs: 5, Done: true, Instances: []InstanceStatus{{Execs: 5}}})
	child.Publish(RunStatus{Mode: "CMFuzz", Execs: 20, Instances: []InstanceStatus{{Execs: 20}}})

	board := parent.Board()
	if len(board) != 2 || board[0].Run != "Peach" || board[1].Run != "CMFuzz/rep0" {
		t.Fatalf("board = %+v", board)
	}
	if !board[0].Done || board[0].Execs != 5 || board[1].Execs != 20 || board[1].Instances[0].Execs != 20 {
		t.Fatalf("board entries not replaced: %+v", board)
	}
	board[1].Instances[0].Execs = -1
	if child.Board()[1].Instances[0].Execs != 20 {
		t.Fatal("Board shares instance storage with the recorder")
	}
	if New().Board() == nil {
		t.Fatal("an empty board reads nil, not empty")
	}
}

// TestBoardConcurrency is the live board's -race stress: children of
// one recorder publish and count while readers take the board and the
// counters, and the parent merges the children as they finish.
func TestBoardConcurrency(t *testing.T) {
	parent := New()
	var wg sync.WaitGroup
	children := make([]*Recorder, 8)
	for g := range children {
		children[g] = parent.Child(fmt.Sprintf("run%d", g%4))
	}
	for _, c := range children {
		wg.Add(1)
		go func(c *Recorder) {
			defer wg.Done()
			st := RunStatus{Mode: "CMFuzz", Instances: make([]InstanceStatus, 4)}
			for i := 0; i < 300; i++ {
				st.Execs, st.Instances[i%4].Execs = i, i
				c.Publish(st)
				c.Count(CtrSamples, 1)
				if i%50 == 0 {
					_ = parent.Board()
					_ = parent.Counters()
				}
			}
			st.Done = true
			c.Publish(st)
			parent.Merge(c)
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = parent.Counter(CtrSamples)
		}
	}()
	wg.Wait()
	if got := parent.Counter(CtrSamples); got != 8*300 {
		t.Fatalf("samples = %d, want %d", got, 8*300)
	}
	for _, st := range parent.Board() {
		if !st.Done {
			t.Fatalf("run %q not done", st.Run)
		}
	}
}
