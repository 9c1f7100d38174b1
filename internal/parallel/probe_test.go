package parallel

import (
	"reflect"
	"testing"
	"time"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/core/configmodel"
	"cmfuzz/internal/core/relation"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/subject"
)

// probeCrashSubject crashes on startup whenever a=1, and slowly when
// every other entity holds its default: the crashing configuration a
// one-worker pool probes first is the last to crash on a larger one.
type probeCrashSubject struct{ stubSubject }

func (s *probeCrashSubject) NewInstance() subject.Instance { return probeCrashInstance{} }

type probeCrashInstance struct{}

func (probeCrashInstance) Start(cfg map[string]string, tr *coverage.Trace) error {
	if cfg["a"] == "1" {
		if cfg["b"] == "0" && cfg["c"] == "0" && cfg["d"] == "0" {
			time.Sleep(2 * time.Millisecond)
		}
		panic(&bugs.Crash{Protocol: "STUB", Kind: bugs.SEGV, Function: "parse_a"})
	}
	tr.Hit(1)
	return nil
}
func (probeCrashInstance) SetTrace(*coverage.Trace) {}
func (probeCrashInstance) NewSession()              {}
func (probeCrashInstance) Message([]byte) [][]byte  { return nil }
func (probeCrashInstance) Close()                   {}

// TestProbeCrashesFiledInPlanningOrder: the relation probes run on
// Opts.Concurrency goroutines, but the startup crashes they hit are
// filed as a one-worker pool files them, so the crash report — the
// configuration it names, its count — is the same at any worker count.
func TestProbeCrashesFiledInPlanningOrder(t *testing.T) {
	var entities []configmodel.Entity
	for _, name := range []string{"a", "b", "c", "d"} {
		entities = append(entities, configmodel.Entity{Name: name, Type: configmodel.TypeString,
			Flag: configmodel.Mutable, Default: "0", Values: []string{"1", "2", "3"}})
	}
	model := configmodel.NewModel(entities)
	h := &Host{Sub: &probeCrashSubject{}, Model: model, Defaults: model.Defaults()}
	probe := func(workers int) []bugs.Report {
		h.Opts.Concurrency = workers
		ledger := bugs.NewLedger()
		h.Probe(ledger, relation.WeightInteraction, nil, nil)
		return ledger.Unique()
	}
	want := probe(1)
	if len(want) != 1 || want[0].Config != (configmodel.Assignment{"a": "1", "b": "0", "c": "0", "d": "0"}).String() {
		t.Fatalf("one worker filed %+v, want one report naming a=1 under the defaults", want)
	}
	differ := 0
	for _, workers := range []int{1, 2, 8} {
		for run := 0; run < 10; run++ {
			if got := probe(workers); !reflect.DeepEqual(got, want) {
				differ++
				t.Logf("%d workers, run %d: filed %+v", workers, run, got)
			}
		}
	}
	if differ != 0 {
		t.Fatalf("%d of 30 probe phases filed another report than one worker's %+v", differ, want)
	}
}
