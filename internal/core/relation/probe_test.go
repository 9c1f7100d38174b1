package relation

import (
	"reflect"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"

	"cmfuzz/internal/core/configmodel"
	"cmfuzz/internal/telemetry"
	"cmfuzz/internal/telemetry/trace"
)

func asg(pairs ...string) configmodel.Assignment {
	a := make(configmodel.Assignment, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		a[pairs[i]] = pairs[i+1]
	}
	return a
}

func TestProbeAllProbesDuplicatesOnce(t *testing.T) {
	var calls int64
	fn := func(cfg configmodel.Assignment) int {
		atomic.AddInt64(&calls, 1)
		return len(cfg) + 1
	}
	cfgs := []configmodel.Assignment{
		asg("a", "1"),
		asg("b", "2", "a", "1"),
		asg("a", "1"),           // duplicate of [0]
		asg("a", "1", "b", "2"), // same bindings as [1], different build order
	}
	tel := telemetry.New()
	out, startups := probeAll(cfgs, fn, Options{Workers: 4, Telemetry: tel}, nil)
	if want := []int{2, 3, 2, 3}; !reflect.DeepEqual(out, want) {
		t.Fatalf("coverages = %v, want %v", out, want)
	}
	if calls != 2 || startups != 2 {
		t.Fatalf("probe executed %d times, reported %d startups, want 2", calls, startups)
	}
	if got := tel.Events(); len(got) != 1 || got[0].Type != telemetry.EvProbeStats ||
		got[0].Requests != 4 || got[0].Startups != 2 || got[0].Hits != 2 {
		t.Fatalf("events = %+v, want one probe_stats of 4 requests, 2 startups, 2 hits", got)
	}
	if tel.Counter(telemetry.CtrProbeStartups) != 2 || tel.Counter(telemetry.CtrProbeCacheHits) != 2 {
		t.Fatalf("counters = %v", tel.Counters())
	}
}

func TestProbeAllOrderIndependentOfWorkers(t *testing.T) {
	var cfgs []configmodel.Assignment
	for i := 0; i < 50; i++ {
		cfgs = append(cfgs, asg("k", string(rune('a'+i%26)), "i", string(rune('a'+i/26))))
	}
	fn := func(cfg configmodel.Assignment) int { return len(cfg.String()) + int(cfg["k"][0]) }
	base, _ := probeAll(cfgs, fn, Options{Workers: 1}, nil)
	for _, workers := range []int{0, 2, 8, 32} {
		got, _ := probeAll(cfgs, fn, Options{Workers: workers}, nil)
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d: coverage order diverges", workers)
		}
	}
}

func TestProbeAllPropagatesPanicDeterministically(t *testing.T) {
	fn := func(cfg configmodel.Assignment) int {
		if cfg["boom"] != "" {
			panic("boom:" + cfg["boom"])
		}
		return 1
	}
	cfgs := []configmodel.Assignment{
		asg("ok", "1"),
		asg("boom", "2"),
		asg("boom", "1"),
	}
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				// The lowest-indexed failing assignment wins, for every
				// worker count.
				if r := recover(); r != "boom:2" {
					t.Fatalf("workers=%d: recovered %v, want boom:2", workers, r)
				}
			}()
			probeAll(cfgs, fn, Options{Workers: workers}, nil)
			t.Fatalf("workers=%d: probeAll did not panic", workers)
		}()
	}
}

func TestProbeAllWorkersDefaultsToGOMAXPROCS(t *testing.T) {
	want := runtime.GOMAXPROCS(0)
	var cfgs []configmodel.Assignment
	for i := 0; i < want+3; i++ {
		cfgs = append(cfgs, asg("k", strconv.Itoa(i)))
	}
	tr := trace.New()
	root := tr.Start("root")
	probeAll(cfgs, func(configmodel.Assignment) int { return 1 }, Options{}, root)
	root.End()
	for _, r := range tr.Records() {
		if r.Name != "probe.pool" {
			continue
		}
		for _, a := range r.Attrs {
			if a.Key == "workers" {
				if a.Value != want {
					t.Fatalf("probe.pool workers = %v, want GOMAXPROCS = %d", a.Value, want)
				}
				return
			}
		}
	}
	t.Fatal("no probe.pool span with a workers attribute")
}
