package telemetry

import (
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cmfuzz/internal/telemetry/metrics"
)

// TestScrapeDoesNotCopyEventLog: a scrape reads the recorder's event
// count and each counter in place, so its cost does not grow with the
// event log. Copying the log for its length made a scrape over 100,000
// events allocate about 90 times what one over 1,000 did.
func TestScrapeDoesNotCopyEventLog(t *testing.T) {
	scrape := func(events int) uint64 {
		rec := New()
		for i := 0; i < events; i++ {
			rec.Emit(Event{T: float64(i), Type: EvSample, Edges: i})
		}
		rec.Count(CtrSamples, events)
		reg := metrics.NewRegistry()
		rec.Instrument(reg)
		var out strings.Builder
		if err := reg.WriteText(&out); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"cmfuzz_events_recorded ", "cmfuzz_coverage_samples_total "} {
			if !strings.Contains(out.String(), want+strconv.Itoa(events)+"\n") {
				t.Fatalf("scrape over %d events lacks %q:\n%s", events, want, out.String())
			}
		}
		least := uint64(math.MaxUint64)
		for i := 0; i < 5; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := reg.WriteText(io.Discard); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if n := after.TotalAlloc - before.TotalAlloc; n < least {
				least = n
			}
		}
		return least
	}
	small, large := scrape(1000), scrape(100000)
	if large > 2*small {
		t.Fatalf("a scrape allocates %d B over 100,000 events against %d B over 1,000", large, small)
	}
}

// TestProgressConcurrency is the live-board half of the -race stress
// satellite: many campaigns publishing on one recorder's board while
// scrapers read it.
func TestProgressConcurrency(t *testing.T) {
	rec := New()
	reg := metrics.NewRegistry()
	rec.Instrument(reg)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			child := rec.Child([]string{"a", "b"}[g%2])
			st := RunStatus{Mode: "CMFuzz", Subject: "dns", HorizonSeconds: 3600,
				Instances: make([]InstanceStatus, 4)}
			for i := 0; i < 300; i++ {
				st.VirtualSeconds = float64(i)
				st.Instances[g%4] = InstanceStatus{Index: g % 4, VirtualSeconds: float64(i),
					Edges: i, Execs: i * 10, CorpusSeeds: i % 20}
				child.Publish(st)
				if i%50 == 0 {
					_ = rec.Board()
					if err := reg.WriteText(io.Discard); err != nil {
						t.Error(err)
						return
					}
				}
			}
			st.Done = true
			child.Publish(st)
		}(g)
	}
	wg.Wait()
	var out strings.Builder
	if err := reg.WriteText(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "cmfuzz_runs_running 0\n") {
		t.Fatalf("runs still running after every run finished:\n%s", out.String())
	}
}

// TestExecRateGauge drives the cmfuzz_execs_per_second gauge with an
// injected clock: the first scrape reports 0 (no previous point), later
// scrapes report the exec delta over the elapsed wall time, and a
// counter reset (run restart) reports 0 instead of a negative rate.
func TestExecRateGauge(t *testing.T) {
	rec := New()
	// publish posts run r with the two instances' exec counts.
	publish := func(execs0, execs1 int) {
		rec.Publish(RunStatus{Run: "r", Mode: "CMFuzz", Subject: "mqtt", HorizonSeconds: 3600,
			Execs: execs0 + execs1, Instances: []InstanceStatus{{Index: 0, Execs: execs0}, {Index: 1, Execs: execs1}}})
	}
	publish(0, 0)

	clock := time.Unix(1000, 0)
	reg := metrics.NewRegistry()
	rec.instrument(reg, func() time.Time { return clock })

	scrape := func() float64 {
		t.Helper()
		var sb strings.Builder
		if err := reg.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(sb.String(), "\n") {
			if strings.HasPrefix(line, "cmfuzz_execs_per_second ") {
				v, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
				if err != nil {
					t.Fatalf("bad gauge value in %q: %v", line, err)
				}
				return v
			}
		}
		t.Fatal("cmfuzz_execs_per_second not exposed")
		return 0
	}

	publish(1000, 0)
	if got := scrape(); got != 0 {
		t.Fatalf("first scrape rate = %v, want 0", got)
	}
	publish(1500, 500)
	clock = clock.Add(10 * time.Second)
	// Delta = (1500+500) - 1000 = 1000 execs over 10s.
	if got := scrape(); got != 100 {
		t.Fatalf("rate = %v, want 100 execs/sec", got)
	}
	// Same instant again: zero elapsed time must not divide by zero.
	if got := scrape(); got != 0 {
		t.Fatalf("zero-dt rate = %v, want 0", got)
	}
	// Run restart: exec counters drop; the gauge must clamp to 0.
	publish(0, 0)
	clock = clock.Add(5 * time.Second)
	if got := scrape(); got != 0 {
		t.Fatalf("post-reset rate = %v, want 0", got)
	}
}
