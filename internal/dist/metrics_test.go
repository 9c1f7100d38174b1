package dist

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"cmfuzz/internal/telemetry/metrics"
)

// TestWorkerGauges drives the pool's worker families with an injected
// clock and workers whose figures the test sets: first scrape reports
// zero rates, later scrapes the per-worker exec delta over elapsed wall
// time, heartbeat age against the fake now, and a dead worker drops out
// of cmfuzz_workers_alive without losing its labeled series.
func TestWorkerGauges(t *testing.T) {
	clock := time.Unix(5000, 0)
	worker := func(name string, execs, syncBytes int64, lastReply time.Time) *workerConn {
		wc := &workerConn{name: name}
		wc.execs.Store(execs)
		wc.syncBytes.Store(syncBytes)
		wc.lastReply.Store(lastReply.UnixNano())
		return wc
	}
	workers := []*workerConn{
		worker("a", 1000, 64, clock.Add(-2*time.Second)),
		worker("a", 400, 32, clock),
	}
	p := &Pool{workers: workers}
	reg := metrics.NewRegistry()
	p.instrument(reg, func() time.Time { return clock })

	scrape := func() map[string]float64 {
		t.Helper()
		var sb strings.Builder
		if err := reg.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for _, line := range strings.Split(sb.String(), "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			fields := strings.Fields(line)
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("bad sample %q: %v", line, err)
			}
			out[fields[0]] = v
		}
		return out
	}
	// Labels render sorted by name: name before worker.
	series := func(metric, name string, idx int) string {
		return metric + `{name="` + name + `",worker="` + strconv.Itoa(idx) + `"}`
	}

	got := scrape()
	if got["cmfuzz_workers_alive"] != 2 {
		t.Fatalf("workers alive = %v, want 2", got["cmfuzz_workers_alive"])
	}
	if got["cmfuzz_sync_bytes_total"] != 96 {
		t.Fatalf("sync bytes total = %v, want 96", got["cmfuzz_sync_bytes_total"])
	}
	if got[series("cmfuzz_worker_execs_per_second", "a", 0)] != 0 ||
		got[series("cmfuzz_worker_execs_per_second", "a", 1)] != 0 {
		t.Fatalf("first scrape rates not 0: %v", got)
	}
	if got[series("cmfuzz_worker_heartbeat_age_seconds", "a", 0)] != 2 {
		t.Fatalf("heartbeat age = %v, want 2", got[series("cmfuzz_worker_heartbeat_age_seconds", "a", 0)])
	}

	clock = clock.Add(10 * time.Second)
	workers[0].execs.Store(2000) // +1000 over 10s
	workers[1].execs.Store(900)  // +500 over 10s
	workers[1].syncBytes.Store(132)
	got = scrape()
	if got[series("cmfuzz_worker_execs_per_second", "a", 0)] != 100 {
		t.Fatalf("worker 0 rate = %v, want 100", got[series("cmfuzz_worker_execs_per_second", "a", 0)])
	}
	if got[series("cmfuzz_worker_execs_per_second", "a", 1)] != 50 {
		t.Fatalf("worker 1 rate = %v, want 50", got[series("cmfuzz_worker_execs_per_second", "a", 1)])
	}
	if got["cmfuzz_sync_bytes_total"] != 196 {
		t.Fatalf("sync bytes total = %v, want 196", got["cmfuzz_sync_bytes_total"])
	}

	// Worker 1 dies; a reassignment reboots instances elsewhere and its
	// exec counter goes backwards. The rate must clamp to 0, alive must
	// drop, and the per-worker series must persist with alive=0.
	clock = clock.Add(5 * time.Second)
	workers[1].dead.Store(true)
	workers[1].execs.Store(0)
	got = scrape()
	if got["cmfuzz_workers_alive"] != 1 {
		t.Fatalf("workers alive = %v, want 1", got["cmfuzz_workers_alive"])
	}
	if got[series("cmfuzz_worker_alive", "a", 1)] != 0 {
		t.Fatalf("dead worker alive gauge = %v, want 0", got[series("cmfuzz_worker_alive", "a", 1)])
	}
	if got[series("cmfuzz_worker_execs_per_second", "a", 1)] != 0 {
		t.Fatalf("post-reset rate = %v, want 0", got[series("cmfuzz_worker_execs_per_second", "a", 1)])
	}

	// A nil registry must be a no-op, not a panic.
	p.Instrument(nil)
}
