package monitor

import (
	"strconv"
	"sync"
	"time"

	"cmfuzz/internal/dist"
	"cmfuzz/internal/telemetry/metrics"
)

// RegisterWorkers publishes a distributed campaign's worker fleet on
// reg, from a snapshot function (typically Coordinator.Workers):
//
//	cmfuzz_workers_alive                 workers currently responding
//	cmfuzz_sync_bytes_total              lease traffic, all workers
//	cmfuzz_worker_alive{...}             1 while the worker responds
//	cmfuzz_worker_execs_per_second{...}  per-worker throughput between scrapes
//	cmfuzz_worker_sync_bytes{...}        per-worker lease traffic
//	cmfuzz_worker_heartbeat_age_seconds{...}  time since the last reply
//
// Per-worker series are labeled worker=<index>,name=<reported name>;
// the index disambiguates fleets whose nodes report the same name.
// Like RegisterExecRate, the throughput gauge is a scrapeRate: the
// exec-count delta between consecutive scrapes over the wall time
// between them, 0 on the first scrape or after a reset. A nil now uses
// time.Now; tests inject a fake clock. Nil registry or snapshot is a
// no-op.
func RegisterWorkers(reg *metrics.Registry, snap func() []dist.WorkerStatus, now func() time.Time) {
	if reg == nil || snap == nil {
		return
	}
	if now == nil {
		now = time.Now
	}
	reg.GaugeFunc("cmfuzz_workers_alive",
		"Distributed-campaign workers currently responding.", func() float64 {
			alive := 0
			for _, ws := range snap() {
				if ws.Alive {
					alive++
				}
			}
			return float64(alive)
		})
	// Metric names predate the lease protocol; they keep the sync_bytes
	// spelling so existing dashboards and alerts stay valid.
	reg.CounterFunc("cmfuzz_sync_bytes_total",
		"Lease request and reply bytes shipped between coordinator and workers.", func() float64 {
			total := int64(0)
			for _, ws := range snap() {
				total += ws.SyncBytes
			}
			return float64(total)
		})

	var mu sync.Mutex
	var rates []scrapeRate // per worker index
	reg.Collect(func(set func(name, help string, value float64, labels ...metrics.Label)) {
		workers := snap()
		mu.Lock()
		t := now()
		if n := len(workers) - len(rates); n > 0 {
			rates = append(rates, make([]scrapeRate, n)...)
		}
		for i, ws := range workers {
			wl := metrics.L("worker", strconv.Itoa(i))
			nl := metrics.L("name", ws.Name)
			set("cmfuzz_worker_alive", "1 while the worker responds to the coordinator.",
				boolTo01(ws.Alive), wl, nl)
			set("cmfuzz_worker_sync_bytes", "Lease request and reply bytes shipped to and from this worker.",
				float64(ws.SyncBytes), wl, nl)
			set("cmfuzz_worker_execs_per_second",
				"Protocol executions per wall-clock second on this worker, between scrapes.",
				rates[i].next(t, float64(ws.Execs)), wl, nl)
			age := 0.0
			if ws.LastReply.UnixNano() > 0 {
				age = max(t.Sub(ws.LastReply).Seconds(), 0)
			}
			set("cmfuzz_worker_heartbeat_age_seconds",
				"Seconds since the worker's last reply (RPC or heartbeat).", age, wl, nl)
		}
		mu.Unlock()
	})
}
