package dist_test

import (
	"context"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cmfuzz/internal/dist"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/protocols"
	"cmfuzz/internal/telemetry/metrics"
)

// TestLeaseLatencyCountsEveryLease: a pool's lease-latency histogram
// takes one sample per lease reply its Observers see, for a standalone
// coordinator and for concurrent campaigns sharing one pool, and a pool
// that was never instrumented samples nothing.
func TestLeaseLatencyCountsEveryLease(t *testing.T) {
	sub := mustSubject(t, "DNS")
	opts := func(seed int64) parallel.Options {
		return parallel.Options{Mode: parallel.ModeCMFuzz, VirtualHours: 0.1, Seed: seed, Concurrency: 1}
	}
	attach := func(t *testing.T, add func(net.Conn) error) {
		t.Helper()
		cConn, wConn := net.Pipe()
		w := dist.NewWorker(dist.WorkerConfig{Name: "w", Resolve: protocols.ByName})
		served := make(chan error, 1)
		go func() { served <- w.Serve(wConn) }()
		if err := add(cConn); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { <-served })
	}
	var leases atomic.Int64
	counting := dist.Observer{Lease: func(int, int, int, int, float64, bool) { leases.Add(1) }}
	sampled := func(t *testing.T, reg *metrics.Registry) int64 {
		t.Helper()
		var sb strings.Builder
		if err := reg.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(sb.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "cmfuzz_lease_latency_seconds_count "); ok {
				n, err := strconv.ParseInt(rest, 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
		}
		t.Fatalf("no cmfuzz_lease_latency_seconds_count sample in:\n%s", sb.String())
		return 0
	}

	t.Run("standalone", func(t *testing.T) {
		leases.Store(0)
		coord := dist.NewCoordinator(sub, opts(11), dist.Config{HeartbeatInterval: -1})
		reg := metrics.NewRegistry()
		coord.Instrument(reg)
		coord.SetObserver(counting)
		attach(t, coord.AddConn)
		if _, err := coord.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got, want := sampled(t, reg), leases.Load(); want == 0 || got != want {
			t.Fatalf("histogram count = %d, Observer.Lease calls = %d", got, want)
		}
	})

	t.Run("shared pool", func(t *testing.T) {
		leases.Store(0)
		pool := dist.NewPool(dist.Config{HeartbeatInterval: -1})
		defer pool.Close()
		reg := metrics.NewRegistry()
		pool.Instrument(reg)
		attach(t, pool.AddConn)
		var wg sync.WaitGroup
		for _, seed := range []int64{11, 12} {
			coord := dist.NewCoordinatorOn(pool, sub, opts(seed))
			coord.SetObserver(counting)
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := coord.Run(context.Background()); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if got, want := sampled(t, reg), leases.Load(); want == 0 || got != want {
			t.Fatalf("histogram count = %d, Observer.Lease calls of both campaigns = %d", got, want)
		}
	})

	t.Run("uninstrumented", func(t *testing.T) {
		leases.Store(0)
		reg := metrics.NewRegistry()
		dist.NewPool(dist.Config{}).Instrument(reg)
		coord := dist.NewCoordinator(sub, opts(11), dist.Config{HeartbeatInterval: -1})
		coord.SetObserver(counting)
		attach(t, coord.AddConn)
		if _, err := coord.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if leases.Load() == 0 {
			t.Fatal("no leases observed")
		}
		if got := sampled(t, reg); got != 0 {
			t.Fatalf("another pool's histogram took %d samples", got)
		}
	})
}
