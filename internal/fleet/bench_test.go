package fleet_test

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"cmfuzz/internal/dist"
	"cmfuzz/internal/fleet"
	"cmfuzz/internal/protocols"
	"cmfuzz/internal/subject"
)

// delayConn injects a fixed one-way link latency on every outgoing
// frame (the transport writes one frame per Write call). This is what
// makes the scheduler comparison honest on a single-vCPU host: the
// campaigns' replay compute cannot parallelize there, but the lease
// RPC latency — the real cost on a distributed fleet — can only be
// hidden by overlapping campaigns, which is exactly what the
// concurrent scheduler does and the serial one cannot.
type delayConn struct {
	net.Conn
	delay time.Duration
}

func (d *delayConn) Write(p []byte) (int, error) {
	time.Sleep(d.delay)
	return d.Conn.Write(p)
}

// delayPool is newPool with the given link latency on every
// coordinator-side connection.
func delayPool(b *testing.B, n int, delay time.Duration) (*dist.Pool, func()) {
	b.Helper()
	pool := dist.NewPool(dist.Config{HeartbeatInterval: -1})
	serveErr := make(chan error, n)
	for i := 0; i < n; i++ {
		cConn, wConn := net.Pipe()
		w := dist.NewWorker(dist.WorkerConfig{Name: fmt.Sprintf("w%d", i), Resolve: func(name string) (subject.Subject, error) {
			return protocols.ByName(name)
		}})
		go func() { serveErr <- w.Serve(wConn) }()
		if err := pool.AddConn(&delayConn{Conn: cConn, delay: delay}); err != nil {
			b.Fatal(err)
		}
	}
	return pool, func() {
		pool.Close()
		for i := 0; i < n; i++ {
			if err := <-serveErr; err != nil {
				b.Error(err)
			}
		}
	}
}

// drainFleet drains the standard 4-campaign mix over a 4-worker pool
// at the given scheduler concurrency and returns the wall-clock time
// of the drain alone (pool setup and teardown excluded).
func drainFleet(b *testing.B, concurrency int, delay time.Duration) time.Duration {
	b.Helper()
	pool, wait := delayPool(b, 4, delay)
	defer wait()
	m, err := fleet.NewManager(fleet.Config{StateDir: b.TempDir(), Slice: 300, Concurrency: concurrency},
		pool, protocols.ByName)
	if err != nil {
		b.Fatal(err)
	}
	for _, spec := range []fleet.CampaignSpec{
		{ID: "dns-a", Subject: "DNS", Hours: 0.25, Seed: 11, Instances: 1},
		{ID: "mqtt-b", Subject: "MQTT", Hours: 0.25, Seed: 3, Instances: 1},
		{ID: "coap-c", Subject: "CoAP", Hours: 0.25, Seed: 7, Instances: 1},
		{ID: "dtls-d", Subject: "DTLS", Hours: 0.25, Seed: 5, Instances: 1},
	} {
		if err := m.Submit(spec); err != nil {
			b.Fatal(err)
		}
	}
	start := time.Now()
	if err := m.Drain(context.Background()); err != nil {
		b.Fatal(err)
	}
	elapsed := time.Since(start)
	for _, st := range m.Status() {
		if st.State != fleet.StateDone {
			b.Fatalf("%s = %s (%s), want done", st.ID, st.State, st.Error)
		}
	}
	return elapsed
}

// BenchmarkFleetDrain measures wall-clock drain time of a 4-campaign /
// 4-worker mix with 5ms of injected one-way link latency per frame,
// one campaign per round (Concurrency: 1) vs every runnable campaign
// per round (Concurrency: 0). The uncapped scheduler should overlap
// the four campaigns' RPC latency, by a ratio of 1.8x or more; nothing
// checks that ratio: CI's fleet scheduler bench smoke runs each arm
// once, so it only shows that both drains finish. Compare the two
// wall-ms/op figures by hand. What a drain costs end to end is
// wall_s_per_vhour on the benchmark's fleet_drain workload
// (bench/README.md).
func BenchmarkFleetDrain(b *testing.B) {
	const delay = 5 * time.Millisecond
	for _, bc := range []struct {
		name        string
		concurrency int
	}{
		{"serial", 1},
		{"concurrent", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var total time.Duration
			for i := 0; i < b.N; i++ {
				total += drainFleet(b, bc.concurrency, delay)
			}
			b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "wall-ms/op")
		})
	}
}
