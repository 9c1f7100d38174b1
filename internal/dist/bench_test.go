package dist_test

import (
	"context"
	"testing"

	"cmfuzz/internal/dist"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/protocols"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/telemetry/trace"
)

// benchOpts is the shared workload: the same campaign the byte-identity
// tests pin, so the two benchmarks below measure transport overhead on
// provably identical work.
func benchOpts() parallel.Options {
	return parallel.Options{
		Mode:         parallel.ModeCMFuzz,
		VirtualHours: 0.5,
		Seed:         11,
		Concurrency:  1,
	}
}

// BenchmarkInProcess is the baseline: the campaign run by parallel.Run
// in one process, no wire anywhere.
func BenchmarkInProcess(b *testing.B) {
	sub := mustSubjectB(b, "DNS")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := parallel.Run(context.Background(), sub, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistLoopback is the same campaign through a coordinator and
// two net.Pipe workers on the lease protocol — one RPC round-trip per
// sync interval, with every step record riding the consolidated lease
// replies. The ns/op delta against BenchmarkInProcess is the full cost
// of distribution; lease-bytes/op is the total lease traffic (seeds
// out, step records and coverage deltas back).
func BenchmarkDistLoopback(b *testing.B) {
	sub := mustSubjectB(b, "DNS")
	b.ReportAllocs()
	var leaseBytes int64
	for i := 0; i < b.N; i++ {
		_, coord, err := dist.RunLocal(context.Background(), sub, benchOpts(), 2, dist.Config{})
		if err != nil {
			b.Fatal(err)
		}
		leaseBytes = 0
		for _, ws := range coord.Workers() {
			leaseBytes += ws.SyncBytes
		}
	}
	b.ReportMetric(float64(leaseBytes), "lease-bytes/op")
}

// BenchmarkLeaseTraceOverhead is BenchmarkDistLoopback with
// cross-process tracing on: workers record per-lease spans, ship them
// in every lease reply, and the coordinator stitches them. Compare
// ns/op against BenchmarkDistLoopback — the issue budget for the whole
// span pipeline (record, encode, decode, ingest) is under 5% of wall
// time; spans/op reports how much span traffic that bought.
func BenchmarkLeaseTraceOverhead(b *testing.B) {
	sub := mustSubjectB(b, "DNS")
	b.ReportAllocs()
	var spans int
	for i := 0; i < b.N; i++ {
		tracer := trace.New()
		root := tracer.Start("coordinator")
		opts := benchOpts()
		opts.Trace = root
		_, _, err := dist.RunLocal(context.Background(), sub, opts, 2, dist.Config{})
		if err != nil {
			b.Fatal(err)
		}
		root.End()
		spans = tracer.SpanCount()
	}
	b.ReportMetric(float64(spans), "spans/op")
}

func mustSubjectB(b *testing.B, name string) subject.Subject {
	b.Helper()
	sub, err := protocols.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return sub
}
