package cmfuzz

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (one benchmark per artifact) at the paper's 24-virtual-hour
// scale with one repetition per iteration. Each benchmark prints its
// reproduced rows/series once, so `go test -bench=.` output doubles as
// the experiment log. `cmd/cmbench -all -reps 5` runs the full
// 5-repetition setting.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"cmfuzz/internal/campaign"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/protocols"
	"cmfuzz/internal/spec"
	"cmfuzz/internal/subject"
)

// benchCfg is the paper's per-campaign scale with a single repetition.
var benchCfg = campaign.Config{Spec: spec.Campaign{Hours: 24, Instances: 4}, Repetitions: 1}

var printOnce sync.Map

func printFirst(key, text string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Print(text)
	}
}

func benchSubject(b *testing.B, name string) subject.Subject {
	b.Helper()
	sub, err := protocols.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return sub
}

// benchmarkTable1 reproduces one Table I row.
func benchmarkTable1(b *testing.B, name string) {
	sub := benchSubject(b, name)
	for i := 0; i < b.N; i++ {
		cfg := benchCfg
		cfg.Spec.Seed = int64(i)
		res, err := campaign.RunSubject(context.Background(), sub, cfg)
		if err != nil {
			b.Fatal(err)
		}
		rows := campaign.Table1([]*campaign.SubjectResult{res})
		r := rows[0]
		if r.CMFuzz <= r.Peach {
			b.Fatalf("Table I shape violated: CMFuzz %d <= Peach %d", r.CMFuzz, r.Peach)
		}
		printFirst("table1/"+name, campaign.RenderTable1(rows))
		b.ReportMetric(float64(r.CMFuzz), "cmfuzz-branches")
		b.ReportMetric(r.ImprovPeach, "improv-vs-peach-%")
		b.ReportMetric(r.SpeedupPeach, "speedup-vs-peach-x")
	}
}

func BenchmarkTable1_Mosquitto(b *testing.B)  { benchmarkTable1(b, "MQTT") }
func BenchmarkTable1_Libcoap(b *testing.B)    { benchmarkTable1(b, "CoAP") }
func BenchmarkTable1_CycloneDDS(b *testing.B) { benchmarkTable1(b, "DDS") }
func BenchmarkTable1_OpenSSL(b *testing.B)    { benchmarkTable1(b, "DTLS") }
func BenchmarkTable1_Qpid(b *testing.B)       { benchmarkTable1(b, "AMQP") }
func BenchmarkTable1_Dnsmasq(b *testing.B)    { benchmarkTable1(b, "DNS") }

// benchmarkFigure4 reproduces one Figure 4 panel.
func benchmarkFigure4(b *testing.B, name string) {
	sub := benchSubject(b, name)
	for i := 0; i < b.N; i++ {
		cfg := benchCfg
		cfg.Spec.Seed = int64(i)
		res, err := campaign.RunSubject(context.Background(), sub, cfg)
		if err != nil {
			b.Fatal(err)
		}
		f := campaign.Figure4(res, 64)
		final := map[string]int{}
		for fuzzer, pts := range f.Points {
			final[fuzzer] = pts[len(pts)-1].Count
		}
		if final["CMFuzz"] <= final["Peach"] {
			b.Fatalf("Figure 4 shape violated: %v", final)
		}
		printFirst("fig4/"+name, campaign.RenderFigure4(f, 64, 14))
		b.ReportMetric(float64(final["CMFuzz"]), "cmfuzz-final")
		b.ReportMetric(float64(final["Peach"]), "peach-final")
	}
}

func BenchmarkFigure4_Mosquitto(b *testing.B)  { benchmarkFigure4(b, "MQTT") }
func BenchmarkFigure4_Libcoap(b *testing.B)    { benchmarkFigure4(b, "CoAP") }
func BenchmarkFigure4_CycloneDDS(b *testing.B) { benchmarkFigure4(b, "DDS") }
func BenchmarkFigure4_OpenSSL(b *testing.B)    { benchmarkFigure4(b, "DTLS") }
func BenchmarkFigure4_Qpid(b *testing.B)       { benchmarkFigure4(b, "AMQP") }
func BenchmarkFigure4_Dnsmasq(b *testing.B)    { benchmarkFigure4(b, "DNS") }

// BenchmarkTable2_Bugs reproduces Table II across all six subjects: the
// union of previously-unknown bugs found by CMFuzz (and, as a check, by
// the baselines) over the repetitions.
func BenchmarkTable2_Bugs(b *testing.B) {
	subs := protocols.All()
	for i := 0; i < b.N; i++ {
		cfg := benchCfg
		cfg.Repetitions = 2 // bug discovery benefits from seed variety
		cfg.Spec.Seed = int64(i)
		res, err := campaign.Evaluate(context.Background(), subs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		rows := campaign.Table2(res)
		found := 0
		for _, r := range rows {
			for _, f := range r.FoundBy {
				if f == "CMFuzz" {
					found++
					break
				}
			}
		}
		printFirst("table2", campaign.RenderTable2(rows))
		b.ReportMetric(float64(found), "bugs-found")
		if found < 10 {
			b.Fatalf("Table II shape violated: only %d/14 bugs rediscovered", found)
		}
	}
}

// BenchmarkAblation_Allocation compares Algorithm 2's cohesive grouping
// against random and round-robin allocation (plus the other design
// toggles) on the two most configuration-sensitive subjects.
func BenchmarkAblation_Allocation(b *testing.B) {
	var subs []subject.Subject
	for _, name := range []string{"MQTT", "DNS"} {
		subs = append(subs, benchSubject(b, name))
	}
	for i := 0; i < b.N; i++ {
		cfg := benchCfg
		cfg.Spec.Seed = int64(i)
		rows, err := campaign.Ablations(context.Background(), subs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("ablation", campaign.RenderAblations(rows))
		byKey := map[string]int{}
		for _, r := range rows {
			byKey[r.Subject+"/"+r.Variant] = r.Branches
		}
		b.ReportMetric(float64(byKey["Dnsmasq/cmfuzz (full)"]), "dns-cohesive")
		b.ReportMetric(float64(byKey["Dnsmasq/alloc=random"]), "dns-random")
	}
}

// BenchmarkCampaign_CMFuzz24h measures one full CMFuzz campaign
// (engine + instrumentation throughput) on the MQTT subject.
func BenchmarkCampaign_CMFuzz24h(b *testing.B) {
	sub := benchSubject(b, "MQTT")
	for i := 0; i < b.N; i++ {
		res, err := parallel.Run(context.Background(), sub, parallel.Options{
			Mode:         parallel.ModeCMFuzz,
			VirtualHours: 24,
			Seed:         int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.TotalExecs), "execs")
	}
}
