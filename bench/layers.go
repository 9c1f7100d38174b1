package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cmfuzz/internal/fleet"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/telemetry"
	"cmfuzz/internal/telemetry/trace"
)

// A tracePass is the one traced repetition of a workload: the spans the
// benchmark records around each exported call and each decorated subject
// method, plus the counts it reads from the options that already expose
// them. Every method is safe on a nil receiver, which is the untraced
// pass, so the repetition code is the same on both.
type tracePass struct {
	tracer *trace.Tracer
	root   *trace.Span
	camps  []*campaignTrace
}

func newTracePass(workload string) *tracePass {
	tracer := trace.New()
	return &tracePass{tracer: tracer, root: tracer.Start("workload", trace.A("name", workload))}
}

func (tp *tracePass) span() *trace.Span {
	if tp == nil {
		return nil
	}
	return tp.root
}

// begin opens campaign c: its span, under which everything the campaign
// does is filed, and its decorated subject.
func (tp *tracePass) begin(c campaignSpec) *campaignTrace {
	if tp == nil {
		return nil
	}
	root := tp.root.Child("campaign", trace.A("id", c.id))
	ct := &campaignTrace{c: c, root: root, sub: &timedSubject{Subject: c.sub, parent: root}, tel: telemetry.New()}
	tp.camps = append(tp.camps, ct)
	return ct
}

// afterRound notes each parked campaign's checkpoint size after a fleet
// scheduling round; the last one seen is the campaign's final checkpoint.
func (tp *tracePass) afterRound(stateDir string) {
	if tp == nil {
		return
	}
	for _, ct := range tp.camps {
		if fi, err := os.Stat(filepath.Join(stateDir, ct.c.id, "checkpoint.bin")); err == nil {
			ct.checkpointBytes = fi.Size()
		}
	}
}

func (tp *tracePass) fleetResult(st fleet.CampaignStatus, final fleetFinal) {
	if tp == nil {
		return
	}
	for _, ct := range tp.camps {
		if ct.c.id == st.ID {
			ct.execs, ct.probes, ct.counters, ct.slices = final.TotalExecs, final.Probes, final.Telemetry, st.Slices
		}
	}
}

func (tp *tracePass) endAll() {
	if tp == nil {
		return
	}
	for _, ct := range tp.camps {
		ct.end()
	}
}

// campaignTrace is the traced view of one campaign. Nil on the untraced
// pass; every method then does nothing and hands back the plain value.
type campaignTrace struct {
	c    campaignSpec
	root *trace.Span
	sub  *timedSubject
	tel  *telemetry.Recorder
	wire wireStats

	mu       sync.Mutex
	leaseRTT []float64
	records  int

	execs           int
	probes          int
	counters        telemetry.Counters
	slices          int
	checkpointBytes int64
}

func (ct *campaignTrace) span() *trace.Span {
	if ct == nil {
		return nil
	}
	return ct.root
}

func (ct *campaignTrace) subject(plain subject.Subject) subject.Subject {
	if ct == nil {
		return plain
	}
	return ct.sub
}

// options adds the two observation-only sinks the layers already accept.
func (ct *campaignTrace) options(opts parallel.Options, run *trace.Span) parallel.Options {
	if ct == nil {
		return opts
	}
	opts.Trace = run
	opts.Telemetry = ct.tel
	return opts
}

// keep reads the result's counts and then drops the counter block, which
// exists only because the traced pass asked for telemetry: the artifact
// tree must digest the same as the untraced one.
func (ct *campaignTrace) keep(res *parallel.Result) {
	if ct == nil {
		return
	}
	ct.execs, ct.probes, ct.counters = res.TotalExecs, res.Probes, res.Counters
	res.Counters = nil
}

func (ct *campaignTrace) end() {
	if ct != nil {
		ct.root.End()
	}
}

// lease is the dist.Observer callback; dispatcher goroutines call it.
func (ct *campaignTrace) lease(instance, records, reqBytes, repBytes int, seconds float64, syncDue bool) {
	ct.mu.Lock()
	ct.leaseRTT = append(ct.leaseRTT, seconds)
	ct.records += records
	ct.mu.Unlock()
}

// A campaignLedger is one campaign's wall time split by layer, for the
// record and for the test that the parts never exceed the whole.
type campaignLedger struct {
	WallS          float64 `json:"wall_s"`
	RunS           float64 `json:"run_s"`
	CoreS          float64 `json:"core_s"`            // relation.quantify + schedule.allocate, probe starts included
	ProtocolsS     float64 `json:"protocols_s"`       // Message + Start outside quantify
	WriteS         float64 `json:"write_artifacts_s"` // campaign.WriteArtifacts
	WorkerBusyS    float64 `json:"worker_busy_s,omitempty"`
	Execs          int     `json:"execs"`
	Sessions       int64   `json:"sessions"`
	MessageCalls   int64   `json:"message_calls"`
	MessageSamples int     `json:"message_samples"`
}

// An interval is a span's extent on the tracer clock.
type interval struct{ lo, hi time.Duration }

// covered is how much of [lo, hi] the intervals cover, overlaps counted
// once: a span's self time is its duration minus what its children cover.
func covered(ivs []interval, lo, hi time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	edge := lo
	for _, iv := range ivs {
		a, b := max(iv.lo, edge), min(iv.hi, hi)
		if b > a {
			total += b - a
			edge = b
		}
	}
	return total
}

// percentile is the nearest-rank p-th percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[min(len(s)-1, int(p*float64(len(s))))]
}

// median is the midpoint median (mean of the two middle values).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// reduce turns the traced repetition into per-layer metrics: sums of the
// spans by name, each layer's self time where spans nest, and the counts
// read at the same boundaries.
func (tp *tracePass) reduce(w *workload) (map[string]float64, map[string]campaignLedger) {
	m := map[string]float64{}
	ledgers := map[string]campaignLedger{}

	// File each local span under its campaign by walking up to the
	// "campaign" span; worker-side lease spans (foreign) stay in the
	// exported trace but are not reduced.
	recs := tp.tracer.Records()
	byID := map[int]trace.Record{}
	for _, r := range recs {
		if r.Process == "" {
			byID[r.ID] = r
		}
	}
	campaignOf := func(r trace.Record) string {
		for r.Name != "campaign" {
			p, ok := byID[r.Parent]
			if !ok {
				return ""
			}
			r = p
		}
		for _, a := range r.Attrs {
			if a.Key == "id" {
				return fmt.Sprint(a.Value)
			}
		}
		return ""
	}
	type spans struct {
		sum      map[string]time.Duration
		quantify []interval
		starts   []interval
	}
	perCampaign := map[string]*spans{}
	var stepMs, submitUs []float64
	for _, r := range recs {
		if r.Process != "" {
			continue
		}
		dur := r.End - r.Start
		switch r.Name {
		case "fleet.step":
			stepMs = append(stepMs, dur.Seconds()*1e3)
			continue
		case "fleet.submit":
			submitUs = append(submitUs, dur.Seconds()*1e6)
			continue
		case "fleet.results":
			m["fleet.results_ms"] = dur.Seconds() * 1e3
			continue
		}
		id := campaignOf(r)
		if id == "" {
			continue
		}
		sp := perCampaign[id]
		if sp == nil {
			sp = &spans{sum: map[string]time.Duration{}}
			perCampaign[id] = sp
		}
		sp.sum[r.Name] += dur
		switch r.Name {
		case "relation.quantify":
			sp.quantify = append(sp.quantify, interval{r.Start, r.End})
		case "protocols.start":
			sp.starts = append(sp.starts, interval{r.Start, r.End})
		}
	}

	var all protoStats
	var rtts []float64
	var probeHits, probeRequests float64
	for _, ct := range tp.camps {
		sp := perCampaign[ct.c.id]
		if sp == nil {
			sp = &spans{sum: map[string]time.Duration{}}
		}
		ps := ct.sub.stats()
		all.add(ps)
		busy := ps.messageBusy() + ps.startBusy
		m["protocols.busy_s."+ct.c.proto] += busy.Seconds()

		// Probe starts run inside relation.quantify, several at once; its
		// self time is its extent minus what they cover. Starts outside it
		// (boot, restart, restore) run one at a time on the campaign.
		var quantifySelf, startsOutside time.Duration
		for _, q := range sp.quantify {
			quantifySelf += (q.hi - q.lo) - covered(sp.starts, q.lo, q.hi)
		}
		for _, s := range sp.starts {
			inside := false
			for _, q := range sp.quantify {
				inside = inside || (s.lo >= q.lo && s.hi <= q.hi)
			}
			if !inside {
				startsOutside += s.hi - s.lo
			}
		}
		core := sp.sum["relation.quantify"] + sp.sum["schedule.allocate"]
		protocols := ps.messageBusy() + startsOutside
		run := sp.sum["parallel.run"]

		m["core.quantify_s"] += quantifySelf.Seconds()
		m["core.allocate_s"] += sp.sum["schedule.allocate"].Seconds()
		m["core.probes"] += float64(ct.probes)
		m["parallel.run_s."+ct.c.proto] += run.Seconds()
		if !w.usesDist() {
			m["parallel.self_s"] += (run - core - protocols).Seconds()
		}
		m["parallel.boot_s"] += sp.sum["instance.boot"].Seconds()
		m["parallel.sync_s"] += sp.sum["sync"].Seconds()
		m["parallel.mutate_s"] += sp.sum["config.mutate"].Seconds()
		m["parallel.syncs"] += float64(ct.counters[telemetry.CtrSyncs])
		m["parallel.config_mutations"] += float64(ct.counters[telemetry.CtrMutations])
		m["parallel.restart_failures"] += float64(ct.counters[telemetry.CtrRestartFailures])
		m["campaign.write_artifacts_s"] += sp.sum["campaign.write_artifacts"].Seconds()
		m["dist.start_s"] += sp.sum["dist.start"].Seconds()
		m["dist.advance_s"] += sp.sum["dist.advance"].Seconds()
		m["dist.finish_s"] += sp.sum["dist.finish"].Seconds()
		m["dist.leases"] += float64(len(ct.leaseRTT))
		m["dist.lease_records"] += float64(ct.records)
		m["dist.wire_bytes"] += float64(ct.wire.bytes.Load())
		m["dist.frames"] += float64(ct.wire.frames.Load())
		m["dist.worker_busy_s"] += time.Duration(ct.wire.workerBusyNs.Load()).Seconds()
		m["fleet.slices"] += float64(ct.slices)
		m["fleet.checkpoint_bytes_final"] += float64(ct.checkpointBytes)
		rtts = append(rtts, ct.leaseRTT...)

		hits, startups := ct.counters[telemetry.CtrProbeCacheHits], ct.counters[telemetry.CtrProbeStartups]
		probeHits += float64(hits)
		probeRequests += float64(hits + startups)

		ledgers[ct.c.id] = campaignLedger{
			WallS:          sp.sum["campaign"].Seconds(),
			RunS:           run.Seconds(),
			CoreS:          core.Seconds(),
			ProtocolsS:     protocols.Seconds(),
			WriteS:         sp.sum["campaign.write_artifacts"].Seconds(),
			WorkerBusyS:    time.Duration(ct.wire.workerBusyNs.Load()).Seconds(),
			Execs:          ct.execs,
			Sessions:       ps.sessions,
			MessageCalls:   ps.messages,
			MessageSamples: len(ps.sampledNs),
		}
	}
	if probeRequests > 0 {
		m["core.probe_cache_hit_ratio"] = probeHits / probeRequests
	}

	m["protocols.message_calls"] = float64(all.messages)
	m["protocols.message_busy_s"] = all.messageBusy().Seconds()
	m["protocols.message_p99_us"] = all.messageP99().Seconds() * 1e6
	m["protocols.sessions"] = float64(all.sessions)
	m["protocols.start_calls"] = float64(all.startCalls)
	m["protocols.start_busy_s"] = all.startBusy.Seconds()
	m["protocols.start_failed"] = float64(all.startFailed)
	m["dist.lease_rtt_p50_ms"] = percentile(rtts, 0.5) * 1e3
	m["dist.lease_rtt_p90_ms"] = percentile(rtts, 0.9) * 1e3

	if len(stepMs) > 0 {
		// The last Step call finds nothing runnable and ends the drain.
		rounds := stepMs[:len(stepMs)-1]
		m["fleet.step_rounds"] = float64(len(rounds))
		m["fleet.step_round_ms_p50"] = percentile(rounds, 0.5)
		m["fleet.submit_us_p50"] = percentile(submitUs, 0.5)
		execs := 0
		for _, ct := range tp.camps {
			execs += ct.execs
		}
		m["fleet.sessions_executed"] = float64(all.sessions)
		if all.sessions > 0 {
			m["fleet.useful_exec_ratio"] = float64(execs) / float64(all.sessions)
		}
	}
	return m, ledgers
}

// A spanRecord is one span of the exported trace file.
type spanRecord struct {
	ID      int            `json:"id"`
	Parent  int            `json:"parent"`
	Process string         `json:"process,omitempty"`
	Name    string         `json:"name"`
	StartUs float64        `json:"start_us"`
	EndUs   float64        `json:"end_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// export lists every span kept in memory during the traced repetition.
func (tp *tracePass) export() []spanRecord {
	recs := tp.tracer.Records()
	out := make([]spanRecord, 0, len(recs))
	for _, r := range recs {
		sr := spanRecord{ID: r.ID, Parent: r.Parent, Process: r.Process, Name: r.Name,
			StartUs: r.Start.Seconds() * 1e6, EndUs: r.End.Seconds() * 1e6}
		if len(r.Attrs) > 0 {
			sr.Attrs = map[string]any{}
			for _, a := range r.Attrs {
				sr.Attrs[a.Key] = a.Value
			}
		}
		out = append(out, sr)
	}
	return out
}
