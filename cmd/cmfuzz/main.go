// Command cmfuzz is the CMFuzz CLI. It exposes each stage of the pipeline
// and the full parallel fuzzing campaign:
//
//	cmfuzz subjects                         list the evaluation subjects
//	cmfuzz extract  -subject MQTT           run Algorithm 1 (items)
//	cmfuzz model    -subject MQTT           build the generalized model
//	cmfuzz relate   -subject MQTT           quantify relation weights
//	cmfuzz schedule -subject MQTT -n 4      allocate cohesive groups
//	cmfuzz fuzz     -subject MQTT -mode cmfuzz -hours 24 -seed 1
//	cmfuzz campaign -subject MQTT -reps 1 -events ev.jsonl
//
// All campaigns run on the virtual clock, so "-hours 24" completes in
// seconds of wall time. The fuzz and campaign subcommands take
// -telemetry (print the event timeline and counters), -events PATH
// (export the structured event stream as JSONL), -trace PATH (export a
// wall-clock Chrome trace for chrome://tracing / Perfetto) and
// -monitor ADDR (serve /status, /metrics, /healthz and /debug/pprof
// over HTTP while the campaign runs).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/campaign"
	"cmfuzz/internal/core"
	"cmfuzz/internal/core/configmodel"
	"cmfuzz/internal/core/configspec"
	"cmfuzz/internal/monitor"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/protocols"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/telemetry"
	"cmfuzz/internal/telemetry/metrics"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "subjects":
		err = cmdSubjects()
	case "extract":
		err = cmdExtract(args)
	case "model":
		err = cmdModel(args)
	case "relate":
		err = cmdRelate(args)
	case "schedule":
		err = cmdSchedule(args)
	case "fuzz":
		err = cmdFuzz(args)
	case "campaign":
		err = cmdCampaign(args)
	case "coordinator":
		err = cmdCoordinator(args)
	case "worker":
		err = cmdWorker(args)
	case "serve":
		err = cmdServe(args)
	case "bugs":
		err = cmdBugs()
	case "promlint":
		err = cmdPromlint(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "cmfuzz: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cmfuzz:", err)
		os.Exit(1)
	}
}

func cmdBugs() error {
	fmt.Printf("%-4s %-9s %-24s %s\n", "No.", "Protocol", "Vulnerability Type", "Affected Function")
	for _, k := range bugs.Table2 {
		fmt.Printf("%-4d %-9s %-24s %s\n", k.No, k.Protocol, k.Kind, k.Function)
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: cmfuzz <command> [flags]

commands:
  subjects   list the six evaluation subjects
  extract    extract configuration items (Algorithm 1)
  model      build the generalized configuration model (Figure 2)
  relate     quantify pairwise relation weights (Figure 3)
  schedule   allocate cohesive configuration groups (Algorithm 2)
  fuzz       run a parallel fuzzing campaign
  campaign   run the three-fuzzer comparison on one subject
  coordinator  run a distributed campaign's coordinator (workers attach over TCP)
  worker       run a worker node serving campaign instances for a coordinator
  serve        run the fleet service: many campaigns over one worker pool,
               submitted and observed via HTTP, resumable across restarts
  bugs       list the Table II vulnerability registry
  promlint   validate Prometheus text exposition read from a file or stdin

common flags:  -subject NAME (protocol or implementation name)
telemetry:     -telemetry (print timeline + counters), -events PATH (JSONL export)
observability: -trace PATH (Chrome trace JSON for chrome://tracing / Perfetto),
               -monitor ADDR (HTTP /status, /metrics, /healthz, /debug/pprof)`)
}

func subjectFlag(fs *flag.FlagSet) *string {
	return fs.String("subject", "MQTT", "subject protocol or implementation name")
}

func getSubject(name string) (subject.Subject, error) {
	return protocols.ByName(name)
}

func cmdSubjects() error {
	fmt.Printf("%-10s %-12s %-9s %s\n", "Protocol", "Implement.", "Transport", "Port")
	for _, s := range protocols.All() {
		info := s.Info()
		fmt.Printf("%-10s %-12s %-9s %d\n", info.Protocol, info.Implementation, info.Transport, info.Port)
	}
	return nil
}

func cmdExtract(args []string) error {
	fs := flag.NewFlagSet("extract", flag.ExitOnError)
	name := subjectFlag(fs)
	fs.Parse(args)
	sub, err := getSubject(*name)
	if err != nil {
		return err
	}
	items := configspec.Extract(sub.ConfigInput())
	fmt.Printf("%d configuration items extracted from %s sources:\n", len(items), sub.Info().Implementation)
	for _, it := range items {
		vals := ""
		if len(it.Values) > 0 {
			vals = " candidates=" + strings.Join(it.Values, ",")
		}
		fmt.Printf("  %-55s source=%-12s default=%q%s\n", it.Name, it.Source, it.Default, vals)
	}
	return nil
}

func cmdModel(args []string) error {
	fs := flag.NewFlagSet("model", flag.ExitOnError)
	name := subjectFlag(fs)
	fs.Parse(args)
	sub, err := getSubject(*name)
	if err != nil {
		return err
	}
	model := configmodel.Build(configspec.Extract(sub.ConfigInput()))
	fmt.Printf("generalized configuration model for %s (%d entities):\n", sub.Info().Implementation, model.Len())
	fmt.Printf("  %-55s %-8s %-10s %s\n", "Name", "Type", "Flag", "Values")
	for _, e := range model.Entities() {
		fmt.Printf("  %-55s %-8s %-10s %s\n", e.Name, e.Type, e.Flag, strings.Join(e.Values, ","))
	}
	return nil
}

func pipelineFor(sub subject.Subject, instances int) *core.Pipeline {
	return &core.Pipeline{
		Probe: func(cfg configmodel.Assignment) int {
			return subject.Probe(sub, map[string]string(cfg))
		},
		Instances: instances,
		MaxValues: 4,
	}
}

func cmdRelate(args []string) error {
	fs := flag.NewFlagSet("relate", flag.ExitOnError)
	name := subjectFlag(fs)
	fs.Parse(args)
	sub, err := getSubject(*name)
	if err != nil {
		return err
	}
	plan := pipelineFor(sub, 4).Run(sub.ConfigInput())
	rel := plan.Relation
	fmt.Printf("relation-aware configuration model for %s:\n", sub.Info().Implementation)
	fmt.Printf("  baseline startup coverage: %d branches (%d startups for %d probe requests, %d values capped)\n",
		rel.Baseline, rel.Probes, rel.ProbeRequests, rel.DroppedValues)
	fmt.Printf("  %d relation edges:\n", rel.Graph.EdgeCount())
	for _, e := range rel.Graph.SortedEdges() {
		best := rel.Best[relationKey(e.A, e.B)]
		fmt.Printf("    %.2f  %s=%s <-> %s=%s (coverage %d)\n",
			e.Weight, best.A, best.ValueA, best.B, best.ValueB, best.Cover)
	}
	return nil
}

// relationKey mirrors relation.PairKey without importing it here twice.
func relationKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "\x00" + b
}

func cmdSchedule(args []string) error {
	fs := flag.NewFlagSet("schedule", flag.ExitOnError)
	name := subjectFlag(fs)
	n := fs.Int("n", 4, "number of parallel instances")
	fs.Parse(args)
	sub, err := getSubject(*name)
	if err != nil {
		return err
	}
	plan := pipelineFor(sub, *n).Run(sub.ConfigInput())
	fmt.Printf("cohesive groups for %s across %d instances:\n", sub.Info().Implementation, *n)
	for i, g := range plan.Groups {
		fmt.Printf("  instance %d: %s\n", i, strings.Join(g.Members, ", "))
		fmt.Printf("    config: %s\n", plan.Assignments[i].String())
	}
	return nil
}

func cmdFuzz(args []string) error {
	fs := flag.NewFlagSet("fuzz", flag.ExitOnError)
	name := subjectFlag(fs)
	modeName := fs.String("mode", "cmfuzz", "fuzzer: cmfuzz, peach or spfuzz")
	hours := fs.Float64("hours", 24, "virtual campaign hours")
	seed := fs.Int64("seed", 1, "campaign seed")
	instances := fs.Int("n", 4, "parallel instances")
	alloc := fs.String("alloc", "cohesive", "CMFuzz allocator: cohesive, random or round-robin (ablation)")
	noMut := fs.Bool("no-config-mutation", false, "disable adaptive configuration mutation (ablation)")
	rawWeights := fs.Bool("raw-weights", false, "use raw-coverage relation weights (ablation)")
	concurrency := fs.Int("j", 0, "relation-probe worker pool size (0 = GOMAXPROCS); results are identical for any value")
	outDir := fs.String("out", "", "write artifacts (result.json, coverage.csv, crashes/) to this directory")
	telemetryOn := fs.Bool("telemetry", false, "collect structured events; print the timeline and counters")
	eventsPath := fs.String("events", "", "write the structured event stream as JSONL to this file (implies -telemetry)")
	tracePath := fs.String("trace", "", "write a wall-clock Chrome trace (chrome://tracing / Perfetto) to this file")
	monitorAddr := fs.String("monitor", "", "serve /status, /metrics, /healthz and /debug/pprof on this host:port (implies -telemetry)")
	satWindow := fs.Float64("sat-window", 0, "saturation window in virtual seconds (0 = default 1800)")
	satMinGain := fs.Int("sat-min-gain", 0, "per-window coverage gain below which an instance saturates (0 = default 8)")
	linkLoss := fs.Float64("link-loss", 0, "drop each fuzzer-to-target datagram with this probability")
	linkLatency := fs.Float64("link-latency", 0, "base virtual link latency per delivered message, seconds")
	linkJitter := fs.Float64("link-jitter", 0, "uniform virtual latency jitter on top of -link-latency, seconds")
	lf := addLiveFlags(fs)
	fs.Parse(args)
	var sub subject.Subject
	if lf.enabled() {
		ls, lerr := lf.subject()
		if lerr != nil {
			return lerr
		}
		sub = ls
		// A live campaign's safety-rail counters must land in result.json,
		// so the recorder is always on.
		*telemetryOn = true
	} else {
		var serr error
		sub, serr = getSubject(*name)
		if serr != nil {
			return serr
		}
	}
	sess, err := monitor.StartSession(monitor.SessionConfig{
		Telemetry:   *telemetryOn,
		EventsPath:  *eventsPath,
		TracePath:   *tracePath,
		MonitorAddr: *monitorAddr,
		RootSpan:    "fuzz",
	})
	if err != nil {
		return err
	}
	if sess.Server != nil {
		fmt.Printf("monitor listening on %s\n", sess.Server.URL())
	}
	rec := sess.Recorder
	mode, err := parallel.ParseMode(*modeName)
	if err != nil {
		return err
	}
	var allocator parallel.Allocator
	switch *alloc {
	case "cohesive":
		allocator = parallel.AllocCohesive
	case "random":
		allocator = parallel.AllocRandom
	case "round-robin":
		allocator = parallel.AllocRoundRobin
	default:
		return fmt.Errorf("unknown allocator %q", *alloc)
	}
	ctx, cancel := signalContext()
	defer cancel()
	ks := liveKillSwitch(sub)
	if ks != nil {
		if ls, ok := sub.(interface{ SetRecorder(*telemetry.Recorder) }); ok {
			ls.SetRecorder(rec)
		}
		// The kill switch hard-stops the campaign through context
		// cancellation; Run finalizes a partial result we still report.
		kctx, kcancel := context.WithCancel(ctx)
		defer kcancel()
		ks.SetOnTrip(func(string) { kcancel() })
		ctx = kctx
	}
	res, err := parallel.Run(ctx, sub, parallel.Options{
		Mode:                  mode,
		Instances:             *instances,
		VirtualHours:          *hours,
		Seed:                  *seed,
		Allocator:             allocator,
		DisableConfigMutation: *noMut,
		RawRelationWeighting:  *rawWeights,
		SaturationWindow:      *satWindow,
		SaturationMinGain:     *satMinGain,
		LinkLoss:              *linkLoss,
		LinkLatencyBase:       *linkLatency,
		LinkLatencyJitter:     *linkJitter,
		Concurrency:           *concurrency,
		Telemetry:             rec,
		Trace:                 sess.Root,
		Progress:              sess.Progress,
	})
	if err != nil && !(res != nil && ks.Tripped() && errors.Is(err, context.Canceled)) {
		sess.Finish(nil)
		return err
	}
	fmt.Printf("%s on %s: %d branches, %d execs over %g virtual hours\n",
		mode, sub.Info().Implementation, res.FinalBranches, res.TotalExecs, *hours)
	for _, in := range res.Instances {
		fmt.Printf("  instance %d: %6d branches, %7d execs, %d crashes, %d config mutations\n",
			in.Index, in.FinalBranches, in.Execs, in.Crashes, in.ConfigMutations)
		if mode == parallel.ModeCMFuzz {
			fmt.Printf("    config: %s\n", in.Config)
		}
	}
	if *outDir != "" {
		if err := campaign.WriteArtifacts(*outDir, res); err != nil {
			return err
		}
		fmt.Println("artifacts written to", *outDir)
	}
	reports := res.Bugs.Unique()
	sort.Slice(reports, func(i, j int) bool { return reports[i].Time < reports[j].Time })
	if len(reports) > 0 {
		fmt.Printf("unique bugs (%d):\n", len(reports))
		for _, r := range reports {
			fmt.Printf("  [%6.1fh] %s\n", r.Time/3600, r.Crash.Error())
		}
	}
	if ks != nil {
		printKillReason(ks)
	}
	return finishSession(sess, *telemetryOn)
}

// finishSession prints the timeline (under -telemetry), then lets the
// session export the event stream and trace file and stop the monitor.
func finishSession(sess *monitor.Session, show bool) error {
	if show && sess.Recorder.Enabled() {
		fmt.Print(sess.Recorder.Timeline(72))
	}
	return sess.Finish(os.Stdout)
}

// cmdPromlint validates a Prometheus text exposition (a /metrics scrape)
// from the given file or stdin — the CI monitor smoke pipes curl output
// through it. -strict adds the repo's naming conventions (counters end
// _total, lowercase snake names, HELP+TYPE on every family).
func cmdPromlint(args []string) error {
	fs := flag.NewFlagSet("promlint", flag.ExitOnError)
	strict := fs.Bool("strict", false, "also enforce naming conventions (counter _total suffix, lowercase names, HELP required)")
	fs.Parse(args)
	in, src := os.Stdin, "stdin"
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in, src = f, fs.Arg(0)
	}
	lint := metrics.Lint
	if *strict {
		lint = metrics.LintStrict
	}
	stats, err := lint(in)
	if err != nil {
		return fmt.Errorf("promlint: %s: %w", src, err)
	}
	fmt.Printf("promlint: %s OK — %d families, %d samples\n", src, stats.Families, stats.Samples)
	return nil
}

func cmdCampaign(args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	name := subjectFlag(fs)
	hours := fs.Float64("hours", 24, "virtual campaign hours")
	reps := fs.Int("reps", 1, "repetitions per fuzzer (paper: 5)")
	instances := fs.Int("n", 4, "parallel instances")
	seed := fs.Int64("seed", 0, "base seed (repetition r runs seed+r+1)")
	concurrency := fs.Int("j", 0, "concurrent campaigns and probe workers (0 = GOMAXPROCS)")
	distWorkers := fs.Int("dist", 0, "run each campaign through N in-process loopback workers (0 = in-process; results are identical)")
	telemetryOn := fs.Bool("telemetry", false, "collect structured events; print the timeline and counters")
	eventsPath := fs.String("events", "", "write the structured event stream as JSONL to this file (implies -telemetry)")
	tracePath := fs.String("trace", "", "write a wall-clock Chrome trace (chrome://tracing / Perfetto) to this file")
	monitorAddr := fs.String("monitor", "", "serve /status, /metrics, /healthz and /debug/pprof on this host:port (implies -telemetry)")
	outDir := fs.String("out", "", "also write events.jsonl and timeline.txt into this directory")
	fs.Parse(args)
	sub, err := getSubject(*name)
	if err != nil {
		return err
	}
	sess, err := monitor.StartSession(monitor.SessionConfig{
		Telemetry:   *telemetryOn || *outDir != "",
		EventsPath:  *eventsPath,
		TracePath:   *tracePath,
		MonitorAddr: *monitorAddr,
		RootSpan:    "campaign",
	})
	if err != nil {
		return err
	}
	if sess.Server != nil {
		fmt.Printf("monitor listening on %s\n", sess.Server.URL())
	}
	rec := sess.Recorder
	cfg := campaign.Config{
		Hours:       *hours,
		Repetitions: *reps,
		Instances:   *instances,
		BaseSeed:    *seed,
		Concurrency: *concurrency,
		Dist:        *distWorkers,
		Telemetry:   rec,
		Trace:       sess.Root,
		Progress:    sess.Progress,
	}
	ctx, cancel := signalContext()
	defer cancel()
	res, err := campaign.RunSubject(ctx, sub, cfg)
	if err != nil {
		sess.Finish(nil)
		return err
	}
	fmt.Printf("campaign on %s: %g virtual hours x %d repetitions, %d instances\n",
		res.Subject.Implementation, *hours, *reps, *instances)
	fmt.Printf("  %-8s %8s %8s %8s %9s\n", "Fuzzer", "Branches", "Bugs", "Improv", "Speedup")
	for _, st := range []campaign.FuzzerStats{res.CMFuzz, res.Peach, res.SPFuzz} {
		improv, speedup := "", ""
		if st.Mode != parallel.ModeCMFuzz {
			improv = fmt.Sprintf("%+7.1f%%", res.Improv(st))
			speedup = fmt.Sprintf("%8.0fx", res.Speedup(st))
		}
		fmt.Printf("  %-8s %8d %8d %8s %9s\n", st.Mode, st.Branches, st.Bugs.Len(), improv, speedup)
	}
	if *outDir != "" {
		if err := campaign.WriteTelemetry(*outDir, rec); err != nil {
			return err
		}
		fmt.Println("telemetry artifacts written to", *outDir)
	}
	return finishSession(sess, *telemetryOn)
}
