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
	"cmfuzz/internal/core/configmodel"
	"cmfuzz/internal/core/configspec"
	"cmfuzz/internal/core/relation"
	"cmfuzz/internal/live"
	"cmfuzz/internal/monitor"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/protocols"
	"cmfuzz/internal/spec"
	"cmfuzz/internal/subject"
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

common flags:  -subject NAME (protocol or implementation name), or a live
               target through the -target-* flags
telemetry:     -telemetry (print timeline + counters), -events PATH (JSONL export)
observability: -trace PATH (Chrome trace JSON for chrome://tracing / Perfetto),
               -monitor ADDR (HTTP /status, /metrics, /healthz, /debug/pprof)`)
}

// parseTarget parses a pipeline-stage command line — the campaign flags,
// of which extract and model read only the target — and resolves its
// subject.
func parseTarget(cmd string, args []string) (spec.Campaign, subject.Subject, error) {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	var c spec.Campaign
	c.Bind(fs)
	fs.Parse(args)
	sub, err := c.Target(protocols.ByName)
	return c, sub, err
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
	_, sub, err := parseTarget("extract", args)
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
	_, sub, err := parseTarget("model", args)
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

// planStage parses a pipeline-stage command line and plans the campaign
// it describes with the planner every campaign runs, Host.Plan, so -n
// and -seed mean here what they mean to fuzz.
func planStage(cmd string, args []string) (*parallel.Host, *parallel.Plan, error) {
	c, sub, err := parseTarget(cmd, args)
	if err != nil {
		return nil, nil, err
	}
	opts, err := c.Options()
	if err != nil {
		return nil, nil, err
	}
	if opts.Mode != parallel.ModeCMFuzz {
		return nil, nil, fmt.Errorf("%s applies to CMFuzz mode only, not %s", cmd, opts.Mode)
	}
	h, err := parallel.NewHost(sub, opts)
	if err != nil {
		return nil, nil, err
	}
	return h, h.Plan(bugs.NewLedger(), nil, nil), nil
}

func cmdRelate(args []string) error {
	h, plan, err := planStage("relate", args)
	if err != nil {
		return err
	}
	rel := plan.Relation
	fmt.Printf("relation-aware configuration model for %s:\n", h.Sub.Info().Implementation)
	fmt.Printf("  baseline startup coverage: %d branches (%d startups for %d probe requests, %d values capped)\n",
		rel.Baseline, rel.Probes, rel.ProbeRequests, rel.DroppedValues)
	fmt.Printf("  %d relation edges:\n", rel.Graph.EdgeCount())
	for _, e := range rel.Graph.SortedEdges() {
		best := rel.Best[relation.PairKey(e.A, e.B)]
		fmt.Printf("    %.2f  %s=%s <-> %s=%s (coverage %d)\n",
			e.Weight, best.A, best.ValueA, best.B, best.ValueB, best.Cover)
	}
	return nil
}

func cmdSchedule(args []string) error {
	h, plan, err := planStage("schedule", args)
	if err != nil {
		return err
	}
	fmt.Printf("cohesive groups for %s across %d instances:\n", h.Sub.Info().Implementation, h.Opts.Instances)
	for i, g := range plan.Groups {
		fmt.Printf("  instance %d: %s\n", i, strings.Join(g.Members, ", "))
		fmt.Printf("    config: %s\n", plan.Specs[i].Config.String())
	}
	return nil
}

// runFlags is what `fuzz` and `coordinator` share: the campaign, how
// its run is observed, the probe pool size and where artifacts go.
type runFlags struct {
	spec spec.Campaign
	sess monitor.SessionConfig
	jobs int
	out  string
}

func bindRun(fs *flag.FlagSet, rootSpan string) *runFlags {
	rf := &runFlags{sess: monitor.SessionConfig{RootSpan: rootSpan}}
	rf.spec.Bind(fs)
	rf.sess.Bind(fs)
	fs.IntVar(&rf.jobs, "j", 0, "relation-probe worker pool size (0 = GOMAXPROCS); results are identical for any value")
	fs.StringVar(&rf.out, "out", "", "write artifacts (result.json, coverage.csv, crashes/) to this directory")
	return rf
}

// start resolves the target, validates the spec into options and opens
// the observability session the options report into.
func (rf *runFlags) start() (subject.Subject, parallel.Options, *monitor.Session, error) {
	opts, err := rf.spec.Options()
	if err != nil {
		return nil, opts, nil, err
	}
	sub, err := rf.spec.Target(protocols.ByName)
	if err != nil {
		return nil, opts, nil, err
	}
	// A live campaign's safety-rail counters must land in result.json,
	// so the recorder is always on.
	rf.sess.Telemetry = rf.sess.Telemetry || rf.spec.Live != nil
	sess, err := startSession(rf.sess)
	if err != nil {
		return nil, opts, nil, err
	}
	opts.Concurrency = rf.jobs
	opts.Telemetry, opts.Trace = sess.Recorder, sess.Root
	return sub, opts, sess, nil
}

// report prints a finished (or interrupted) campaign the same way for
// every way of running it — the summary line, with how it ran appended,
// one line per instance, the artifacts written under -out and the unique
// bugs in discovery order.
func (rf *runFlags) report(res *parallel.Result, how string) error {
	fmt.Printf("%s on %s: %d branches, %d execs over %g virtual hours%s\n",
		res.Mode, res.Subject.Implementation, res.FinalBranches, res.TotalExecs, rf.spec.Hours, how)
	for _, in := range res.Instances {
		fmt.Printf("  instance %d: %6d branches, %7d execs, %d crashes, %d config mutations\n",
			in.Index, in.FinalBranches, in.Execs, in.Crashes, in.ConfigMutations)
		if res.Mode == parallel.ModeCMFuzz {
			fmt.Printf("    config: %s\n", in.Config)
		}
	}
	if rf.out != "" {
		if err := campaign.WriteArtifacts(rf.out, res); err != nil {
			return err
		}
		fmt.Println("artifacts written to", rf.out)
	}
	reports := res.Bugs.Unique()
	sort.Slice(reports, func(i, j int) bool { return reports[i].Time < reports[j].Time })
	if len(reports) > 0 {
		fmt.Printf("unique bugs (%d):\n", len(reports))
		for _, r := range reports {
			fmt.Printf("  [%6.1fh] %s\n", r.Time/3600, r.Crash.Error())
		}
	}
	return nil
}

func cmdFuzz(args []string) error {
	fs := flag.NewFlagSet("fuzz", flag.ExitOnError)
	rf := bindRun(fs, "fuzz")
	fs.Parse(args)
	sub, opts, sess, err := rf.start()
	if err != nil {
		return err
	}
	ctx, cancel := signalContext()
	defer cancel()
	var ks *live.KillSwitch
	if ls, ok := sub.(*live.Subject); ok {
		ks = ls.KillSwitch()
		ls.SetRecorder(sess.Recorder)
		// The kill switch hard-stops the campaign through context
		// cancellation; Run finalizes a partial result we still report.
		kctx, kcancel := context.WithCancel(ctx)
		defer kcancel()
		ks.SetOnTrip(func(string) { kcancel() })
		ctx = kctx
	}
	res, err := parallel.Run(ctx, sub, opts)
	if err != nil && !(res != nil && ks.Tripped() && errors.Is(err, context.Canceled)) {
		sess.Finish(nil)
		return err
	}
	if err := rf.report(res, ""); err != nil {
		return err
	}
	// Reported on stdout so the CI smoke (and an operator's eyeball) can
	// confirm the stop was the rails acting, not a crash of the fuzzer.
	if ks.Tripped() {
		fmt.Printf("kill switch tripped: %s — campaign stopped, partial results kept\n", ks.Reason())
	}
	return finishSession(sess, rf.sess.Telemetry)
}

// startSession opens the observability session and announces the
// monitor's address when there is one.
func startSession(cfg monitor.SessionConfig) (*monitor.Session, error) {
	sess, err := monitor.StartSession(cfg)
	if err == nil && sess.Server != nil {
		fmt.Printf("monitor listening on %s\n", sess.Server.URL())
	}
	return sess, err
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
// from the given file or stdin, the repo's naming conventions included
// (counters end _total, lowercase snake names, HELP+TYPE on every
// family) — the CI monitor smokes pipe curl output through it.
func cmdPromlint(args []string) error {
	fs := flag.NewFlagSet("promlint", flag.ExitOnError)
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
	stats, err := metrics.Lint(in)
	if err != nil {
		return fmt.Errorf("promlint: %s: %w", src, err)
	}
	fmt.Printf("promlint: %s OK — %d families, %d samples\n", src, stats.Families, stats.Samples)
	return nil
}

func cmdCampaign(args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	var cfg campaign.Config
	cfg.Bind(fs, 1, "MQTT")
	var sc monitor.SessionConfig
	sc.Bind(fs)
	outDir := fs.String("out", "", "also write events.jsonl and timeline.txt into this directory")
	fs.Parse(args)
	sub, err := cfg.Spec.Target(protocols.ByName)
	if err != nil {
		return err
	}
	show := sc.Telemetry
	sc.Telemetry = show || *outDir != ""
	sc.RootSpan = "campaign"
	sess, err := startSession(sc)
	if err != nil {
		return err
	}
	cfg.Telemetry, cfg.Trace = sess.Recorder, sess.Root
	ctx, cancel := signalContext()
	defer cancel()
	res, err := campaign.RunSubject(ctx, sub, cfg)
	if err != nil {
		sess.Finish(nil)
		return err
	}
	fmt.Printf("campaign on %s: %g virtual hours x %d repetitions, %d instances\n",
		res.Subject.Implementation, res.Hours, cfg.Repetitions, cfg.Spec.Instances)
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
		if err := campaign.WriteTelemetry(*outDir, sess.Recorder); err != nil {
			return err
		}
		fmt.Println("telemetry artifacts written to", *outDir)
	}
	return finishSession(sess, show)
}
