package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"

	"cmfuzz/internal/campaign"
	"cmfuzz/internal/dist"
	"cmfuzz/internal/monitor"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/protocols"
)

// signalContext returns a context cancelled on SIGINT/SIGTERM, so a
// campaign interrupted at the terminal still finalizes partial
// artifacts (parallel.Run and dist return a well-formed Result with
// ctx.Err()).
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// cmdCoordinator runs the distributed campaign's coordinator: listen,
// wait for the expected number of workers to attach, run the campaign,
// and print the same summary `cmfuzz fuzz` prints — plus the
// distribution bookkeeping (lease traffic, worker failures).
func cmdCoordinator(args []string) error {
	fs := flag.NewFlagSet("coordinator", flag.ExitOnError)
	name := subjectFlag(fs)
	listen := fs.String("listen", "127.0.0.1:7070", "address to accept worker connections on")
	workers := fs.Int("workers", 2, "number of workers to wait for before starting")
	modeName := fs.String("mode", "cmfuzz", "fuzzer: cmfuzz, peach or spfuzz")
	hours := fs.Float64("hours", 24, "virtual campaign hours")
	seed := fs.Int64("seed", 1, "campaign seed")
	instances := fs.Int("n", 4, "parallel instances")
	concurrency := fs.Int("j", 0, "relation-probe worker pool size (0 = GOMAXPROCS)")
	outDir := fs.String("out", "", "write artifacts (result.json, coverage.csv, crashes/) to this directory")
	telemetryOn := fs.Bool("telemetry", false, "collect structured events; print the timeline and counters")
	eventsPath := fs.String("events", "", "write the structured event stream as JSONL to this file (implies -telemetry)")
	tracePath := fs.String("trace", "", "write a wall-clock Chrome trace (chrome://tracing / Perfetto) to this file, with worker spans stitched in as extra process lanes")
	monitorAddr := fs.String("monitor", "", "serve /status, /metrics, /healthz and /debug/pprof on this host:port (implies -telemetry)")
	fs.Parse(args)
	sub, err := getSubject(*name)
	if err != nil {
		return err
	}
	mode, err := parallel.ParseMode(*modeName)
	if err != nil {
		return err
	}
	sess, err := monitor.StartSession(monitor.SessionConfig{
		Telemetry:   *telemetryOn,
		EventsPath:  *eventsPath,
		TracePath:   *tracePath,
		MonitorAddr: *monitorAddr,
		RootSpan:    "coordinator",
	})
	if err != nil {
		return err
	}
	if sess.Server != nil {
		fmt.Printf("monitor listening on %s\n", sess.Server.URL())
	}

	coord := dist.NewCoordinator(sub, parallel.Options{
		Mode:         mode,
		Instances:    *instances,
		VirtualHours: *hours,
		Seed:         *seed,
		Concurrency:  *concurrency,
		Telemetry:    sess.Recorder,
		Trace:        sess.Root,
		Progress:     sess.Progress,
	}, dist.Config{})
	leaseLat := sess.Registry.Histogram("cmfuzz_lease_latency_seconds",
		"Round-trip time of one worker lease RPC, request encode to reply decode.", nil)
	coord.SetObserver(dist.Observer{
		Lease: func(_, _, _, _ int, seconds float64, _ bool) { leaseLat.Observe(seconds) },
		Death: func(worker string) {
			fmt.Fprintf(os.Stderr, "cmfuzz: worker %s died; reassigning its instances\n", worker)
		},
	})

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Printf("coordinator listening on %s, waiting for %d workers\n", ln.Addr(), *workers)
	monitor.RegisterWorkers(sess.Registry, coord.Workers, nil)
	for i := 0; i < *workers; i++ {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		if err := coord.AddConn(conn); err != nil {
			fmt.Fprintln(os.Stderr, "cmfuzz:", err)
			i--
			continue
		}
		fmt.Printf("worker %d/%d attached from %s\n", i+1, *workers, conn.RemoteAddr())
	}

	ctx, cancel := signalContext()
	defer cancel()
	res, err := coord.Run(ctx)
	if err != nil && res == nil {
		sess.Finish(nil)
		return err
	}
	if err != nil {
		fmt.Printf("campaign interrupted (%v); writing partial results\n", err)
	}
	fmt.Printf("%s on %s: %d branches, %d execs over %g virtual hours (distributed, %d workers)\n",
		mode, sub.Info().Implementation, res.FinalBranches, res.TotalExecs, *hours, *workers)
	for _, in := range res.Instances {
		fmt.Printf("  instance %d: %6d branches, %7d execs, %d crashes, %d config mutations\n",
			in.Index, in.FinalBranches, in.Execs, in.Crashes, in.ConfigMutations)
	}
	st := coord.Stats()
	fmt.Printf("  lease traffic: %d bytes; worker deaths: %d; reassignments: %d\n",
		st.SyncBytes, st.WorkerDeaths, st.Reassignments)
	for _, ws := range coord.Workers() {
		state := "alive"
		if !ws.Alive {
			state = "dead"
		}
		fmt.Printf("  worker %-12s %-5s %9d execs %8d lease bytes\n", ws.Name, state, ws.Execs, ws.SyncBytes)
	}
	if *outDir != "" {
		if werr := campaign.WriteArtifacts(*outDir, res); werr != nil {
			return werr
		}
		fmt.Println("artifacts written to", *outDir)
	}
	if ferr := finishSession(sess, *telemetryOn); ferr != nil {
		return ferr
	}
	return err
}

// cmdWorker runs one worker node: dial the coordinator (with jittered
// exponential backoff, so a fleet restarted together does not
// stampede), then serve campaign RPCs until the coordinator shuts the
// campaign down.
func cmdWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	connect := fs.String("connect", "127.0.0.1:7070", "coordinator address")
	name := fs.String("name", "", "worker name reported to the coordinator (default host:pid)")
	attempts := fs.Int("attempts", 10, "connection attempts before giving up")
	fs.Parse(args)
	wname := *name
	if wname == "" {
		host, _ := os.Hostname()
		wname = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	conn, err := dist.Dial(*connect, *attempts, int64(os.Getpid()))
	if err != nil {
		return err
	}
	fmt.Printf("worker %s connected to %s\n", wname, *connect)
	ctx, cancel := signalContext()
	defer cancel()
	go func() {
		<-ctx.Done()
		conn.Close()
	}()
	w := dist.NewWorker(dist.WorkerConfig{Name: wname, Resolve: protocols.ByName})
	if err := w.Serve(conn); err != nil && ctx.Err() == nil {
		return err
	}
	fmt.Println("worker done")
	return nil
}
