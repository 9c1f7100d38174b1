package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"

	"cmfuzz/internal/dist"
	"cmfuzz/internal/protocols"
)

// signalContext returns a context cancelled on SIGINT/SIGTERM, so a
// campaign interrupted at the terminal still finalizes partial
// artifacts (parallel.Run and dist return a well-formed Result with
// ctx.Err()).
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// acceptWorkers blocks until n workers have attached through add; a
// connection that fails the handshake is reported and does not count.
func acceptWorkers(ln net.Listener, n int, add func(net.Conn) error) error {
	for i := 0; i < n; {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		if err := add(conn); err != nil {
			fmt.Fprintln(os.Stderr, "cmfuzz:", err)
			continue
		}
		i++
		fmt.Printf("worker %d/%d attached from %s\n", i, n, conn.RemoteAddr())
	}
	return nil
}

// coordinatorFlags is `coordinator`'s command line: everything `fuzz`
// takes, plus where to listen and how many workers to wait for.
func coordinatorFlags(fs *flag.FlagSet) (rf *runFlags, listen *string, workers *int) {
	rf = bindRun(fs, "coordinator")
	listen = fs.String("listen", "127.0.0.1:7070", "address to accept worker connections on")
	workers = fs.Int("workers", 2, "number of workers to wait for before starting")
	return rf, listen, workers
}

// cmdCoordinator runs the distributed campaign's coordinator: listen,
// wait for the expected number of workers to attach, run the campaign
// `cmfuzz fuzz` would run from the same flags, and print the same
// summary — plus the distribution bookkeeping (lease traffic, worker
// failures).
func cmdCoordinator(args []string) error {
	fs := flag.NewFlagSet("coordinator", flag.ExitOnError)
	rf, listen, workers := coordinatorFlags(fs)
	fs.Parse(args)
	sub, opts, sess, err := rf.start()
	if err != nil {
		return err
	}

	coord := dist.NewCoordinator(sub, opts, dist.Config{})
	coord.Instrument(sess.Registry)
	// The campaign loop calls both on its own goroutine, and Run returns
	// after its last call.
	var deaths, reassignments int
	coord.SetObserver(dist.Observer{
		Death: func(worker string) {
			deaths++
			fmt.Fprintf(os.Stderr, "cmfuzz: worker %s died; reassigning its instances\n", worker)
		},
		Reassign: func(int, string) { reassignments++ },
	})

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Printf("coordinator listening on %s, waiting for %d workers\n", ln.Addr(), *workers)
	if err := acceptWorkers(ln, *workers, coord.AddConn); err != nil {
		return err
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
	if werr := rf.report(res, fmt.Sprintf(" (distributed, %d workers)", *workers)); werr != nil {
		return werr
	}
	var leaseBytes int64
	for _, ws := range coord.Workers() {
		leaseBytes += ws.SyncBytes
	}
	fmt.Printf("lease traffic: %d bytes; worker deaths: %d; reassignments: %d\n",
		leaseBytes, deaths, reassignments)
	for _, ws := range coord.Workers() {
		state := "alive"
		if !ws.Alive {
			state = "dead"
		}
		fmt.Printf("  worker %-12s %-5s %9d execs %8d lease bytes\n", ws.Name, state, ws.Execs, ws.SyncBytes)
	}
	if ferr := finishSession(sess, rf.sess.Telemetry); ferr != nil {
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
