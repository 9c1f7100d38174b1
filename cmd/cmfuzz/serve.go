package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"

	"cmfuzz/internal/dist"
	"cmfuzz/internal/fleet"
	"cmfuzz/internal/monitor"
	"cmfuzz/internal/protocols"
	"cmfuzz/internal/telemetry/metrics"
)

// cmdServe runs the long-lived fleet service: one shared worker pool,
// many campaigns submitted over HTTP, a bandit scheduler partitioning
// the workers between them every round, and crash-safe state under
// -state. Stopping the process (SIGINT/SIGTERM) parks every running
// campaign at a checkpoint; restarting with the same -state resumes
// them with byte-identical final artifacts.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:7070", "address to accept worker connections on")
	workers := fs.Int("workers", 2, "number of workers to wait for before serving")
	stateDir := fs.String("state", "cmfuzz-state", "directory for campaign specs, checkpoints and artifacts")
	slice := fs.Float64("slice", 900, "scheduler quantum in virtual seconds")
	concurrency := fs.Int("concurrency", 0, "caps a scheduling round at N campaigns (0 = every runnable campaign)")
	monitorAddr := fs.String("monitor", "127.0.0.1:8080", "HTTP address serving the monitor and the /api endpoints")
	fs.Parse(args)

	// -workers is the startup barrier: the scheduler does not start
	// until that many workers attach. After that the accept loop keeps
	// running in the background — late joiners land in the pool's free
	// set and the next scheduling round hands them to a campaign.
	pool := dist.NewPool(dist.Config{})
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Printf("serve listening on %s, waiting for %d workers\n", ln.Addr(), *workers)
	if err := acceptWorkers(ln, *workers, pool.AddConn); err != nil {
		return err
	}
	pool.StartHeartbeats()
	defer pool.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed on shutdown
			}
			if err := pool.AddConn(conn); err != nil {
				fmt.Fprintln(os.Stderr, "cmfuzz:", err)
				continue
			}
			fmt.Printf("late worker attached from %s\n", conn.RemoteAddr())
		}
	}()

	m, err := fleet.NewManager(fleet.Config{StateDir: *stateDir, Slice: *slice, Concurrency: *concurrency},
		pool, protocols.ByName)
	if err != nil {
		return err
	}
	if recovered := m.Status(); len(recovered) > 0 {
		for _, cs := range recovered {
			fmt.Printf("recovered campaign %s (%s, %s)\n", cs.ID, cs.Subject, cs.State)
		}
	}

	reg := metrics.NewRegistry()
	monitor.RegisterWorkers(reg, pool.Workers, nil)
	monitor.RegisterFleet(reg, m.Status)
	m.Instrument(reg)
	srv, err := monitor.Start(*monitorAddr, monitor.Options{
		Registry: reg,
		Status: func() any {
			return map[string]any{"campaigns": m.Status(), "workers": pool.Workers()}
		},
		API: m.APIHandler(),
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("fleet API on %s/api/ (submit, status, results); monitor on %s\n", srv.URL(), srv.URL())

	ctx, cancel := signalContext()
	defer cancel()
	err = m.Run(ctx)
	if errors.Is(err, context.Canceled) {
		fmt.Println("serve: interrupted; running campaigns parked at checkpoints")
		return nil
	}
	return err
}
