package dist

import (
	"context"
	"fmt"
	"net"

	"cmfuzz/internal/parallel"
	"cmfuzz/internal/subject"
)

// RunLocal runs a distributed campaign entirely in-process: a
// coordinator plus `workers` worker loops, connected over net.Pipe.
// It exists for the benchmark's dist_loopback workload and as the
// deterministic harness the failure-path tests build on — the
// pipes are synchronous, so there is no kernel socket buffering to
// make timings (and thus failure interleavings) flaky.
//
// The Result is byte-identical to parallel.Run(ctx, sub, opts) for the
// same options and seed, whatever the worker count.
func RunLocal(ctx context.Context, sub subject.Subject, opts parallel.Options, workers int, cfg Config) (*parallel.Result, *Coordinator, error) {
	if workers <= 0 {
		workers = 2
	}
	resolve := func(name string) (subject.Subject, error) {
		if info := sub.Info(); name != info.Protocol {
			return nil, fmt.Errorf("dist: local worker asked for subject %q, running %q", name, info.Protocol)
		}
		return sub, nil
	}
	coord := NewCoordinator(sub, opts, cfg)
	serveErr := make(chan error, workers)
	started := 0
	// Workers exit on the Shutdown frames (or closed pipes) the
	// coordinator sends on its way out; join so no goroutine outlives the
	// call.
	join := func() {
		for ; started > 0; started-- {
			<-serveErr
		}
	}
	for i := 0; i < workers; i++ {
		cConn, wConn := net.Pipe()
		w := NewWorker(WorkerConfig{Name: fmt.Sprintf("local-%d", i), Resolve: resolve})
		// The worker speaks first (Hello), and net.Pipe writes block
		// until read, so Serve must be running before AddConn.
		go func() { serveErr <- w.Serve(wConn) }()
		started++
		if err := coord.AddConn(cConn); err != nil {
			// This worker may still be blocked writing its Hello; the ones
			// before it are waiting for requests.
			cConn.Close()
			coord.Close()
			join()
			return nil, nil, err
		}
	}
	res, err := coord.Run(ctx)
	join()
	return res, coord, err
}
