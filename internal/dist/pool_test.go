package dist

import (
	"context"
	"fmt"
	"net"
	"strings"
	"testing"

	"cmfuzz/internal/parallel"
	"cmfuzz/internal/protocols"
	"cmfuzz/internal/wire"
)

// addPipeWorker attaches one net.Pipe-backed worker to the pool and
// returns its connection record. The worker's Serve loop runs in the
// background so the Hello/Welcome handshake completes.
func addPipeWorker(t *testing.T, p *Pool, name string) *workerConn {
	t.Helper()
	cConn, wConn := net.Pipe()
	w := NewWorker(WorkerConfig{Name: name, Resolve: protocols.ByName})
	go w.Serve(wConn)
	if err := p.AddConn(cConn); err != nil {
		t.Fatalf("AddConn(%s): %v", name, err)
	}
	wc := p.workers[len(p.workers)-1]
	t.Cleanup(func() { cConn.Close(); wConn.Close() })
	return wc
}

// TestElasticAdmission pins late-joining admission: a worker attached
// after a campaign started joins the pool without joining that
// campaign's worker set, the next campaign to start takes its plan to
// it, and a closed pool refuses new workers.
func TestElasticAdmission(t *testing.T) {
	p := NewPool(Config{HeartbeatInterval: -1})
	early := addPipeWorker(t, p, "early")
	sub, err := protocols.ByName("DNS")
	if err != nil {
		t.Fatal(err)
	}
	opts := parallel.Options{Mode: parallel.ModeCMFuzz, VirtualHours: 0.01, Instances: 2, Seed: 1, Concurrency: 1}
	first := NewCoordinatorOn(p, sub, opts)
	if err := first.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	late := addPipeWorker(t, p, "late")
	second := NewCoordinatorOn(p, sub, opts)
	if err := second.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(first.workers) != 1 || first.workers[0] != early {
		t.Fatalf("campaign started before the late join runs on %d workers, want [early]", len(first.workers))
	}
	if len(second.workers) != 2 || second.workers[1] != late {
		t.Fatalf("campaign started after the late join runs on %d workers, want [early late]", len(second.workers))
	}
	first.Close()
	second.Close()

	// A closed pool refuses admission instead of leaking the conn.
	p.Close()
	cConn, wConn := net.Pipe()
	w := NewWorker(WorkerConfig{Name: "too-late"})
	go w.Serve(wConn)
	if err := p.AddConn(cConn); err == nil {
		t.Fatal("AddConn on a closed pool succeeded, want error")
	}
}

// TestHelloVersionMismatch: a worker speaking another protocol version
// is told so, whatever that version puts in its hello after the version
// byte — a version-7 worker, which would still answer Finalize, and a
// hello of the next version with a field this one does not have, which
// read as this version would be a malformed message.
func TestHelloVersionMismatch(t *testing.T) {
	future := codec{w: &wire.Writer{}}
	future.hello(&hello{Name: "future", Version: protocolVersion + 1})
	future.w.U32(42) // the field the next version adds
	for _, tc := range []struct {
		version byte
		hello   []byte
	}{
		{7, marshal(&v7Hello, (*codec).hello)},
		{protocolVersion + 1, future.w.Bytes()},
	} {
		p := NewPool(Config{HeartbeatInterval: -1})
		cConn, wConn := net.Pipe()
		go writeFrame(wConn, msgHello, 0, tc.hello)
		added := make(chan error, 1)
		go func() { added <- p.AddConn(cConn) }()
		typ, _, payload, err := readFrame(wConn)
		if err != nil {
			t.Fatal(err)
		}
		if typ != msgError || string(payload) != "protocol version mismatch" {
			t.Fatalf("version %d worker was answered with type %d %q, want a version mismatch", tc.version, typ, payload)
		}
		want := fmt.Sprintf("speaks protocol %d, want %d", tc.version, protocolVersion)
		if err := <-added; err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("AddConn = %v, want a version mismatch", err)
		}
		if len(p.workers) != 0 {
			t.Fatalf("%d workers attached", len(p.workers))
		}
		wConn.Close()
		p.Close()
	}
}
