package dist

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"testing"
	"time"
)

// pipeWorkerConn returns a workerConn with its reader running, and the
// worker's end of the pipe. The cleanup kills the connection and joins
// the reader.
func pipeWorkerConn(t *testing.T) (*workerConn, net.Conn) {
	cConn, wConn := net.Pipe()
	wc := &workerConn{name: "w", conn: cConn, br: bufio.NewReaderSize(cConn, 64<<10), calls: make(map[uint32]call)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		wc.readLoop()
	}()
	t.Cleanup(func() {
		wConn.Close()
		wc.kill(errors.New("test over"))
		<-done
	})
	return wc, wConn
}

// TestStalePongSkipped pins the reader's routing: a reply whose id
// nobody waits for — a request that was given up on, or an id never
// issued — is dropped, not mistaken for the reply a request is waiting
// for and not fatal to the connection; replies to two outstanding
// requests find their own waiters whatever order they arrive in.
func TestStalePongSkipped(t *testing.T) {
	wc, peer := pipeWorkerConn(t)

	go func() {
		_, first, _, err := readFrame(peer) // the Boot request
		if err != nil {
			t.Error(err)
			return
		}
		_, second, _, err := readFrame(peer) // the Ping sent beside it
		if err != nil {
			t.Error(err)
			return
		}
		// A stray Pong first, then the two replies, last request first.
		for _, f := range []struct {
			typ     byte
			id      uint32
			payload []byte
		}{
			{msgPong, second + 100, nil},
			{msgPong, second, nil},
			{msgBootResult, first, []byte{1, 2, 3}},
		} {
			if err := writeFrame(peer, f.typ, f.id, f.payload); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	result := wc.send(msgBoot, nil, 5*time.Second)
	pong := wc.send(msgPing, nil, 5*time.Second)
	p, err := wc.expect(<-result, msgBootResult)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, []byte{1, 2, 3}) {
		t.Fatalf("rpc returned %v, want the reply carrying its own id", p)
	}
	if _, err := wc.expect(<-pong, msgPong); err != nil {
		t.Fatal(err)
	}
	if wc.dead.Load() {
		t.Fatal("a reply to an unknown id killed the connection")
	}
}

// TestLatePongKillsWorker delays every Pong past the RPC deadline: the
// heartbeat loop must declare the worker dead, the request that ran out
// must fail, and subsequent RPCs must fail fast with errWorkerDead
// rather than hang.
func TestLatePongKillsWorker(t *testing.T) {
	wc, peer := pipeWorkerConn(t)

	p := NewPool(Config{RPCTimeout: 50 * time.Millisecond, HeartbeatInterval: 10 * time.Millisecond})
	p.workers = append(p.workers, wc)

	// The peer reads pings but answers far past the deadline.
	go func() {
		for {
			_, id, _, err := readFrame(peer)
			if err != nil {
				return
			}
			go func() {
				time.Sleep(300 * time.Millisecond)
				writeFrame(peer, msgPong, id, nil) // errors once the pipe dies; fine
			}()
		}
	}()

	p.hbWG.Add(1)
	go p.heartbeat(wc)
	deadline := time.Now().Add(5 * time.Second)
	for !wc.dead.Load() {
		if time.Now().After(deadline) {
			t.Fatal("late Pongs never killed the worker")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(p.stopHeartbeat)
	p.hbWG.Wait()

	if _, err := wc.rpc(msgPing, nil, msgPong, time.Second); !errors.Is(err, errWorkerDead) {
		t.Fatalf("rpc on dead worker = %v, want errWorkerDead", err)
	}
}

// TestExpiredRequestFailsEveryWaiter pins what a deadline does on a
// multiplexed connection: the request that ran out kills the connection,
// so every other request outstanding on it fails at once with the same
// cause instead of waiting out its own timer.
func TestExpiredRequestFailsEveryWaiter(t *testing.T) {
	wc, peer := pipeWorkerConn(t)
	go func() { // a worker that reads and never answers
		for {
			if _, _, _, err := readFrame(peer); err != nil {
				return
			}
		}
	}()
	patient := wc.send(msgLease, nil, time.Hour)
	if _, err := wc.rpc(msgPing, nil, msgPong, 20*time.Millisecond); err == nil {
		t.Fatal("unanswered ping succeeded")
	}
	select {
	case rep := <-patient:
		if rep.err == nil {
			t.Fatal("outstanding request on a dead connection got a reply")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("outstanding request still waiting after the connection died")
	}
	if !wc.dead.Load() {
		t.Fatal("expired request left the worker alive")
	}
}

// TestShutdownOfStuckWorkerIsBounded pins the pool's good-order end
// against a worker that has stopped reading: a send blocked in its write
// holds the write lock, and the Shutdown that queues behind it must not
// wait out that request's own (long) deadline.
func TestShutdownOfStuckWorkerIsBounded(t *testing.T) {
	wc, _ := pipeWorkerConn(t) // the peer never reads
	stuck := make(chan (<-chan reply), 1)
	go func() { stuck <- wc.send(msgLease, nil, time.Hour) }()
	time.Sleep(20 * time.Millisecond) // let the send reach its write
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		wc.end(errPoolClosed, false)
	}()
	select {
	case <-ended:
	case <-time.After(shutdownGrace + 5*time.Second):
		t.Fatal("end still waiting behind a blocked write")
	}
	if rep := <-<-stuck; !errors.Is(rep.err, errPoolClosed) {
		t.Fatalf("blocked request failed with %v, want the pool's close", rep.err)
	}
	if wc.dead.Load() {
		t.Fatal("a pool closing in good order declared its worker dead")
	}
}
