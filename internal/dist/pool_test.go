package dist

import (
	"fmt"
	"net"
	"strings"
	"testing"

	"cmfuzz/internal/wire"
)

// addPipeWorker attaches one net.Pipe-backed worker to the pool and
// returns its connection record. The worker's Serve loop runs in the
// background so the Hello/Welcome handshake completes.
func addPipeWorker(t *testing.T, p *Pool, name string) *workerConn {
	t.Helper()
	cConn, wConn := net.Pipe()
	w := NewWorker(WorkerConfig{Name: name})
	go w.Serve(wConn)
	if err := p.AddConn(cConn); err != nil {
		t.Fatalf("AddConn(%s): %v", name, err)
	}
	wc := p.workers[len(p.workers)-1]
	t.Cleanup(func() { cConn.Close(); wConn.Close() })
	return wc
}

// TestPartitionAcquireRelease pins the partition-leasing contract the
// concurrent fleet scheduler depends on: deterministic attach-order
// acquisition, disjointness, short grants under pressure, exhaustion,
// release back to the free set, and dead workers never re-acquired.
func TestPartitionAcquireRelease(t *testing.T) {
	p := NewPool(Config{HeartbeatInterval: -1})
	defer p.Close()
	var ws []*workerConn
	for i := 0; i < 4; i++ {
		ws = append(ws, addPipeWorker(t, p, fmt.Sprintf("w%d", i)))
	}
	if got := p.FreeLive(); got != 4 {
		t.Fatalf("FreeLive = %d, want 4", got)
	}

	// Acquisition follows attach order and removes members from the
	// free set.
	a := p.AcquirePreferring(2, nil)
	if len(a.workers) != 2 || a.workers[0] != ws[0] || a.workers[1] != ws[1] {
		t.Fatalf("first Acquire(2) = %v, want [w0 w1]", a.Names())
	}
	b := p.AcquirePreferring(2, nil)
	if len(b.workers) != 2 || b.workers[0] != ws[2] || b.workers[1] != ws[3] {
		t.Fatalf("second Acquire(2) = %v, want [w2 w3]", b.Names())
	}
	if got := p.FreeLive(); got != 0 {
		t.Fatalf("FreeLive after leasing all = %d, want 0", got)
	}
	if pt := p.AcquirePreferring(1, nil); pt != nil {
		t.Fatalf("Acquire on exhausted pool = %v, want nil", pt.Names())
	}

	// Release returns members to the free set; the next acquisition
	// reuses them, still in attach order. A short grant is returned
	// when the free set is smaller than asked.
	a.Release()
	if got := p.FreeLive(); got != 2 {
		t.Fatalf("FreeLive after release = %d, want 2", got)
	}
	c := p.AcquirePreferring(3, nil)
	if len(c.workers) != 2 || c.workers[0] != ws[0] || c.workers[1] != ws[1] {
		t.Fatalf("Acquire(3) after release = %v (size %d), want short grant [w0 w1]", c.Names(), len(c.workers))
	}

	// A dead member shrinks the partition's live view but stays a
	// member; once released it never comes back.
	ws[0].dead.Store(true)
	if len(c.workers) != 2 || c.Live() != 1 {
		t.Fatalf("Size/Live after death = %d/%d, want 2/1", len(c.workers), c.Live())
	}
	if names := c.Names(); len(names) != 1 || names[0] != "w1" {
		t.Fatalf("Names after death = %v, want [w1]", names)
	}
	c.Release()
	c.Release() // idempotent
	b.Release()
	if got := p.FreeLive(); got != 3 {
		t.Fatalf("FreeLive with one dead worker = %d, want 3", got)
	}
	d := p.AcquirePreferring(4, nil)
	if len(d.workers) != 3 || d.workers[0] != ws[1] {
		t.Fatalf("Acquire(4) skipping the dead worker = %v, want [w1 w2 w3]", d.Names())
	}
	d.Release()
}

// TestElasticAdmission pins late-joining admission: a worker attached
// after the pool went live lands in the free set and is handed out by
// the next acquisition, and a closed pool refuses new workers.
func TestElasticAdmission(t *testing.T) {
	p := NewPool(Config{HeartbeatInterval: -1})
	addPipeWorker(t, p, "early")
	pt := p.AcquirePreferring(1, nil)
	if len(pt.workers) != 1 {
		t.Fatalf("Acquire(1) = %d workers, want 1", len(pt.workers))
	}
	if got := p.FreeLive(); got != 0 {
		t.Fatalf("FreeLive = %d, want 0", got)
	}

	// Late joiner: admitted into the free set without disturbing the
	// existing lease.
	late := addPipeWorker(t, p, "late")
	if got := p.FreeLive(); got != 1 {
		t.Fatalf("FreeLive after late join = %d, want 1", got)
	}
	pt2 := p.AcquirePreferring(1, nil)
	if len(pt2.workers) != 1 || pt2.workers[0] != late {
		t.Fatalf("Acquire after late join = %v, want [late]", pt2.Names())
	}
	pt.Release()
	pt2.Release()

	// A closed pool refuses admission instead of leaking the conn.
	p.Close()
	cConn, wConn := net.Pipe()
	w := NewWorker(WorkerConfig{Name: "too-late"})
	go w.Serve(wConn)
	if err := p.AddConn(cConn); err == nil {
		t.Fatal("AddConn on a closed pool succeeded, want error")
	}
}

// TestAcquirePreferring pins partition affinity: workers named in the
// prefer list are leased first when free, the remainder fills in
// attach order, and a fully-preferred re-grant reproduces the exact
// worker set a campaign held before releasing it.
func TestAcquirePreferring(t *testing.T) {
	p := NewPool(Config{HeartbeatInterval: -1})
	defer p.Close()
	var ws []*workerConn
	for i := 0; i < 4; i++ {
		ws = append(ws, addPipeWorker(t, p, fmt.Sprintf("w%d", i)))
	}

	// Preference jumps the attach order: w2 and w3 come first, then
	// the remainder fills from the front.
	a := p.AcquirePreferring(3, []string{"w2", "w3"})
	if len(a.workers) != 3 || a.workers[0] != ws[2] || a.workers[1] != ws[3] || a.workers[2] != ws[0] {
		t.Fatalf("AcquirePreferring(3, [w2 w3]) = %v, want [w2 w3 w0]", a.Names())
	}
	a.Release()

	// Release-then-reacquire with the previous names lands on the same
	// worker set even though another campaign grabbed different
	// workers in between.
	other := p.AcquirePreferring(2, nil)
	if other.workers[0] != ws[0] || other.workers[1] != ws[1] {
		t.Fatalf("plain acquire = %v, want [w0 w1]", other.Names())
	}
	b := p.AcquirePreferring(2, []string{"w2", "w3"})
	if len(b.workers) != 2 || b.workers[0] != ws[2] || b.workers[1] != ws[3] {
		t.Fatalf("re-grant = %v, want previous set [w2 w3]", b.Names())
	}
	other.Release()
	b.Release()

	// Preferred names that are leased or dead are skipped, not waited
	// for: the grant falls back to whatever is free.
	ws[2].dead.Store(true)
	hold := p.AcquirePreferring(1, []string{"w3"})
	if hold.workers[0] != ws[3] {
		t.Fatalf("hold = %v, want [w3]", hold.Names())
	}
	c := p.AcquirePreferring(2, []string{"w2", "w3"})
	if len(c.workers) != 2 || c.workers[0] != ws[0] || c.workers[1] != ws[1] {
		t.Fatalf("grant with dead+leased preferences = %v, want [w0 w1]", c.Names())
	}
	hold.Release()
	c.Release()
}

// TestAcquireExact pins the suspended-campaign re-grant: a coordinator
// gets back exactly the live connections it captured, all or nothing,
// and a miss names why and leases nothing.
func TestAcquireExact(t *testing.T) {
	p := NewPool(Config{HeartbeatInterval: -1})
	defer p.Close()
	var ws []*workerConn
	for i := 0; i < 4; i++ {
		ws = append(ws, addPipeWorker(t, p, fmt.Sprintf("w%d", i)))
	}
	// The captured set is a subset of the pool that plain attach-order
	// acquisition would never pick.
	c := &Coordinator{workers: []*workerConn{ws[1], ws[3]}, inst: []replica{{owner: ws[1]}, {owner: ws[3]}}}

	pt, miss := p.AcquireExact(c)
	if pt == nil || miss != "" || len(pt.workers) != 2 || pt.workers[0] != ws[1] || pt.workers[1] != ws[3] {
		t.Fatalf("AcquireExact with the set free = %v, %q; want [w1 w3]", pt.Names(), miss)
	}
	if got := p.FreeLive(); got != 2 {
		t.Fatalf("FreeLive after a hit = %d, want 2", got)
	}
	if other := p.AcquirePreferring(4, nil); len(other.workers) != 2 || other.workers[0] != ws[0] || other.workers[1] != ws[2] {
		t.Fatalf("Acquire beside the exact partition = %v, want [w0 w2]", other.Names())
	} else {
		other.Release()
	}
	pt.Release()

	misses := func(label string, want string) {
		t.Helper()
		free := p.FreeLive()
		if pt, miss := p.AcquireExact(c); pt != nil || miss != want {
			t.Fatalf("%s: AcquireExact = %v, %q; want miss %q", label, pt.Names(), miss, want)
		}
		if got := p.FreeLive(); got != free {
			t.Fatalf("%s: a miss leased %d workers", label, free-got)
		}
	}
	if pt, miss := p.AcquireExact(&Coordinator{}); pt != nil || miss != "dead" {
		t.Fatalf("AcquireExact on an unstarted coordinator = %v, %q", pt.Names(), miss)
	}

	sibling := p.AcquirePreferring(1, []string{"w3"})
	misses("one member leased", "leased")
	sibling.Release()

	// A same-named replacement for a dead member is a different
	// connection: still a miss while an instance sits on the dead one.
	ws[1].dead.Store(true)
	addPipeWorker(t, p, "w1")
	misses("an instance's worker dead", "dead")

	// Once the coordinator has re-homed that instance within its set the
	// death is absorbed: it continues on the live members alone.
	c.inst[0].owner = ws[3]
	pt, miss = p.AcquireExact(c)
	if pt == nil || miss != "" || len(pt.workers) != 1 || pt.workers[0] != ws[3] {
		t.Fatalf("AcquireExact after an absorbed death = %v, %q; want [w3]", pt.Names(), miss)
	}
	pt.Release()
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
