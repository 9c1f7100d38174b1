package fleet

import (
	"net"
	"reflect"
	"testing"

	"cmfuzz/internal/dist"
	"cmfuzz/internal/subject"
)

// affinityPool builds a pool of n pipe-backed workers with distinct
// names (w0, w1, ...), so tests can tell worker sets apart.
func affinityPool(t *testing.T, n int) *dist.Pool {
	t.Helper()
	pool := dist.NewPool(dist.Config{HeartbeatInterval: -1})
	for i := 0; i < n; i++ {
		cConn, wConn := net.Pipe()
		w := dist.NewWorker(dist.WorkerConfig{Name: "w" + string(rune('0'+i))})
		go w.Serve(wConn)
		if err := pool.AddConn(cConn); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cConn.Close(); wConn.Close() })
	}
	return pool
}

// TestReleaseRecordsAffinity pins the scheduler-side affinity glue:
// releasing a partition remembers its member names, and the re-grant
// path (AcquirePreferring with those names, exactly what Manager.Step
// issues) lands the campaign back on its previous worker set when
// those workers are free — even when the plain attach-order choice
// would have picked different ones.
func TestReleaseRecordsAffinity(t *testing.T) {
	pool := affinityPool(t, 4)
	defer pool.Close()
	m, err := NewManager(Config{StateDir: t.TempDir()}, pool,
		func(string) (subject.Subject, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(CampaignSpec{ID: "c1", Subject: "x", Hours: 1}); err != nil {
		t.Fatal(err)
	}
	c := m.campaigns["c1"]

	// With w0/w1 held elsewhere, c1's first grant is w2/w3 — a set the
	// plain attach-order acquisition would never choose once w0/w1
	// free up again.
	interloper := pool.AcquirePreferring(2, nil)
	c.part = pool.AcquirePreferring(2, nil)
	if got := c.part.Names(); !reflect.DeepEqual(got, []string{"w2", "w3"}) {
		t.Fatalf("initial grant = %v, want [w2 w3]", got)
	}

	m.releasePartition(c)
	if !reflect.DeepEqual(c.prevWorkers, []string{"w2", "w3"}) {
		t.Fatalf("prevWorkers after release = %v, want [w2 w3]", c.prevWorkers)
	}
	if c.part != nil || c.workers != 0 {
		t.Fatalf("release left part=%v workers=%d", c.part, c.workers)
	}

	// w0/w1 are free again and ahead in attach order, but the re-grant
	// prefers the remembered set.
	interloper.Release()
	c.part = pool.AcquirePreferring(2, c.prevWorkers)
	if got := c.part.Names(); !reflect.DeepEqual(got, []string{"w2", "w3"}) {
		t.Fatalf("re-grant = %v, want previous set [w2 w3]", got)
	}
	m.releasePartition(c)
}
