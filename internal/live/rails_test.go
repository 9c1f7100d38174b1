package live

import (
	"strings"
	"testing"
	"time"
)

// fakeClock drives a RateLimiter/KillSwitch deterministically: sleep
// advances the clock instead of blocking.
type fakeClock struct {
	t time.Time
}

func (f *fakeClock) now() time.Time        { return f.t }
func (f *fakeClock) sleep(d time.Duration) { f.t = f.t.Add(d) }

func TestRateLimiterNilAdmitsEverything(t *testing.T) {
	var rl *RateLimiter
	for i := 0; i < 100; i++ {
		if rl.Acquire(nil) {
			t.Fatal("nil limiter reported limiting")
		}
	}
	if NewRateLimiter(0, 5) != nil {
		t.Fatal("nonpositive rate should yield nil limiter")
	}
}

func TestRateLimiterBurstThenBlocks(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	rl := NewRateLimiter(10, 3) // 10/s, burst 3
	rl.now, rl.sleep = clk.now, clk.sleep

	for i := 0; i < 3; i++ {
		if rl.Acquire(nil) {
			t.Fatalf("burst acquisition %d should not block", i)
		}
	}
	start := clk.t
	if !rl.Acquire(nil) {
		t.Fatal("post-burst acquisition should report limiting")
	}
	if waited := clk.t.Sub(start); waited < 90*time.Millisecond || waited > 110*time.Millisecond {
		t.Fatalf("waited %s for one token at 10/s, want ~100ms", waited)
	}
}

func TestRateLimiterRefillsWhileIdle(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	rl := NewRateLimiter(10, 2)
	rl.now, rl.sleep = clk.now, clk.sleep

	rl.Acquire(nil)
	rl.Acquire(nil)
	clk.t = clk.t.Add(time.Second) // refill past burst; cap at 2
	if rl.Acquire(nil) || rl.Acquire(nil) {
		t.Fatal("idle refill should cover two free acquisitions")
	}
	if !rl.Acquire(nil) {
		t.Fatal("third acquisition should block: refill is capped at burst")
	}
}

func TestRateLimiterAbortsOnKillSwitch(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	rl := NewRateLimiter(1, 1)
	rl.now = clk.now
	ks := NewKillSwitch(Rails{MaxRestarts: 1, RestartWindow: 60})
	// sleep trips the switch without advancing the clock, so no token
	// ever accrues: only the abort path can end the wait.
	rl.sleep = func(d time.Duration) { ks.Trip("test") }
	rl.Acquire(ks) // drains the bucket
	done := make(chan bool, 1)
	go func() { done <- rl.Acquire(ks) }()
	select {
	case limited := <-done:
		if !limited {
			t.Fatal("aborted wait should still report limiting")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Acquire did not abort after kill switch tripped")
	}
}

func TestKillSwitchRestartStorm(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	var reasons []string
	ks := NewKillSwitch(Rails{MaxRestarts: 3, RestartWindow: 10})
	ks.SetOnTrip(func(r string) { reasons = append(reasons, r) })
	ks.now = clk.now

	// Three restarts spread outside the window: no storm.
	for i := 0; i < 3; i++ {
		ks.NoteRestart()
		clk.t = clk.t.Add(11 * time.Second)
	}
	if ks.Tripped() {
		t.Fatal("restarts outside the window must not trip")
	}
	// Four restarts inside one window: storm.
	for i := 0; i < 4; i++ {
		ks.NoteRestart()
		clk.t = clk.t.Add(time.Second)
	}
	if !ks.Tripped() {
		t.Fatal("storm did not trip the switch")
	}
	if !strings.Contains(ks.Reason(), "restart storm") {
		t.Fatalf("reason = %q", ks.Reason())
	}
	if len(reasons) != 1 {
		t.Fatalf("OnTrip ran %d times, want once", len(reasons))
	}
	// Trip is idempotent: further events change nothing.
	ks.Trip("other")
	ks.NoteRestart()
	if len(reasons) != 1 || !strings.Contains(ks.Reason(), "restart storm") {
		t.Fatal("trip was not idempotent")
	}
}

func TestKillSwitchHangLimit(t *testing.T) {
	ks := NewKillSwitch(Rails{MaxHangs: 2})
	ks.NoteHang()
	if ks.Tripped() {
		t.Fatal("tripped below hang limit")
	}
	ks.NoteHang()
	if !ks.Tripped() || !strings.Contains(ks.Reason(), "hang limit") {
		t.Fatalf("tripped=%v reason=%q", ks.Tripped(), ks.Reason())
	}
}

func TestKillSwitchDisabledRails(t *testing.T) {
	ks := NewKillSwitch(Rails{})
	for i := 0; i < 100; i++ {
		ks.NoteRestart()
		ks.NoteHang()
	}
	if ks.Tripped() {
		t.Fatal("zero rails must disable both trips")
	}
	var nilKS *KillSwitch
	nilKS.NoteRestart()
	nilKS.NoteHang()
	nilKS.Trip("x")
	if nilKS.Tripped() || nilKS.Reason() != "" {
		t.Fatal("nil kill switch must be inert")
	}
}
