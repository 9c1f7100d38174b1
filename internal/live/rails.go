package live

import (
	"fmt"
	"sync"
	"time"
)

// A RateLimiter is a wall-clock token bucket bounding outbound message
// rate. Unlike the virtual-clock machinery everywhere else in this
// repository, the limiter runs on real time: its whole purpose is to
// protect the real host and network the live target occupies.
//
// Acquire blocks until a token is available (or the kill switch trips).
// The limiter is shared by every parallel instance of one campaign, so
// Rate bounds the campaign's aggregate send rate, not each instance's.
type RateLimiter struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64 // bucket capacity
	tokens float64
	last   time.Time

	// now and sleep are injectable for tests.
	now   func() time.Time
	sleep func(time.Duration)
}

// NewRateLimiter returns a limiter admitting rate messages per second
// with the given burst capacity. A nonpositive rate returns nil, and a
// nil limiter admits everything (nil-safety mirrors the telemetry
// recorder convention).
func NewRateLimiter(rate float64, burst int) *RateLimiter {
	if rate <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	return &RateLimiter{
		rate:   rate,
		burst:  float64(burst),
		tokens: float64(burst),
		now:    time.Now,
		sleep:  time.Sleep,
	}
}

// Acquire takes one token, blocking while the bucket is empty. It
// reports whether it had to wait — the caller counts those toward
// cmfuzz_target_rate_limited_total. A tripped kill switch aborts the
// wait so a throttled campaign still shuts down promptly; ks may be
// nil.
func (rl *RateLimiter) Acquire(ks *KillSwitch) (limited bool) {
	if rl == nil {
		return false
	}
	for {
		rl.mu.Lock()
		t := rl.now()
		if !rl.last.IsZero() {
			rl.tokens += t.Sub(rl.last).Seconds() * rl.rate
			if rl.tokens > rl.burst {
				rl.tokens = rl.burst
			}
		}
		rl.last = t
		if rl.tokens >= 1 {
			rl.tokens--
			rl.mu.Unlock()
			return limited
		}
		// Sleep exactly long enough for one token to accrue.
		wait := time.Duration((1 - rl.tokens) / rl.rate * float64(time.Second))
		rl.mu.Unlock()
		if ks.Tripped() {
			return limited
		}
		limited = true
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		rl.sleep(wait)
	}
}

// A KillSwitch hard-stops a live campaign when it starts doing more
// harm than fuzzing: a restart storm (the target crash-loops faster
// than the storm window allows), too many hangs, or an explicit trip.
// Once tripped it stays tripped; the campaign driver wires OnTrip to
// the campaign context's cancel function, and every live instance goes
// inert (no sockets, no spawns) the moment Tripped reports true.
type KillSwitch struct {
	mu       sync.Mutex
	tripped  bool
	reason   string
	onTrip   func(reason string)
	restarts []time.Time // restart timestamps inside the storm window
	hangs    int

	maxRestarts int
	window      time.Duration
	maxHangs    int

	now func() time.Time
}

// NewKillSwitch builds a switch from the rails config, with no trip
// hook until SetOnTrip installs one.
func NewKillSwitch(r Rails) *KillSwitch {
	return &KillSwitch{
		maxRestarts: r.MaxRestarts,
		window:      time.Duration(r.RestartWindow * float64(time.Second)),
		maxHangs:    r.MaxHangs,
		now:         time.Now,
	}
}

// SetOnTrip installs the trip hook, which runs exactly once, from
// whichever call trips the switch — the campaign driver builds the
// subject first and wires the hook to the campaign context's cancel
// function later. Replaces any previous hook.
func (ks *KillSwitch) SetOnTrip(fn func(reason string)) {
	if ks == nil {
		return
	}
	ks.mu.Lock()
	ks.onTrip = fn
	ks.mu.Unlock()
}

// Tripped reports whether the switch has fired. Nil-safe.
func (ks *KillSwitch) Tripped() bool {
	if ks == nil {
		return false
	}
	ks.mu.Lock()
	defer ks.mu.Unlock()
	return ks.tripped
}

// Reason returns why the switch tripped ("" while armed). Nil-safe.
func (ks *KillSwitch) Reason() string {
	if ks == nil {
		return ""
	}
	ks.mu.Lock()
	defer ks.mu.Unlock()
	return ks.reason
}

// Trip fires the switch with the given reason. Idempotent: only the
// first call records a reason and runs the OnTrip hook.
func (ks *KillSwitch) Trip(reason string) {
	if ks == nil {
		return
	}
	ks.mu.Lock()
	if ks.tripped {
		ks.mu.Unlock()
		return
	}
	ks.tripped = true
	ks.reason = reason
	hook := ks.onTrip
	ks.mu.Unlock()
	if hook != nil {
		hook(reason)
	}
}

// NoteRestart records one process restart and trips the switch when
// more than maxRestarts land inside the storm window.
func (ks *KillSwitch) NoteRestart() {
	if ks == nil || ks.maxRestarts <= 0 {
		return
	}
	ks.mu.Lock()
	t := ks.now()
	cutoff := t.Add(-ks.window)
	kept := ks.restarts[:0]
	for _, r := range ks.restarts {
		if r.After(cutoff) {
			kept = append(kept, r)
		}
	}
	ks.restarts = append(kept, t)
	storm := len(ks.restarts) > ks.maxRestarts
	ks.mu.Unlock()
	if storm {
		ks.Trip(fmt.Sprintf("restart storm: more than %d target restarts in %s",
			ks.maxRestarts, ks.window))
	}
}

// NoteHang records one hang event and trips the switch at the limit.
func (ks *KillSwitch) NoteHang() {
	if ks == nil || ks.maxHangs <= 0 {
		return
	}
	ks.mu.Lock()
	ks.hangs++
	limit := ks.hangs >= ks.maxHangs
	ks.mu.Unlock()
	if limit {
		ks.Trip(fmt.Sprintf("hang limit: target hung %d times", ks.maxHangs))
	}
}
