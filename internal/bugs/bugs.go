// Package bugs models the sanitizer findings CMFuzz reports. In the paper,
// crashes surface as AddressSanitizer reports from C targets; here the Go
// protocol subjects contain seeded, configuration-gated defects that panic
// with a typed *Crash value. The fuzzing monitor recovers the panic,
// classifies it, and deduplicates it exactly like an ASan triage pipeline
// dedups by (report kind, faulting function).
package bugs

import (
	"fmt"
	"sort"
	"sync"
)

// Kind is the sanitizer report category of a crash.
type Kind int

// The sanitizer categories that appear in the paper's Table II, plus
// AbnormalExit for live targets: an external server process that dies
// with a nonzero exit code (or a signal with no finer classification)
// has no sanitizer report, only an exit status and a stderr tail.
const (
	HeapUseAfterFree Kind = iota
	SEGV
	MemoryLeak
	AllocationSizeTooBig
	StackBufferOverflow
	HeapBufferOverflow
	AbnormalExit
)

var kindNames = [...]string{
	HeapUseAfterFree:     "heap-use-after-free",
	SEGV:                 "SEGV",
	MemoryLeak:           "memory leaks",
	AllocationSizeTooBig: "allocation-size-too-big",
	StackBufferOverflow:  "stack-buffer-overflow",
	HeapBufferOverflow:   "heap-buffer-overflow",
	AbnormalExit:         "abnormal-exit",
}

// String returns the ASan-style name of the kind.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// A Crash is one sanitizer finding: a defect of some Kind observed in
// Function of a Protocol implementation. Detail carries free-form context
// (the simulated fault address, the offending size, ...).
type Crash struct {
	Protocol string
	Kind     Kind
	Function string
	Detail   string
}

// Error makes *Crash usable as an error and as a panic payload.
func (c *Crash) Error() string {
	return fmt.Sprintf("%s: %s in %s (%s)", c.Protocol, c.Kind, c.Function, c.Detail)
}

// ID returns the deduplication key for the crash. Two crashes with the
// same ID are considered the same underlying bug.
func (c *Crash) ID() string {
	return c.Protocol + "/" + c.Kind.String() + "/" + c.Function
}

// Trigger simulates hitting a seeded defect: it panics with a *Crash that
// the fuzzing monitor is expected to recover.
func Trigger(protocol string, kind Kind, function, detail string) {
	panic(&Crash{Protocol: protocol, Kind: kind, Function: function, Detail: detail})
}

// Capture runs f and converts a *Crash panic into a returned crash.
// Other panics propagate: they indicate harness bugs, not subject bugs.
func Capture(f func()) (crash *Crash) {
	defer func() {
		if r := recover(); r != nil {
			c, ok := r.(*Crash)
			if !ok {
				panic(r)
			}
			crash = c
		}
	}()
	f()
	return nil
}

// A Report is a deduplicated crash with discovery metadata.
type Report struct {
	Crash    Crash
	Instance int     // parallel instance that found it
	Time     float64 // virtual seconds since campaign start
	Config   string  // rendered configuration active at discovery
	Count    int     // how many times the bug was hit in total
}

// A Ledger collects crashes during a campaign and deduplicates them by
// Crash.ID. It is safe for concurrent use by parallel instances.
type Ledger struct {
	mu      sync.Mutex
	reports map[string]*Report
}

// NewLedger returns an empty crash ledger.
func NewLedger() *Ledger {
	return &Ledger{reports: make(map[string]*Report)}
}

// Record files a crash observed by instance at virtual time t under the
// given rendered configuration. It reports whether the crash was new.
func (l *Ledger) Record(c *Crash, instance int, t float64, config string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := c.ID()
	if r, ok := l.reports[id]; ok {
		r.Count++
		return false
	}
	l.reports[id] = &Report{Crash: *c, Instance: instance, Time: t, Config: config, Count: 1}
	return true
}

// Unique returns the deduplicated reports ordered by discovery time, then
// by crash ID for determinism.
func (l *Ledger) Unique() []Report {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Report, 0, len(l.reports))
	for _, r := range l.reports {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time < out[j].Time
		}
		return out[i].Crash.ID() < out[j].Crash.ID()
	})
	return out
}

// Len returns the number of unique bugs recorded.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.reports)
}

// Merge folds all reports of o into l, keeping the earliest discovery of
// each bug.
func (l *Ledger) Merge(o *Ledger) {
	for _, r := range o.Unique() {
		l.mu.Lock()
		id := r.Crash.ID()
		if cur, ok := l.reports[id]; ok {
			cur.Count += r.Count
			if r.Time < cur.Time {
				cur.Time, cur.Instance, cur.Config = r.Time, r.Instance, r.Config
			}
		} else {
			rc := r
			l.reports[id] = &rc
		}
		l.mu.Unlock()
	}
}
