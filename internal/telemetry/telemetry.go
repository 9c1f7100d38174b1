// Package telemetry is the campaign observability layer: a
// zero-dependency, virtual-clock-aware structured event log plus a
// counter registry. Every scheduling decision the parallel runner makes
// — group allocation, seed synchronization, coverage sampling,
// saturation detection, configuration mutation, restart fallback, crash
// deduplication, probe-matrix statistics — is emitted as a typed Event
// so campaigns can be tuned and debugged from their event stream instead
// of from their final aggregates.
//
// The package is built around a nil-safe Recorder: a nil *Recorder is
// the default no-op sink, every method on it is a cheap early return,
// and components accept it unconditionally. With telemetry off the hot
// path pays one nil check per event site and campaign results stay
// byte-identical to an uninstrumented run (the parallel package's
// TestNilTelemetryByteIdentical pins this).
//
// Events carry the emitting campaign's virtual time, never wall time, so
// an exported stream is deterministic for a fixed seed: replaying a
// campaign replays its event log byte for byte. Export formats are JSONL
// (one event object per line, append-friendly, `jq`-able) and a compact
// per-instance ASCII timeline for terminal triage.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
)

// Type tags one event with its place in the taxonomy.
type Type string

// The event taxonomy. Every type is emitted at a fixed site:
//
//	boot          instance (re)boot under a configuration (parallel)
//	group         cohesive-group assignment to an instance (parallel)
//	probe_stats   relation probe-matrix statistics (core/relation)
//	sync          one seed synchronization (parallel)
//	sample        one union-coverage sample (parallel)
//	saturation    a saturation-detector fire (parallel)
//	mutation      a configuration-value mutation, with the value chosen
//	restart_fail  a failed target restart during mutation
//	fallback      last-resort defaults fallback after a double failure
//	crash         a crash observation, with dedup outcome (parallel)
//	campaign      campaign-level marker (campaign)
const (
	EvBoot        Type = "boot"
	EvGroup       Type = "group"
	EvProbeStats  Type = "probe_stats"
	EvSync        Type = "sync"
	EvSample      Type = "sample"
	EvSaturation  Type = "saturation"
	EvMutation    Type = "mutation"
	EvRestartFail Type = "restart_fail"
	EvFallback    Type = "fallback"
	EvCrash       Type = "crash"
	EvCampaign    Type = "campaign"
)

// An Event is one structured observation. T is virtual campaign time in
// seconds; Instance is the emitting parallel instance (or -1 for
// campaign-level events). The remaining fields are populated per type
// and omitted from the JSONL encoding when empty.
type Event struct {
	T        float64  `json:"t"`
	Type     Type     `json:"type"`
	Run      string   `json:"run,omitempty"`      // campaign label (fuzzer/repetition)
	Instance int      `json:"instance"`           // -1 = campaign-level
	Entity   string   `json:"entity,omitempty"`   // configuration entity involved
	Value    string   `json:"value,omitempty"`    // configuration value chosen
	Config   string   `json:"config,omitempty"`   // canonical assignment rendering
	Group    []string `json:"group,omitempty"`    // cohesive-group members
	Edges    int      `json:"edges,omitempty"`    // branch count at the event
	Skipped  int      `json:"skipped,omitempty"`  // sync intervals skipped by a clock jump
	Seeds    int      `json:"seeds,omitempty"`    // seeds imported by a sync
	Requests int      `json:"requests,omitempty"` // probe requests in a batch
	Startups int      `json:"startups,omitempty"` // distinct assignments probed (actual boots)
	Hits     int      `json:"hits,omitempty"`     // duplicate probe requests folded into a startup
	Crash    string   `json:"crash,omitempty"`    // crash identity
	New      bool     `json:"new,omitempty"`      // crash was new to the ledger
	Detail   string   `json:"detail,omitempty"`
}

// Counters is the aggregate counter registry: name → count. The nil map
// is a valid empty registry.
type Counters map[string]int

// The counter names the runner maintains.
const (
	CtrBoots           = "boots"
	CtrSyncs           = "syncs"
	CtrSyncSkipped     = "sync_intervals_skipped"
	CtrSamples         = "coverage_samples"
	CtrSaturations     = "saturations"
	CtrMutations       = "config_mutations"
	CtrRestartFailures = "restart_failures"
	CtrFallbacks       = "defaults_fallbacks"
	CtrCrashes         = "crashes"
	CtrCrashesUnique   = "crashes_unique"
	CtrProbeStartups   = "probe_startups"
	CtrProbeCacheHits  = "probe_cache_hits"
	// A distributed campaign has no counters of its own: a worker's
	// death is replayed away, so its counter map is the in-process
	// campaign's whatever its workers do (dist.Observer reports the
	// deaths).
	// Live-target counters (internal/live): real-process restarts, rate
	// limiter engagements, and hang detections. Zero for simulation
	// subjects.
	CtrTargetRestarts    = "target_restarts"
	CtrTargetRateLimited = "target_rate_limited"
	CtrTargetHangs       = "target_hangs"
)

// counterHelp names every counter above with its exposition help
// string; Instrument publishes each as cmfuzz_<name>_total.
var counterHelp = map[string]string{
	CtrBoots:           "Target (re)boots, including mutation restarts.",
	CtrSyncs:           "Seed synchronizations performed.",
	CtrSyncSkipped:     "Sync intervals skipped by virtual-clock jumps.",
	CtrSamples:         "Union coverage samples recorded.",
	CtrSaturations:     "Coverage saturation detector fires.",
	CtrMutations:       "Configuration-value mutations applied.",
	CtrRestartFailures: "Failed target restarts during mutation.",
	CtrFallbacks:       "Last-resort defaults fallbacks.",
	CtrCrashes:         "Crash observations (pre-dedup).",
	CtrCrashesUnique:   "Unique crashes after dedup.",
	CtrProbeStartups:   "Startup probes executed, one per distinct assignment.",
	CtrProbeCacheHits:  "Duplicate probe requests folded into another's startup.",
	// Live-target safety-rail counters; zero for in-process simulation
	// subjects.
	CtrTargetRestarts:    "Live target process restarts (mutations, crashes, hangs).",
	CtrTargetRateLimited: "Sends delayed by the live-target rate limiter.",
	CtrTargetHangs:       "Live target hang detections (consecutive silent messages).",
}

// Clone returns an independent copy of c.
func (c Counters) Clone() Counters {
	if c == nil {
		return nil
	}
	out := make(Counters, len(c))
	for k, v := range c {
		out[k] = v
	}
	return out
}

// String renders the counters as sorted "name=count" pairs.
func (c Counters) String() string {
	names := make([]string, 0, len(c))
	for k := range c {
		names = append(names, k)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, k := range names {
		parts[i] = fmt.Sprintf("%s=%d", k, c[k])
	}
	return strings.Join(parts, " ")
}

// A Recorder collects events and counters. The nil *Recorder is the
// default no-op sink: every method is nil-safe, so callers thread a
// Recorder through unconditionally and pay only a nil check when
// telemetry is off. A non-nil Recorder is safe for concurrent use; the
// deterministic virtual-clock event loop emits from one goroutine, but
// concurrent probe batches and campaign repetitions may share one.
//
// A recorder also carries the live run board (Publish, Board), shared
// with its children.
type Recorder struct {
	mu       sync.Mutex
	run      string
	events   []Event
	counters Counters
	tap      func(Event)
	// children are the recorders Child made that Merge has not folded
	// in yet; counter reads add them. Merge replaces the slice rather
	// than editing it, so a reader may hold the old one unlocked.
	children []*Recorder
	board    *board
}

// New returns an empty enabled recorder.
func New() *Recorder { return &Recorder{counters: make(Counters), board: &board{}} }

// Child returns an enabled recorder for one campaign of a repetition
// matrix: it stamps run into every event it records and publishes on r's
// board. Until r merges it, r's counter reads (Counter, Counters) add
// its counts, so a scrape sees a running matrix's work; Merge then
// retires it, and nothing counts twice. Nil-safe: the child of a nil
// recorder is nil.
func (r *Recorder) Child(run string) *Recorder {
	if r == nil {
		return nil
	}
	c := &Recorder{run: run, counters: make(Counters), board: r.board}
	r.mu.Lock()
	r.children = append(r.children, c)
	r.mu.Unlock()
	return c
}

// Enabled reports whether events are actually collected.
func (r *Recorder) Enabled() bool { return r != nil }

// SetTap installs fn as a live observer of every subsequent Emit: the
// stamped event is passed to fn after it is recorded. One tap at a
// time; nil removes it. The tap is observation-only — it cannot alter
// the recorded stream — and runs outside the recorder lock, so it may
// itself emit or inspect the recorder. Nil-safe no-op when off.
func (r *Recorder) SetTap(fn func(Event)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.tap = fn
	r.mu.Unlock()
}

// Emit appends one event. Nil-safe no-op when the recorder is off.
func (r *Recorder) Emit(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if ev.Run == "" {
		ev.Run = r.run
	}
	r.events = append(r.events, ev)
	tap := r.tap
	r.mu.Unlock()
	if tap != nil {
		tap(ev)
	}
}

// Count adds delta to the named counter. Nil-safe no-op when off.
func (r *Recorder) Count(name string, delta int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Events returns a copy of the recorded events in emission order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Len returns the number of recorded events without copying them.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Counter returns one counter's value, its unmerged children's counts
// included, without copying the registry.
func (r *Recorder) Counter(name string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	n, children := r.counters[name], r.children
	r.mu.Unlock()
	for _, c := range children {
		n += c.Counter(name)
	}
	return n
}

// Counters returns a copy of the counter registry, its unmerged
// children's counts included (nil when off).
func (r *Recorder) Counters() Counters {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out, children := r.counters.Clone(), r.children
	r.mu.Unlock()
	for _, c := range children {
		for k, v := range c.Counters() {
			out[k] += v
		}
	}
	return out
}

// Merge appends o's events after r's, folds o's counters into r's and,
// when o is r's child, retires it. Merging children in a fixed order
// keeps a concurrent repetition matrix's export deterministic. Nil
// receivers and nil arguments are no-ops.
func (r *Recorder) Merge(o *Recorder) {
	if r == nil || o == nil {
		return
	}
	o.mu.Lock()
	events := append([]Event(nil), o.events...)
	counters := o.counters.Clone()
	o.mu.Unlock()
	r.mu.Lock()
	r.events = append(r.events, events...)
	for k, v := range counters {
		r.counters[k] += v
	}
	kept := make([]*Recorder, 0, len(r.children))
	for _, c := range r.children {
		if c != o {
			kept = append(kept, c)
		}
	}
	r.children = kept
	r.mu.Unlock()
}

// WriteJSONL streams the event log to w, one JSON object per line, in
// emission order. The encoding is deterministic: struct field order is
// fixed and empty fields are omitted.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, ev := range r.Events() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}

// ExportJSONL writes the event log to path (0644, truncating).
func (r *Recorder) ExportJSONL(path string) error {
	if r == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timeline glyphs, in increasing priority: when several events share one
// column the highest-priority glyph wins.
var glyphs = map[Type]struct {
	g    byte
	prio int
}{
	EvSample:      {'.', 1},
	EvSync:        {'s', 2},
	EvSaturation:  {'S', 3},
	EvMutation:    {'M', 4},
	EvRestartFail: {'F', 5},
	EvFallback:    {'F', 5},
	EvCrash:       {'X', 6},
	EvBoot:        {'B', 7},
}

// Timeline renders a per-instance ASCII summary of the event log: one
// strip per (run, instance), each column one bucket of virtual time,
// marked with the highest-priority event that fell into it
// (B boot, X crash, F restart failure/fallback, M mutation,
// S saturation, s sync, . sample), followed by that instance's headline
// counts. Width is the strip width in columns (min 10).
func (r *Recorder) Timeline(width int) string {
	if r == nil {
		return ""
	}
	if width < 10 {
		width = 10
	}
	events := r.Events()
	horizon := 0.0
	type key struct {
		run  string
		inst int
	}
	perInst := make(map[key][]Event)
	var order []key
	for _, ev := range events {
		if ev.T > horizon {
			horizon = ev.T
		}
		if ev.Instance < 0 {
			continue
		}
		k := key{ev.Run, ev.Instance}
		if _, ok := perInst[k]; !ok {
			order = append(order, k)
		}
		perInst[k] = append(perInst[k], ev)
	}
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].run != order[j].run {
			return order[i].run < order[j].run
		}
		return order[i].inst < order[j].inst
	})
	var b strings.Builder
	fmt.Fprintf(&b, "telemetry timeline: %.1f virtual hours, %d events, one column = %.2fh\n",
		horizon/3600, len(events), horizon/3600/float64(width))
	fmt.Fprintf(&b, "glyphs: B boot  X crash  F restart-fail  M mutation  S saturation  s sync  . sample\n")
	lastRun := "\x00"
	for _, k := range order {
		if k.run != lastRun {
			if k.run != "" {
				fmt.Fprintf(&b, "run %s:\n", k.run)
			}
			lastRun = k.run
		}
		strip := []byte(strings.Repeat(" ", width))
		prio := make([]int, width)
		syncs, muts, crashes := 0, 0, 0
		for _, ev := range perInst[k] {
			switch ev.Type {
			case EvSync:
				syncs++
			case EvMutation:
				muts++
			case EvCrash:
				crashes++
			}
			gl, ok := glyphs[ev.Type]
			if !ok {
				continue
			}
			col := 0
			if horizon > 0 {
				col = int(ev.T / horizon * float64(width-1))
			}
			if col >= 0 && col < width && gl.prio > prio[col] {
				strip[col] = gl.g
				prio[col] = gl.prio
			}
		}
		fmt.Fprintf(&b, "  inst %d |%s| %d syncs, %d mutations, %d crashes\n",
			k.inst, string(strip), syncs, muts, crashes)
	}
	if c := r.Counters(); len(c) > 0 {
		fmt.Fprintf(&b, "counters: %s\n", c.String())
	}
	return b.String()
}
