// Package trace is the wall-clock half of the observability layer: a
// zero-dependency hierarchical span tracer for finding where real time
// goes inside a campaign — the probe matrix, group allocation, instance
// boots, the fuzzing loop — while the sibling event log (package
// telemetry) stays on the deterministic virtual clock.
//
// The design mirrors the telemetry recorder's nil-safety contract: a nil
// *Tracer is the default no-op sink, a nil *Span absorbs every method
// (including Child, which returns nil), so components thread spans
// through unconditionally and pay one nil check when tracing is off.
// Wall-clock timings never feed back into campaign decisions, so traced
// and untraced runs produce byte-identical deterministic artifacts.
//
// Spans form a tree: Tracer.Start opens a root, Span.Child opens a
// nested span, Span.End closes one. Concurrent children are legal —
// a child opened while a sibling is still running is placed on its own
// track so exports stay readable. Exports are the Chrome trace_event
// JSON format ("X" complete events, loadable in chrome://tracing or
// https://ui.perfetto.dev).
//
// The clock is injectable (NewWithClock) so tests assert on exact
// durations; the default is Go's monotonic clock via time.Since.
package trace

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// A Clock reports the elapsed monotonic time since the tracer was
// created. Injectable for tests; the default wraps time.Since.
type Clock func() time.Duration

// An Attr is one key/value annotation on a span. Values are rendered
// with %v into the export, so ints, strings and floats all work.
type Attr struct {
	Key   string
	Value any
}

// A records one attribute (shorthand used at call sites).
func A(key string, value any) Attr { return Attr{Key: key, Value: value} }

// A Record is one completed span: the shape that crosses process
// boundaries too. Workers drain their completed spans as Records, ship
// them over the wire, and the coordinator ingests them under a
// per-process lane so one Chrome trace shows every process on a single
// timeline. Process "" means the local (exporting) process.
type Record struct {
	Process string
	ID      int
	Parent  int // -1 for roots
	Track   int
	Name    string
	Start   time.Duration
	End     time.Duration
	Attrs   []Attr
}

// A Tracer collects spans. The nil *Tracer is the no-op sink. A non-nil
// Tracer is safe for concurrent use: campaign repetitions and probe
// workers open and close spans from many goroutines at once.
type Tracer struct {
	mu        sync.Mutex
	clock     Clock
	done      []Record // local spans, Process ""
	foreign   []Record // spans ingested from other processes
	nextID    int
	nextTrack int
	top       map[int]*Span // track -> innermost open span (nil = free)
	open      int
}

// New returns a tracer on the real monotonic clock.
func New() *Tracer {
	start := time.Now()
	return NewWithClock(func() time.Duration { return time.Since(start) })
}

// NewWithClock returns a tracer reading time from clock, which must be
// monotonically nondecreasing. Tests inject a hand-stepped clock to pin
// exact durations.
func NewWithClock(clock Clock) *Tracer {
	return &Tracer{clock: clock, top: make(map[int]*Span)}
}

// Now reads the tracer's clock: elapsed monotonic time since creation.
// A nil tracer reads 0. Used to timestamp regions measured outside the
// span stack (see Span.Complete) and to align foreign timelines.
func (t *Tracer) Now() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.clock()
}

// DrainRecords removes and returns every completed local span
// (completion order, Process ""). Still-open spans stay
// behind and are returned by a later drain once ended. This is the
// worker half of cross-process stitching: drain after each lease and
// ship the batch with the reply.
func (t *Tracer) DrainRecords() []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.done
	t.done = nil
	return out
}

// IngestForeign files completed spans from another process under its
// own lane. Each record's Start/End is shifted by offset (the receiver
// clock minus the sender clock, measured at ingest) so all processes
// share one timeline; negative starts clamp to 0 and End never drops
// below Start. Safe for concurrent use — every campaign sharing the
// tracer ingests from its own goroutine.
func (t *Tracer) IngestForeign(process string, offset time.Duration, recs []Record) {
	if t == nil || len(recs) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range recs {
		r.Process = process
		r.Start += offset
		r.End += offset
		if r.Start < 0 {
			r.Start = 0
		}
		if r.End < r.Start {
			r.End = r.Start
		}
		t.foreign = append(t.foreign, r)
	}
}

// Records snapshots every completed span: local spans in completion
// order (Process "") followed by foreign spans sorted by
// (process, id). The foreign sort restores a deterministic order even
// though replies arrive in whatever order the senders finish — a sender
// allocates span IDs in sequence, so for a deterministic workload the
// result is structurally reproducible run to run.
func (t *Tracer) Records() []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Record, 0, len(t.done)+len(t.foreign))
	out = append(out, t.done...)
	foreign := append([]Record(nil), t.foreign...)
	t.mu.Unlock()
	sort.SliceStable(foreign, func(i, j int) bool {
		if foreign[i].Process != foreign[j].Process {
			return foreign[i].Process < foreign[j].Process
		}
		return foreign[i].ID < foreign[j].ID
	})
	return append(out, foreign...)
}

// A Span is one open (or ended) region of wall-clock time. The nil
// *Span absorbs every method; Child on a nil span returns nil, so an
// untraced call tree costs one nil check per site.
type Span struct {
	t      *Tracer
	id     int
	parent int
	track  int
	name   string
	start  time.Duration

	mu      sync.Mutex
	attrs   []Attr
	ended   bool
	prevTop *Span // span below this one on its track's stack
}

// Start opens a root span on its own track.
func (t *Tracer) Start(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.startLocked(name, -1, nil, attrs)
}

// startLocked opens a span and pushes it onto its track's stack;
// t.mu must be held. A nil parent allocates a free track; a non-nil
// parent reuses the parent's track when the parent is that track's
// innermost open span (so the child nests by containment), and a free
// lane otherwise (a concurrent sibling is holding the parent's track).
func (t *Tracer) startLocked(name string, parentID int, parent *Span, attrs []Attr) *Span {
	track := -1
	if parent != nil && t.top[parent.track] == parent {
		track = parent.track
	} else {
		for cand := 0; cand < t.nextTrack; cand++ {
			if t.top[cand] == nil {
				track = cand
				break
			}
		}
		if track < 0 {
			track = t.nextTrack
			t.nextTrack++
		}
	}
	s := &Span{
		t:       t,
		id:      t.nextID,
		parent:  parentID,
		track:   track,
		name:    name,
		start:   t.clock(),
		attrs:   append([]Attr(nil), attrs...),
		prevTop: t.top[track],
	}
	t.nextID++
	t.top[track] = s
	t.open++
	return s
}

// Child opens a span nested under s. A child opened while a sibling is
// still running goes to its own track (concurrent lanes render side by
// side in the trace viewer); sequential children share the parent's
// track and nest by containment.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.startLocked(name, s.id, s, attrs)
}

// Tracer returns the tracer that owns s, or nil for a nil span. Lets
// components handed only a parent span reach the tracer for Now,
// DrainRecords and IngestForeign.
func (s *Span) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.t
}

// Complete files an already-measured region as a completed child of s
// without touching the track stacks: the record lands on s's track with
// the given start/end (tracer-clock durations, see Tracer.Now). Use it
// for regions whose extent was measured before a span could be opened —
// e.g. decoding the very request that carries the tracing flag.
func (s *Span) Complete(name string, start, end time.Duration, attrs ...Attr) {
	if s == nil {
		return
	}
	if end < start {
		end = start
	}
	t := s.t
	t.mu.Lock()
	t.done = append(t.done, Record{
		ID: t.nextID, Parent: s.id, Track: s.track,
		Name: name, Start: start, End: end,
		Attrs: append([]Attr(nil), attrs...),
	})
	t.nextID++
	t.mu.Unlock()
}

// Set appends one attribute to the span. Safe to call from the goroutine
// that owns the span at any time before End.
func (s *Span) Set(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// End closes the span and files it with the tracer. Ending a span twice
// is a no-op; ending nil is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.t
	end := t.clock()
	t.mu.Lock()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		t.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()
	t.done = append(t.done, Record{
		ID: s.id, Parent: s.parent, Track: s.track,
		Name: s.name, Start: s.start, End: end, Attrs: attrs,
	})
	// Pop the track stack, skipping any spans below that already ended
	// out of order (a parent ended before its child): the track becomes
	// free again once its last open span ends, never leaking a lane.
	if t.top[s.track] == s {
		p := s.prevTop
		for p != nil {
			p.mu.Lock()
			endedBelow := p.ended
			p.mu.Unlock()
			if !endedBelow {
				break
			}
			p = p.prevTop
		}
		t.top[s.track] = p
	}
	t.open--
	t.mu.Unlock()
}

// SpanCount returns how many spans have completed, local and foreign.
func (t *Tracer) SpanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.done) + len(t.foreign)
}

// chromeEvent is one trace_event entry (the "X" complete-event form).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeFile is the containing object; both chrome://tracing and
// Perfetto load {"traceEvents": [...]}.
type chromeFile struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
	Meta        string        `json:"otherData,omitempty"`
}

// WriteChromeTrace streams the completed spans — local and ingested
// foreign — as Chrome trace_event JSON. Load the output in
// chrome://tracing or https://ui.perfetto.dev. The local process is
// pid 1; each foreign process gets its own pid (sorted by name, from
// 2) with a process_name metadata event, so a stitched distributed
// trace renders one lane group per worker. Purely local traces stay a
// plain stream of "X" events with no metadata, exactly as before.
// Spans are sorted by start time so the export is stable for a fixed
// clock; still-open spans are not included.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return nil
	}
	recs := t.Records()
	sort.SliceStable(recs, func(i, j int) bool {
		if recs[i].Start != recs[j].Start {
			return recs[i].Start < recs[j].Start
		}
		if recs[i].Process != recs[j].Process {
			return recs[i].Process < recs[j].Process
		}
		return recs[i].ID < recs[j].ID
	})
	pidOf := map[string]int{"": 1}
	var procs []string
	for _, r := range recs {
		if _, ok := pidOf[r.Process]; !ok {
			pidOf[r.Process] = 0 // placeholder until sorted
			procs = append(procs, r.Process)
		}
	}
	sort.Strings(procs)
	for i, p := range procs {
		pidOf[p] = 2 + i
	}
	file := chromeFile{TraceEvents: make([]chromeEvent, 0, len(recs)), Meta: "cmfuzz wall-clock trace"}
	if len(procs) > 0 {
		// Name the lanes only when the trace is actually multi-process,
		// keeping single-process exports a pure X-event stream.
		file.TraceEvents = append(file.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: 1,
			Args: map[string]any{"name": "coordinator"},
		})
		for _, p := range procs {
			file.TraceEvents = append(file.TraceEvents, chromeEvent{
				Name: "process_name", Ph: "M", Pid: pidOf[p],
				Args: map[string]any{"name": p},
			})
		}
	}
	for _, r := range recs {
		ev := chromeEvent{
			Name: r.Name,
			Ph:   "X",
			Ts:   float64(r.Start) / float64(time.Microsecond),
			Dur:  float64(r.End-r.Start) / float64(time.Microsecond),
			Pid:  pidOf[r.Process],
			Tid:  r.Track,
		}
		if len(r.Attrs) > 0 {
			ev.Args = make(map[string]any, len(r.Attrs))
			for _, a := range r.Attrs {
				ev.Args[a.Key] = a.Value
			}
		}
		file.TraceEvents = append(file.TraceEvents, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(file)
}

// ExportChromeTrace writes the Chrome trace JSON to path (0644,
// truncating). Nil tracers write nothing.
func (t *Tracer) ExportChromeTrace(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
