package telemetry

import "sync"

// RunStatus is the live state of one campaign run (one fuzzer ×
// repetition, or the single run of `cmfuzz fuzz`) as its event loop last
// published it.
type RunStatus struct {
	// Run is the campaign label ("CMFuzz/rep0"-style inside a repetition
	// matrix, the mode name for a single run).
	Run string `json:"run"`
	// Mode is the fuzzer name (CMFuzz, Peach, SPFuzz).
	Mode string `json:"mode"`
	// Subject is the implementation under fuzz.
	Subject string `json:"subject"`
	// VirtualSeconds is the campaign's current virtual time; Horizon is
	// where it will stop.
	VirtualSeconds float64 `json:"virtual_seconds"`
	HorizonSeconds float64 `json:"horizon_seconds"`
	// Edges is the union branch coverage across instances.
	Edges int `json:"edges"`
	// Execs sums protocol executions across instances.
	Execs int `json:"execs"`
	// Crashes counts crash observations (pre-dedup).
	Crashes int `json:"crashes"`
	// Done flips when the campaign finishes.
	Done bool `json:"done"`
	// Instances holds per-instance live state, indexed by instance.
	Instances []InstanceStatus `json:"instances"`
}

// InstanceStatus is the live state of one parallel fuzzing instance.
type InstanceStatus struct {
	Index int `json:"index"`
	// VirtualSeconds is the instance's own clock.
	VirtualSeconds float64 `json:"virtual_seconds"`
	// Edges is the instance's branch coverage.
	Edges int `json:"edges"`
	// Execs counts the instance's protocol executions.
	Execs int `json:"execs"`
	// Crashes counts the instance's crash observations.
	Crashes int `json:"crashes"`
	// Mutations counts applied configuration mutations.
	Mutations int `json:"mutations"`
	// CorpusSeeds is the seed-queue depth.
	CorpusSeeds int `json:"corpus_seeds"`
	// Config is the canonical rendering of the running configuration.
	Config string `json:"config,omitempty"`
}

// board is the live side of the observability layer, shared by a
// recorder and its children: the latest published state of every run,
// in registration order. Unlike the event log it holds only the current
// state, so reading it is O(instances) however long the campaign has
// run, and campaign decisions never read from it.
type board struct {
	mu   sync.Mutex
	runs []RunStatus
}

// Publish posts st as its run's current state on the live board the
// recorder shares with its parent and children, replacing the run's
// previous entry or, for a run not seen before, registering it after
// the others (a repeated label replaces, so repeated seeds under one
// label stay coherent). An empty st.Run is the recorder's label, or
// st.Mode when the recorder has none. Nil-safe no-op when off.
func (r *Recorder) Publish(st RunStatus) {
	if r == nil {
		return
	}
	if st.Run == "" {
		st.Run = r.run
	}
	if st.Run == "" {
		st.Run = st.Mode
	}
	b := r.board
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := range b.runs {
		if b.runs[i].Run == st.Run {
			st.Instances = append(b.runs[i].Instances[:0], st.Instances...)
			b.runs[i] = st
			return
		}
	}
	st.Instances = append([]InstanceStatus(nil), st.Instances...)
	b.runs = append(b.runs, st)
}

// Board returns a deep copy of the live board: every published run in
// registration order, ready for JSON encoding. Nil when off.
func (r *Recorder) Board() []RunStatus {
	if r == nil {
		return nil
	}
	b := r.board
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]RunStatus, len(b.runs))
	for i, st := range b.runs {
		st.Instances = append([]InstanceStatus(nil), st.Instances...)
		out[i] = st
	}
	return out
}
