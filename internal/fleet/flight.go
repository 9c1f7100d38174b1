package fleet

import (
	"encoding/json"
	"path/filepath"
	"sync"
	"time"

	"cmfuzz/internal/campaign"
)

// flightCap bounds each campaign's flight recorder: enough recent
// history to reconstruct what a campaign was doing when something went
// wrong, small enough to hold for every campaign forever.
const flightCap = 256

// A FlightEntry is one flight-recorder event. Kind is the entry class
// ("telemetry", "lease", "award", "worker_death", "failed"); Detail is
// kind-specific and JSON-serializable.
type FlightEntry struct {
	Wall   time.Time `json:"wall"`
	Kind   string    `json:"kind"`
	Detail any       `json:"detail,omitempty"`
}

// flightRing is a bounded ring of the campaign's most recent flight
// entries. Writers come from the scheduler goroutine (telemetry tap,
// bandit awards) and from the goroutines advancing slices (lease summaries,
// worker deaths), so every access locks.
type flightRing struct {
	mu    sync.Mutex
	buf   []FlightEntry
	next  int   // overwrite position once the ring is full
	total int64 // lifetime count, monotone past evictions
}

func newFlightRing() *flightRing { return &flightRing{} }

func (f *flightRing) add(kind string, detail any) {
	if f == nil {
		return
	}
	e := FlightEntry{Wall: time.Now().UTC(), Kind: kind, Detail: detail}
	f.mu.Lock()
	if len(f.buf) < flightCap {
		f.buf = append(f.buf, e)
	} else {
		f.buf[f.next] = e
		f.next = (f.next + 1) % flightCap
	}
	f.total++
	f.mu.Unlock()
}

// snapshot returns the retained entries oldest-first plus the lifetime
// count.
func (f *flightRing) snapshot() ([]FlightEntry, int64) {
	if f == nil {
		return nil, 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightEntry, 0, len(f.buf))
	out = append(out, f.buf[f.next:]...)
	out = append(out, f.buf[:f.next]...)
	return out, f.total
}

func (f *flightRing) count() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}

// flightDoc is the triage.json / /api/flight document shape.
type flightDoc struct {
	ID     string        `json:"id"`
	Reason string        `json:"reason,omitempty"`
	Wall   time.Time     `json:"wall"`
	Total  int64         `json:"total"`
	Events []FlightEntry `json:"events"`
}

// Flight snapshots a campaign's flight recorder for the live API.
func (m *Manager) Flight(id string) (flightDoc, bool) {
	m.mu.Lock()
	c, ok := m.campaigns[id]
	m.mu.Unlock()
	if !ok {
		return flightDoc{}, false
	}
	events, total := c.flight.snapshot()
	return flightDoc{ID: id, Wall: time.Now().UTC(), Total: total, Events: events}, true
}

// dumpFlight writes the ring atomically as triage.json in the campaign
// state dir — next to spec.json, deliberately OUTSIDE artifacts/, so
// the byte-identity artifact diffs never see it. Called on worker
// death and campaign failure; best-effort (a failed dump must not take
// the scheduler down with it).
func (m *Manager) dumpFlight(c *campaignRec, reason string) {
	events, total := c.flight.snapshot()
	doc := flightDoc{ID: c.spec.ID, Reason: reason, Wall: time.Now().UTC(), Total: total, Events: events}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return
	}
	campaign.WriteFileAtomic(filepath.Join(m.dir(c.spec.ID), "triage.json"), raw, 0o644)
}
