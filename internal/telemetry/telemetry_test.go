package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNilRecorderIsNoOp pins the nil-safety contract every emit site in
// the runner relies on.
func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder claims to be enabled")
	}
	r.Emit(Event{Type: EvBoot})
	r.Count(CtrSyncs, 3)
	r.Merge(New())
	if r.Events() != nil || r.Counters() != nil {
		t.Fatal("nil recorder retained data")
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil WriteJSONL wrote %q, err %v", buf.String(), err)
	}
	if r.Timeline(40) != "" {
		t.Fatal("nil Timeline produced output")
	}
	r.Publish(RunStatus{Mode: "CMFuzz"})
	if r.Board() != nil || r.Child("x") != nil {
		t.Fatal("nil recorder has a board or a child")
	}
}

// TestJSONLGolden pins the exact JSONL wire format: field order, omitted
// empties, one object per line. Changing the format breaks downstream
// consumers, so this is a byte-for-byte golden.
func TestJSONLGolden(t *testing.T) {
	r := New().Child("CMFuzz/rep0")
	r.Emit(Event{T: 0, Type: EvBoot, Instance: 0, Config: "bridge=true", Edges: 120})
	r.Emit(Event{T: 0, Type: EvGroup, Instance: 0, Group: []string{"bridge", "bridge-address"}})
	r.Emit(Event{T: 610.5, Type: EvSync, Instance: 1, Seeds: 12, Skipped: 2})
	r.Emit(Event{T: 1800, Type: EvSaturation, Instance: 0, Edges: 450})
	r.Emit(Event{T: 1800, Type: EvMutation, Instance: 0, Entity: "max_inflight", Value: "0"})
	r.Emit(Event{T: 2000, Type: EvCrash, Instance: 2, Crash: "MQTT/heap-buffer-overflow/f", New: true})

	want := strings.Join([]string{
		`{"t":0,"type":"boot","run":"CMFuzz/rep0","instance":0,"config":"bridge=true","edges":120}`,
		`{"t":0,"type":"group","run":"CMFuzz/rep0","instance":0,"group":["bridge","bridge-address"]}`,
		`{"t":610.5,"type":"sync","run":"CMFuzz/rep0","instance":1,"skipped":2,"seeds":12}`,
		`{"t":1800,"type":"saturation","run":"CMFuzz/rep0","instance":0,"edges":450}`,
		`{"t":1800,"type":"mutation","run":"CMFuzz/rep0","instance":0,"entity":"max_inflight","value":"0"}`,
		`{"t":2000,"type":"crash","run":"CMFuzz/rep0","instance":2,"crash":"MQTT/heap-buffer-overflow/f","new":true}`,
	}, "\n") + "\n"

	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != want {
		t.Fatalf("JSONL drifted from golden:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Round trip.
	evs, err := parseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	_ = evs
	evs, err = parseJSONL(strings.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 6 || evs[2].Skipped != 2 || evs[5].Crash == "" || !evs[5].New {
		t.Fatalf("round trip lost data: %+v", evs)
	}
}

func TestExportJSONLFile(t *testing.T) {
	r := New()
	r.Emit(Event{T: 1, Type: EvSample, Instance: 0, Edges: 10})
	path := filepath.Join(t.TempDir(), "ev.jsonl")
	if err := r.ExportJSONL(path); err != nil {
		t.Fatal(err)
	}
	evs, err := parseFile(t, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Type != EvSample {
		t.Fatalf("export round trip: %+v", evs)
	}
}

func parseFile(t *testing.T, path string) ([]Event, error) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseJSONL(bytes.NewReader(raw))
}

func TestCountersAndMerge(t *testing.T) {
	a := New().Child("a")
	a.Count(CtrSyncs, 2)
	a.Emit(Event{T: 1, Type: EvSync, Instance: 0})
	b := New().Child("b")
	b.Count(CtrSyncs, 3)
	b.Count(CtrMutations, 1)
	b.Emit(Event{T: 2, Type: EvMutation, Instance: 1})

	a.Merge(b)
	c := a.Counters()
	if c[CtrSyncs] != 5 || c[CtrMutations] != 1 {
		t.Fatalf("merged counters: %v", c)
	}
	evs := a.Events()
	if len(evs) != 2 || evs[0].Run != "a" || evs[1].Run != "b" {
		t.Fatalf("merged events out of order or unlabeled: %+v", evs)
	}
	if got := c.String(); got != "config_mutations=1 syncs=5" {
		t.Fatalf("counters render: %q", got)
	}
}

func TestTimelineRendersPerInstance(t *testing.T) {
	r := New()
	r.Emit(Event{T: 0, Type: EvBoot, Instance: 0})
	r.Emit(Event{T: 3600, Type: EvSync, Instance: 0})
	r.Emit(Event{T: 7200, Type: EvMutation, Instance: 1})
	r.Emit(Event{T: 7200, Type: EvCampaign, Instance: -1}) // no strip
	r.Count(CtrSyncs, 1)
	out := r.Timeline(40)
	for _, want := range []string{"inst 0", "inst 1", "1 syncs", "1 mutations", "B", "M", "counters: syncs=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "inst -1") {
		t.Fatalf("campaign-level event got a strip:\n%s", out)
	}
}

// parseJSONL decodes a JSONL event stream produced by WriteJSONL.
func parseJSONL(rd io.Reader) ([]Event, error) {
	dec := json.NewDecoder(rd)
	var out []Event
	for {
		var ev Event
		if err := dec.Decode(&ev); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
}
