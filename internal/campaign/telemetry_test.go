package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cmfuzz/internal/protocols"
	"cmfuzz/internal/spec"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/telemetry"
)

func telSubject(t *testing.T, name string) subject.Subject {
	t.Helper()
	sub, err := protocols.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

// TestRunSubjectTelemetryConcurrencyInvariant asserts the merged event
// stream of a full fuzzer × repetition matrix is byte-identical whether
// the campaigns run sequentially or concurrently: children record in
// isolation and merge in fixed (fuzzer, repetition) order.
func TestRunSubjectTelemetryConcurrencyInvariant(t *testing.T) {
	stream := func(workers int) []byte {
		rec := telemetry.New()
		cfg := Config{Spec: spec.Campaign{Hours: 0.5}, Repetitions: 2, Concurrency: workers, Telemetry: rec}
		if _, err := RunSubject(context.Background(), telSubject(t, "CoAP"), cfg); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rec.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq, par := stream(1), stream(4)
	if len(seq) == 0 {
		t.Fatal("empty event stream")
	}
	if !bytes.Equal(seq, par) {
		t.Fatal("merged telemetry differs between Concurrency=1 and Concurrency=4")
	}
}

// TestWriteTelemetry checks the dropped artifacts: events.jsonl must
// round-trip through the parser and timeline.txt must mention every
// campaign run label.
func TestWriteTelemetry(t *testing.T) {
	rec := telemetry.New()
	cfg := Config{Spec: spec.Campaign{Hours: 0.5}, Repetitions: 1, Telemetry: rec}
	if _, err := RunSubject(context.Background(), telSubject(t, "DNS"), cfg); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteTelemetry(dir, rec); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var events []telemetry.Event
	for dec := json.NewDecoder(bytes.NewReader(raw)); dec.More(); {
		var ev telemetry.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	if len(events) != len(rec.Events()) {
		t.Fatalf("parsed %d events, recorder has %d", len(events), len(rec.Events()))
	}
	tl, err := os.ReadFile(filepath.Join(dir, "timeline.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []string{"CMFuzz/rep0", "Peach/rep0", "SPFuzz/rep0"} {
		if !strings.Contains(string(tl), run) {
			t.Fatalf("timeline missing run %q:\n%s", run, tl)
		}
	}

	// A nil recorder must write nothing at all.
	empty := t.TempDir()
	if err := WriteTelemetry(empty, nil); err != nil {
		t.Fatal(err)
	}
	if entries, _ := os.ReadDir(empty); len(entries) != 0 {
		t.Fatal("nil recorder wrote artifacts")
	}
}

// TestEvaluateOnce: the three views of the evaluation come from one
// run of the matrix — 3 fuzzers × 2 repetitions on one subject is six
// campaigns, where Table1, Figure4 and Table2 each running their own
// made eighteen — and they carry the numbers they always did: the
// table1/figure4/table2 members of the JSON export are byte-identical
// to what the previous commit's `cmbench -table1 -fig4 -table2 -hours 1
// -reps 2 -subject dns -json` printed.
func TestEvaluateOnce(t *testing.T) {
	rec := telemetry.New()
	cfg := Config{Spec: spec.Campaign{Hours: 1, Instances: 4}, Repetitions: 2, Telemetry: rec}
	results, err := Evaluate(context.Background(), []subject.Subject{telSubject(t, "dns")}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	campaigns := 0
	for _, ev := range rec.Events() {
		if ev.Type == telemetry.EvCampaign {
			campaigns++
		}
	}
	if campaigns != 6 {
		t.Fatalf("%d campaign events, want 6", campaigns)
	}

	export := &Export{Config: cfg, Table1: Table1(results), Table2: NewTable2Export(Table2(results))}
	for _, r := range results {
		export.Figure4 = append(export.Figure4, *Figure4(r, 64))
	}
	raw, err := export.JSON()
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "parent_cmbench_dns_1h_2reps.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got, want map[string]json.RawMessage
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(golden, &want); err != nil {
		t.Fatal(err)
	}
	for _, member := range []string{"table1", "figure4", "table2"} {
		if !bytes.Equal(got[member], want[member]) {
			t.Errorf("%s differs from the previous commit's export:\n%s\nwant\n%s", member, got[member], want[member])
		}
	}
	// The config block is the template and the repetition count, not a
	// dump of the run's sinks.
	var config struct {
		Spec        spec.Campaign `json:"spec"`
		Repetitions int           `json:"repetitions"`
	}
	if err := json.Unmarshal(got["config"], &config); err != nil || config.Spec != cfg.Spec || config.Repetitions != 2 {
		t.Fatalf("config block %s (err %v)", got["config"], err)
	}
	if strings.Contains(string(got["config"]), "Telemetry") {
		t.Fatalf("config block leaks the sinks: %s", got["config"])
	}
}

// TestAblationsConcurrencyInvariant: the ablation variants run through
// the same bounded batch runner as the matrix, so their rows and their
// merged event stream are identical at any -j.
func TestAblationsConcurrencyInvariant(t *testing.T) {
	run := func(workers int) ([]AblationRow, []byte) {
		rec := telemetry.New()
		cfg := Config{Spec: spec.Campaign{Hours: 0.25, Instances: 2}, Repetitions: 2, Concurrency: workers, Telemetry: rec}
		rows, err := Ablations(context.Background(), []subject.Subject{telSubject(t, "DNS")}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rec.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return rows, buf.Bytes()
	}
	seqRows, seqEvents := run(1)
	parRows, parEvents := run(4)
	if len(seqRows) != len(ablationVariants) || !reflect.DeepEqual(seqRows, parRows) {
		t.Fatalf("rows differ between Concurrency=1 and Concurrency=4:\n%+v\n%+v", seqRows, parRows)
	}
	if !bytes.Equal(seqEvents, parEvents) {
		t.Fatal("merged telemetry differs between Concurrency=1 and Concurrency=4")
	}
}
