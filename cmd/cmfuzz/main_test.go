package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cmfuzz/internal/parallel"
	"cmfuzz/internal/protocols"
	"cmfuzz/internal/spec"
)

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// TestFuzzEventsImpliesTelemetry is the flag-interplay regression test:
// -events alone (no -telemetry) must still stand up the recorder and
// write the JSONL file, rather than silently exporting nothing.
func TestFuzzEventsImpliesTelemetry(t *testing.T) {
	events := filepath.Join(t.TempDir(), "events.jsonl")
	out, err := captureStdout(t, func() error {
		return cmdFuzz([]string{"-subject", "DNS", "-mode", "peach", "-hours", "0.05", "-events", events})
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(events)
	if err != nil {
		t.Fatalf("-events without -telemetry wrote no file: %v", err)
	}
	if len(data) == 0 {
		t.Fatal("events file empty")
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("events line not JSON: %v: %q", err, line)
		}
	}
	if !strings.Contains(out, events) {
		t.Fatalf("output does not announce the events file:\n%s", out)
	}
	// Without -telemetry the timeline must NOT print.
	if strings.Contains(out, "timeline") {
		t.Fatalf("-events alone printed the timeline:\n%s", out)
	}
}

// TestFuzzTraceExportsChromeJSON pins the -trace flag end to end: the
// exported file must be trace_event JSON with the campaign's spans.
func TestFuzzTraceExportsChromeJSON(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	out, err := captureStdout(t, func() error {
		return cmdFuzz([]string{"-subject", "DNS", "-hours", "0.05", "-trace", tracePath})
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace not JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"fuzz", "relation.quantify", "probe.execute", "schedule.allocate", "instance"} {
		if !names[want] {
			t.Fatalf("trace missing span %q; have %v", want, names)
		}
	}
	if !strings.Contains(out, "Perfetto") && !strings.Contains(out, "perfetto") {
		t.Fatalf("output does not mention the trace viewer:\n%s", out)
	}
}

// TestFuzzMonitorFlag starts the fuzz subcommand with -monitor on an
// ephemeral port and asserts it announces the listener and shuts down
// cleanly (the CI smoke job exercises live scrapes).
func TestFuzzMonitorFlag(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return cmdFuzz([]string{"-subject", "DNS", "-mode", "peach", "-hours", "0.05", "-monitor", "127.0.0.1:0"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "monitor listening on http://127.0.0.1:") {
		t.Fatalf("monitor address not announced:\n%s", out)
	}
}

// TestFuzzMonitorBadAddrErrors pins the clear-error half of the flag
// interplay: an unbindable -monitor address must fail up front, not
// silently fuzz unmonitored.
func TestFuzzMonitorBadAddrErrors(t *testing.T) {
	_, err := captureStdout(t, func() error {
		return cmdFuzz([]string{"-subject", "DNS", "-hours", "0.05", "-monitor", "256.256.256.256:99999"})
	})
	if err == nil || !strings.Contains(err.Error(), "monitor") {
		t.Fatalf("bad -monitor addr did not error clearly: %v", err)
	}
}

// TestPromlint covers the promlint subcommand both ways: a clean
// exposition passes, and garbage and a name the conventions reject fail.
func TestPromlint(t *testing.T) {
	good := filepath.Join(t.TempDir(), "good.prom")
	os.WriteFile(good, []byte("# HELP up Scrape success.\n# TYPE up gauge\nup 1\n"), 0o644)
	out, err := captureStdout(t, func() error { return cmdPromlint([]string{good}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "OK") || !strings.Contains(out, "1 families, 1 samples") {
		t.Fatalf("promlint output = %q", out)
	}
	bad := filepath.Join(t.TempDir(), "bad.prom")
	os.WriteFile(bad, []byte("not a metric line at all {{{\n"), 0o644)
	if _, err := captureStdout(t, func() error { return cmdPromlint([]string{bad}) }); err == nil {
		t.Fatal("promlint accepted garbage")
	}
	misnamed := filepath.Join(t.TempDir(), "misnamed.prom")
	os.WriteFile(misnamed, []byte("# HELP reqs Requests.\n# TYPE reqs counter\nreqs 1\n"), 0o644)
	if _, err := captureStdout(t, func() error { return cmdPromlint([]string{misnamed}) }); err == nil {
		t.Fatal("promlint accepted a counter without _total")
	}
}

// TestCampaignOutImpliesTelemetry pins the campaign-side implication:
// -out alone must produce events.jsonl and timeline.txt.
func TestCampaignOutImpliesTelemetry(t *testing.T) {
	dir := t.TempDir()
	_, err := captureStdout(t, func() error {
		return cmdCampaign([]string{"-subject", "DNS", "-hours", "0.05", "-reps", "1", "-n", "2", "-out", dir})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"events.jsonl", "timeline.txt"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("-out did not produce %s: %v", f, err)
		}
	}
}

// TestFuzzAndCoordinatorDescribeTheSameCampaign: `coordinator` takes
// `fuzz`'s whole command line — every campaign, session and run flag,
// the ablation and link ones it used to lack included — and both parse
// it into the same spec.
func TestFuzzAndCoordinatorDescribeTheSameCampaign(t *testing.T) {
	argv := []string{"-subject", "CoAP", "-mode", "spfuzz", "-hours", "0.5", "-seed", "9", "-n", "3",
		"-no-config-mutation", "-sat-window", "90", "-sat-min-gain", "3",
		"-link-loss", "0.1", "-link-latency", "0.25", "-link-jitter", "0.5",
		"-target-addr", "127.0.0.1:9", "-target-rate", "50",
		"-j", "2", "-out", "d", "-telemetry", "-events", "e.jsonl", "-trace", "t.json", "-monitor", "127.0.0.1:0"}
	ffs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
	fuzz := bindRun(ffs, "run")
	cfs := flag.NewFlagSet("coordinator", flag.ContinueOnError)
	coord, _, _ := coordinatorFlags(cfs)
	coord.sess.RootSpan = "run"
	if err := ffs.Parse(argv); err != nil {
		t.Fatal(err)
	}
	if err := cfs.Parse(argv); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fuzz, coord) {
		t.Fatalf("fuzz parsed %+v\ncoordinator parsed %+v", fuzz, coord)
	}
	if !fuzz.spec.NoConfigMutation || fuzz.spec.LinkJitter != 0.5 || fuzz.spec.Live == nil || fuzz.jobs != 2 || fuzz.sess.TracePath != "t.json" {
		t.Fatalf("argv did not reach the spec: %+v", fuzz)
	}
}

// TestOutOfRangeFlagsAreErrors: command lines that used to die with
// `makeslice: len out of range` return an error naming the value.
func TestOutOfRangeFlagsAreErrors(t *testing.T) {
	for _, tc := range []struct {
		cmd    func([]string) error
		args   []string
		reason string
	}{
		{cmdFuzz, []string{"-subject", "DNS", "-n", "-1"}, "instances -1"},
		{cmdFuzz, []string{"-subject", "DNS", "-hours", "1e308"}, "hours 1e+308"},
		{cmdFuzz, []string{"-subject", "DNS", "-mode", "afl"}, `unknown mode "afl"`},
		{cmdCoordinator, []string{"-subject", "DNS", "-n", "70000"}, "instances 70000"},
		{cmdCampaign, []string{"-subject", "DNS", "-hours", "0.05", "-reps", "-1"}, "repetitions -1"},
		{cmdCampaign, []string{"-subject", "DNS", "-hours", "0.05", "-n", "-1"}, "instances -1"},
	} {
		_, err := captureStdout(t, func() error { return tc.cmd(tc.args) })
		if err == nil || !strings.Contains(err.Error(), tc.reason) {
			t.Errorf("%v: err = %v, want one naming %q", tc.args, err, tc.reason)
		}
	}
}

// TestStagesHonourCampaignFlags: relate and schedule plan with the
// planner every campaign uses, so the groups schedule prints are the
// groups fuzz runs under the same flags, and relate refuses a mode that
// plans no relations.
func TestStagesHonourCampaignFlags(t *testing.T) {
	for _, flags := range [][]string{{}, {"-n", "3"}, {"-n", "2", "-seed", "5"}} {
		args := append([]string{"-subject", "DNS", "-hours", "0.01"}, flags...)
		out, err := captureStdout(t, func() error { return cmdSchedule(args) })
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, line := range strings.Split(out, "\n") {
			if m, ok := strings.CutPrefix(line, "  instance "); ok {
				got = append(got, m)
			}
		}
		fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
		var c spec.Campaign
		c.Bind(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		opts, err := c.Options()
		if err != nil {
			t.Fatal(err)
		}
		sub, err := c.Target(protocols.ByName)
		if err != nil {
			t.Fatal(err)
		}
		res, err := parallel.Run(context.Background(), sub, opts)
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for i, g := range res.Groups {
			want = append(want, fmt.Sprintf("%d: %s", i, strings.Join(g.Members, ", ")))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: schedule printed %q, fuzz ran %q", flags, got, want)
		}
	}
	if _, err := captureStdout(t, func() error { return cmdRelate([]string{"-subject", "DNS", "-mode", "peach"}) }); err == nil {
		t.Fatal("relate planned relations for Peach")
	}
}
