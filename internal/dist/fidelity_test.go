package dist_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cmfuzz/internal/dist"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/protocols"
)

var update = flag.Bool("update", false, "rewrite testdata/fidelity.json from this build")

// modeFigures are the numbers the paper's tables are built from, for one
// (subject, fuzzer) campaign.
type modeFigures struct {
	FinalBranches int        `json:"final_branches"`
	TotalExecs    int        `json:"total_execs"`
	Bugs          []string   `json:"bugs"`
	Groups        [][]string `json:"groups,omitempty"` // Algorithm 2's allocation (CMFuzz only)
}

func figuresOf(res *parallel.Result) modeFigures {
	f := modeFigures{FinalBranches: res.FinalBranches, TotalExecs: res.TotalExecs, Bugs: []string{}}
	for _, rep := range res.Bugs.Unique() {
		f.Bugs = append(f.Bugs, rep.Crash.ID())
	}
	for _, g := range res.Groups {
		f.Groups = append(f.Groups, g.Members)
	}
	return f
}

// TestFidelityGolden pins the science as exact numbers: for every
// subject and every fuzzer of Table I, the final branch count, the exec
// total and the unique bugs of a short fixed-seed campaign, plus the
// configuration groups Algorithm 2 allocates for CMFuzz. The inequality
// tests (TestHeadlineClaim, TestAblationsCohesiveWins) say CMFuzz wins;
// this says nothing moved. Each campaign runs in-process and through a
// two-worker coordinator, and both must equal the golden.
//
// The "+link" rows rerun CMFuzz and Peach over an impaired link (loss,
// base latency and jitter), so a loss or latency draw that moves, or a
// change in how the clock spends latency, moves their numbers.
func TestFidelityGolden(t *testing.T) {
	type fidelityCase struct {
		key  string
		opts parallel.Options
	}
	var cases []fidelityCase
	for _, mode := range []parallel.Mode{parallel.ModeCMFuzz, parallel.ModePeach, parallel.ModeSPFuzz} {
		cases = append(cases, fidelityCase{mode.String(), parallel.Options{Mode: mode, VirtualHours: 0.25, Seed: 42, Concurrency: 1}})
	}
	for _, mode := range []parallel.Mode{parallel.ModeCMFuzz, parallel.ModePeach} {
		cases = append(cases, fidelityCase{mode.String() + "+link", parallel.Options{Mode: mode, VirtualHours: 0.25, Seed: 42, Concurrency: 1,
			LinkLoss: 0.05, LinkLatencyBase: 0.01, LinkLatencyJitter: 0.02}})
	}

	path := filepath.Join("testdata", "fidelity.json")
	golden := map[string]map[string]modeFigures{}
	if !*update {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]map[string]modeFigures{}
	for _, sub := range protocols.All() {
		name := sub.Info().Protocol
		got[name] = map[string]modeFigures{}
		for _, c := range cases {
			inproc, err := parallel.Run(context.Background(), sub, c.opts)
			if err != nil {
				t.Fatalf("%s/%s in-process: %v", name, c.key, err)
			}
			remote, _, err := dist.RunLocal(context.Background(), sub, c.opts, 2, dist.Config{HeartbeatInterval: -1})
			if err != nil {
				t.Fatalf("%s/%s distributed: %v", name, c.key, err)
			}
			f := figuresOf(inproc)
			if r := figuresOf(remote); !reflect.DeepEqual(r, f) {
				t.Errorf("%s/%s: distributed %+v, in-process %+v", name, c.key, r, f)
			}
			got[name][c.key] = f
			if want, ok := golden[name][c.key]; !*update && (!ok || !reflect.DeepEqual(f, want)) {
				t.Errorf("%s/%s: got %+v, golden %+v", name, c.key, f, want)
			}
		}
	}
	if *update {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(got); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
