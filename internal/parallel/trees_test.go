package parallel_test

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"cmfuzz/internal/campaign"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/protocols"
	"cmfuzz/internal/telemetry"
)

// tree writes res's full artifact set (WriteArtifacts and
// WriteTelemetry) and reads it back as relative path -> contents.
func tree(t *testing.T, res *parallel.Result, rec *telemetry.Recorder) map[string]string {
	t.Helper()
	dir := t.TempDir()
	if err := campaign.WriteArtifacts(dir, res); err != nil {
		t.Fatal(err)
	}
	if err := campaign.WriteTelemetry(dir, rec); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		out[rel] = string(raw)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLanesMatchSerialTrees: the artifact tree of a whole campaign run
// by Run is the serial oracle's at every core count — one core, where
// the leases take turns, up to more cores than there are instances.
func TestLanesMatchSerialTrees(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, sub := range protocols.All() {
		options := func(rec *telemetry.Recorder) parallel.Options {
			return parallel.Options{Mode: parallel.ModeCMFuzz, VirtualHours: 0.5, Seed: 3, SaturationWindow: 300,
				LinkLoss: 0.05, LinkLatencyBase: 0.01, LinkLatencyJitter: 0.02, Telemetry: rec}
		}
		rec := telemetry.New()
		res, err := parallel.RunSerial(context.Background(), sub, options(rec))
		if err != nil {
			t.Fatal(err)
		}
		want := tree(t, res, rec)
		for _, procs := range []int{1, 2, 4, 8} {
			runtime.GOMAXPROCS(procs)
			rec := telemetry.New()
			res, err := parallel.Run(context.Background(), sub, options(rec))
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s at GOMAXPROCS %d", sub.Info().Protocol, procs)
			got := tree(t, res, rec)
			if len(got) != len(want) {
				t.Fatalf("%s: %d artifacts, the serial run wrote %d", label, len(got), len(want))
			}
			for rel, w := range want {
				if got[rel] != w {
					t.Fatalf("%s: %s differs from the serial run's:\n--- serial ---\n%s\n--- leases ---\n%s", label, rel, w, got[rel])
				}
			}
		}
	}
}
