package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// BENCHMARK.json is the metric catalogue: names, units, directions and
// bounds live there and nowhere else. The benchmark computes values by
// name and reports exactly the names the file lists.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchmarkDefs struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadDefs(root string) (*benchmarkDefs, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var defs benchmarkDefs
	if err := json.Unmarshal(raw, &defs); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &defs, nil
}

// golden.json pins, per workload, the artifact digest of every campaign
// at the workload's own fuzz seeds and horizon.
type goldenEntry struct {
	Hours   float64           `json:"hours_per_campaign"`
	Digests map[string]string `json:"digests"`
}

func goldenPath(root string) string { return filepath.Join(root, "bench", "golden.json") }

func loadGolden(root string) (map[string]goldenEntry, error) {
	golden := map[string]goldenEntry{}
	raw, err := os.ReadFile(goldenPath(root))
	if os.IsNotExist(err) {
		return golden, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return golden, nil
}

func writeGolden(root string, golden map[string]goldenEntry) error {
	raw, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(root), append(raw, '\n'), 0o644)
}
