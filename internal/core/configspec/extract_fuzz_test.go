package configspec_test

import (
	"reflect"
	"testing"

	"cmfuzz/internal/core/configspec"
	"cmfuzz/internal/protocols"
)

// FuzzExtract drives Algorithm 1's parsers — CLI help, and configuration
// files in each format DetectFormat dispatches to — seeded with every
// built-in subject's help texts and configuration files. Arbitrary
// input never panics, and what Extract returns is already consolidated:
// Consolidate leaves it as it is.
func FuzzExtract(f *testing.F) {
	for _, sub := range protocols.All() {
		in := sub.ConfigInput()
		for _, help := range in.CLIHelp {
			f.Add(help, "")
		}
		for _, file := range in.Files {
			f.Add("", file.Content)
		}
	}
	f.Fuzz(func(t *testing.T, help, file string) {
		items := configspec.Extract(configspec.Input{
			CLIHelp: []string{help},
			Files:   []configspec.File{{Name: "fuzz.conf", Content: file}},
		})
		// Consolidate dedups value lists in place: hand it a deep copy.
		cp := append([]configspec.Item(nil), items...)
		for i := range cp {
			cp[i].Values = append([]string(nil), cp[i].Values...)
		}
		again := configspec.Consolidate(cp)
		if !reflect.DeepEqual(again, items) {
			t.Fatalf("Consolidate changed Extract's output:\n%+v\n%+v", items, again)
		}
	})
}
