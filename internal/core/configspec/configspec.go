// Package configspec implements the Configuration Model Identification
// front half of CMFuzz (paper §III-A1, Algorithm 1): it systematically
// extracts configuration items from the two places IoT protocols define
// them — command-line interface options and configuration files — and
// consolidates them into one item set for model construction.
//
// CLI options are recognized with pattern matching (the paper uses Python
// regular expressions; this package uses Go's regexp). Configuration files
// are dispatched by detected format: key-value files are parsed line by
// line, hierarchical files (JSON, XML) are parsed recursively, and
// everything else falls back to keyword heuristics.
package configspec

import (
	"sort"
	"strings"
	"unicode"
)

// Source records where a configuration item was discovered.
type Source int

// The extraction sources of Algorithm 1.
const (
	SourceCLI Source = iota
	SourceKeyValue
	SourceHierarchical
	SourceCustom
)

var sourceNames = [...]string{
	SourceCLI:          "cli",
	SourceKeyValue:     "key-value",
	SourceHierarchical: "hierarchical",
	SourceCustom:       "custom",
}

// String names the source.
func (s Source) String() string {
	if s < 0 || int(s) >= len(sourceNames) {
		return "unknown"
	}
	return sourceNames[s]
}

// An Item is one raw configuration item: the name of an adjustable
// parameter, its default value as found, any candidate values the source
// reveals (enumerations in help text, commented-out alternatives), and
// provenance.
type Item struct {
	Name    string
	Default string
	Values  []string
	Source  Source
}

// A File is one configuration file input to extraction.
type File struct {
	Name    string
	Content string
}

// Input carries Algorithm 1's two inputs: CLI option documentation
// (typically --help output) and configuration files.
type Input struct {
	CLIHelp []string
	Files   []File
}

// Extract implements Algorithm 1. It extracts items from every CLI help
// text and every configuration file (dispatching by detected format) and
// returns the consolidated, de-duplicated item set in stable name order.
func Extract(in Input) []Item {
	var all []Item
	for _, help := range in.CLIHelp {
		all = append(all, ExtractCLIOptions(help)...)
	}
	for _, f := range in.Files {
		switch DetectFormat(f.Content) {
		case FormatKeyValue:
			all = append(all, ExtractKeyValue(f.Content)...)
		case FormatJSON:
			all = append(all, ExtractJSON(f.Content)...)
		case FormatXML:
			all = append(all, ExtractXML(f.Content)...)
		default:
			all = append(all, ExtractCustom(f.Content)...)
		}
	}
	return Consolidate(all)
}

// Consolidate de-duplicates items by normalized name, merging candidate
// values and preferring the richest default/documentation, and returns
// the set sorted by name.
func Consolidate(items []Item) []Item {
	byName := make(map[string]*Item)
	order := make([]string, 0, len(items))
	for _, it := range items {
		key := NormalizeName(it.Name)
		if key == "" {
			continue
		}
		cur, ok := byName[key]
		if !ok {
			cp := it
			cp.Name = key
			cp.Values = dedupStrings(cp.Values)
			byName[key] = &cp
			order = append(order, key)
			continue
		}
		switch {
		case cur.Default == "":
			cur.Default = it.Default
		case it.Default != "" && it.Default != cur.Default:
			// A conflicting default from another source is a candidate value.
			cur.Values = append(cur.Values, it.Default)
		}
		cur.Values = dedupStrings(append(cur.Values, it.Values...))
	}
	sort.Strings(order)
	out := make([]Item, 0, len(order))
	for _, key := range order {
		out = append(out, *byName[key])
	}
	return out
}

// NormalizeName canonicalizes an item name: surrounding space is
// trimmed, the name is lower-cased, underscores become hyphens, and
// only then are leading dashes (and any space they hid) stripped, so
// "--Max_Connections" and "max-connections" unify. The order makes it
// idempotent: stripping first left "_x" as "-x" and " --x" as "--x",
// each one more pass away from "x".
func NormalizeName(name string) string {
	name = strings.ToLower(strings.TrimSpace(name))
	name = strings.ReplaceAll(name, "_", "-")
	return strings.TrimLeftFunc(name, func(r rune) bool { return r == '-' || unicode.IsSpace(r) })
}

func dedupStrings(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := in[:0]
	for _, s := range in {
		s = strings.TrimSpace(s)
		if s == "" || seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, s)
	}
	return out
}
