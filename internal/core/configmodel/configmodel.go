// Package configmodel implements the Generalized Model Construction half
// of CMFuzz's configuration model identification (paper §III-A2, Figure 2).
// Extracted configuration items become 4-tuple entities — (Name, Type,
// Flag, Values) — where Type is inferred from value patterns, Flag marks
// whether the value may be mutated during fuzzing, and Values is the set
// of typical values driving both pairwise relation probing and adaptive
// configuration mutation.
//
// The package also reassembles entity groups into runtime-ready forms
// (CLI argument vectors, key-value config files), which is what each
// parallel fuzzing instance consumes at startup (paper §III-B2).
package configmodel

import (
	"sort"
	"strconv"
	"strings"

	"cmfuzz/internal/core/configspec"
)

// Type is the inferred value type of a configuration entity.
type Type int

// The entity types of Figure 2.
const (
	TypeBoolean Type = iota
	TypeNumber
	TypeString
)

var typeNames = [...]string{TypeBoolean: "Boolean", TypeNumber: "Number", TypeString: "String"}

// String names the type as the paper does.
func (t Type) String() string {
	if t < 0 || int(t) >= len(typeNames) {
		return "Unknown"
	}
	return typeNames[t]
}

// Flag marks whether an entity's value is expected to change during
// typical protocol operation, and therefore whether the fuzzer may
// mutate it.
type Flag int

// The mutability flags of Figure 2.
const (
	Mutable Flag = iota
	Immutable
)

// String names the flag as the paper does.
func (f Flag) String() string {
	if f == Immutable {
		return "IMMUTABLE"
	}
	return "MUTABLE"
}

// An Entity is one 4-tuple of the generalized configuration model,
// carrying the attributes of Figure 2 and the default value.
type Entity struct {
	Name    string
	Type    Type
	Flag    Flag
	Values  []string
	Default string
}

// boolWords are the value spellings treated as boolean-like.
var boolWords = map[string]bool{
	"true": true, "false": true, "yes": true, "no": true,
	"on": true, "off": true, "enabled": true, "disabled": true,
}

// FromItem converts one extracted configuration item into a model entity,
// applying the paper's inference rules: numeric values → Number,
// boolean-like values → Boolean, paths/URLs and other text → String;
// static values (paths, system directories) → IMMUTABLE, adjustable
// values (numeric ranges, mode settings) → MUTABLE.
func FromItem(it configspec.Item) Entity {
	e := Entity{
		Name:    it.Name,
		Default: it.Default,
	}
	e.Type = inferType(it)
	e.Flag = inferFlag(e.Type, it)
	e.Values = typicalValues(e, it)
	return e
}

// NewModel constructs a model directly from pre-built entities, bypassing
// inference. Duplicate names keep the first occurrence.
func NewModel(entities []Entity) *Model {
	m := &Model{index: make(map[string]int, len(entities))}
	for _, e := range entities {
		if _, dup := m.index[e.Name]; dup {
			continue
		}
		m.index[e.Name] = len(m.entities)
		m.entities = append(m.entities, e)
	}
	return m
}

// Build constructs the generalized configuration model from a consolidated
// item set, inferring each entity with FromItem.
func Build(items []configspec.Item) *Model {
	entities := make([]Entity, len(items))
	for i, it := range items {
		entities[i] = FromItem(it)
	}
	return NewModel(entities)
}

// inferType classifies the item from its value patterns.
func inferType(it configspec.Item) Type {
	samples := gatherSamples(it)
	if len(samples) == 0 {
		return TypeString
	}
	allBool, allNum := true, true
	for _, s := range samples {
		ls := strings.ToLower(s)
		if !boolWords[ls] {
			allBool = false
		}
		if _, err := strconv.ParseFloat(s, 64); err != nil {
			allNum = false
		}
	}
	switch {
	case allBool:
		return TypeBoolean
	case allNum:
		return TypeNumber
	default:
		return TypeString
	}
}

func gatherSamples(it configspec.Item) []string {
	var samples []string
	if it.Default != "" {
		samples = append(samples, it.Default)
	}
	samples = append(samples, it.Values...)
	return samples
}

// inferFlag marks path-like and address-like string values IMMUTABLE;
// everything adjustable (numbers, booleans, enumerations) is MUTABLE.
func inferFlag(t Type, it configspec.Item) Flag {
	if t != TypeString {
		return Mutable
	}
	// An enumeration of modes is adjustable even though it's a string.
	if len(it.Values) > 1 {
		return Mutable
	}
	if looksStatic(it.Default) || nameSuggestsStatic(it.Name) {
		return Immutable
	}
	return Mutable
}

func looksStatic(v string) bool {
	if v == "" {
		return false
	}
	if strings.Contains(v, "://") || strings.HasPrefix(v, "/") || strings.HasPrefix(v, "./") {
		return true
	}
	// Dotted quads and host:port endpoints are deployment-static.
	if strings.Count(v, ".") == 3 && strings.IndexFunc(v, func(r rune) bool {
		return (r < '0' || r > '9') && r != '.'
	}) < 0 {
		return true
	}
	return false
}

func nameSuggestsStatic(name string) bool {
	for _, kw := range []string{"file", "dir", "path", "cert", "socket", "pid"} {
		if strings.Contains(name, kw) {
			return true
		}
	}
	return false
}

// typicalValues derives the Values attribute: booleans get both truth
// values, numbers get the default plus boundary neighbors, enumerations
// keep their candidates, and immutable strings keep only their default.
func typicalValues(e Entity, it configspec.Item) []string {
	switch {
	case e.Flag == Immutable:
		// An immutable value is never fuzzed, but it still has one
		// typical value (its default, or the single candidate the source
		// documented) so dependency pairs like durable/store-dir can be
		// probed with the partner present.
		if e.Default != "" {
			return []string{e.Default}
		}
		if len(it.Values) > 0 {
			return []string{it.Values[0]}
		}
		return nil
	case e.Type == TypeBoolean:
		return []string{"true", "false"}
	case e.Type == TypeNumber:
		return numberValues(e.Default, it.Values)
	default:
		vals := dedup(append(append([]string{}, it.Values...), e.Default))
		if len(vals) == 0 {
			return nil
		}
		return vals
	}
}

// numberValues builds the typical-value set for a numeric entity:
// its default, the candidates the sources revealed, and the standard
// boundary probes 0, 1, and 2×default.
func numberValues(def string, candidates []string) []string {
	vals := []string{}
	if def != "" {
		vals = append(vals, def)
	}
	vals = append(vals, candidates...)
	if n, err := strconv.ParseFloat(def, 64); err == nil && n != 0 {
		vals = append(vals, formatNum(n*2))
	}
	vals = append(vals, "0", "1")
	return dedup(vals)
}

func formatNum(n float64) string {
	if n == float64(int64(n)) {
		return strconv.FormatInt(int64(n), 10)
	}
	return strconv.FormatFloat(n, 'g', -1, 64)
}

func dedup(in []string) []string {
	seen := make(map[string]bool, len(in))
	var out []string
	for _, s := range in {
		if s == "" || seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, s)
	}
	return out
}

// A Model is the generalized configuration model: the ordered entity set
// extracted from one protocol.
type Model struct {
	entities []Entity
	index    map[string]int
}

// Len returns the number of entities.
func (m *Model) Len() int { return len(m.entities) }

// Entities returns the entities in extraction order. The slice aliases
// internal storage and must not be modified.
func (m *Model) Entities() []Entity { return m.entities }

// Get returns the entity with the given name.
func (m *Model) Get(name string) (Entity, bool) {
	i, ok := m.index[name]
	if !ok {
		return Entity{}, false
	}
	return m.entities[i], true
}

// Mutable returns the entities whose Flag permits runtime mutation.
func (m *Model) Mutable() []Entity {
	var out []Entity
	for _, e := range m.entities {
		if e.Flag == Mutable {
			out = append(out, e)
		}
	}
	return out
}

// An Assignment binds entity names to concrete values — one runnable
// configuration.
type Assignment map[string]string

// Clone returns an independent copy of the assignment.
func (a Assignment) Clone() Assignment {
	c := make(Assignment, len(a))
	for k, v := range a {
		c[k] = v
	}
	return c
}

// String renders the assignment canonically (sorted "k=v" pairs), for
// logs and crash reports.
func (a Assignment) String() string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	n := 0
	for _, k := range keys {
		n += len(k) + len(a[k]) + 2 // '=' and the separating space
	}
	var b strings.Builder
	b.Grow(n)
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(a[k])
	}
	return b.String()
}

// Defaults returns the assignment that binds every entity with a default
// to that default. Entities without defaults (commented-out options,
// disabled features) stay unset, so the default assignment reflects the
// shipped configuration.
func (m *Model) Defaults() Assignment {
	a := make(Assignment, len(m.entities))
	for _, e := range m.entities {
		if e.Default != "" {
			a[e.Name] = e.Default
		}
	}
	return a
}

// RenderCLI reassembles an assignment into a CLI argument vector
// (`--name=value`, boolean true as a bare `--name` flag, boolean false
// omitted), in sorted order for determinism.
func RenderCLI(a Assignment) []string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		switch a[k] {
		case "true":
			out = append(out, "--"+k)
		case "false":
			// absent flag
		default:
			out = append(out, "--"+k+"="+a[k])
		}
	}
	return out
}
