package configspec

import (
	"regexp"
	"strings"
)

// The CLI patterns the paper's pattern-matching parser recognizes:
// `--option=VALUE`, `--option VALUE`, bare `--flag`, and short `-f` forms,
// optionally preceded by a short alias (`-p, --port PORT`).
var (
	longOptRe  = regexp.MustCompile(`(?m)^\s*(?:-(\w),?\s+)?--([A-Za-z0-9][-A-Za-z0-9_.]*)(?:[= ]([A-Z][A-Z0-9_]*|<[^>]+>|\[[^\]]+\]))?\s*(.*)$`)
	shortOptRe = regexp.MustCompile(`(?m)^\s*-(\w)\s+(?:([A-Z][A-Z0-9_]*|<[^>]+>)\s+)?(.*)$`)
	defaultRe  = regexp.MustCompile(`[(\[]default:?\s*([^)\]]+)[)\]]`)
	enumSetRe  = regexp.MustCompile(`\{([^{}]+)\}|one of:\s+([A-Za-z0-9_,|/ :.-]+)`)
)

// ExtractCLIOptions parses a block of CLI documentation (typically --help
// output or a man-page OPTIONS section) and returns one Item per option.
// Long options win over short aliases on the same line; a short alias is
// recorded in the Doc. Defaults in "(default: X)" and enumerations in
// "{a|b|c}" or "one of: a, b, c" become the item's Default and Values.
func ExtractCLIOptions(help string) []Item {
	var items []Item
	seen := make(map[string]bool)
	for _, line := range strings.Split(help, "\n") {
		if m := longOptRe.FindStringSubmatch(line); m != nil {
			name := m[2]
			if seen[name] {
				continue
			}
			seen[name] = true
			it := Item{Name: name, Source: SourceCLI}
			fillFromDescription(&it, m[3], line)
			items = append(items, it)
			continue
		}
		if m := shortOptRe.FindStringSubmatch(line); m != nil {
			name := m[1]
			if seen[name] {
				continue
			}
			seen[name] = true
			it := Item{Name: name, Source: SourceCLI}
			fillFromDescription(&it, m[2], line)
			items = append(items, it)
		}
	}
	return items
}

// fillFromDescription mines the option's value placeholder and the full
// line for defaults and candidate values.
func fillFromDescription(it *Item, placeholder, line string) {
	if m := defaultRe.FindStringSubmatch(line); m != nil {
		it.Default = strings.TrimSpace(m[1])
	}
	if m := enumSetRe.FindStringSubmatch(line); m != nil {
		raw := m[1]
		if raw == "" {
			raw = m[2]
		}
		for _, v := range strings.FieldsFunc(raw, func(r rune) bool {
			return r == '|' || r == ',' || r == ' '
		}) {
			v = strings.TrimSpace(v)
			if v != "" {
				it.Values = append(it.Values, v)
			}
		}
	}
	// A bare flag (no value placeholder, no enum) is boolean-like: its
	// candidate values are presence and absence.
	if placeholder == "" && len(it.Values) == 0 && it.Default == "" {
		it.Values = []string{"true", "false"}
		it.Default = "false"
	}
}
