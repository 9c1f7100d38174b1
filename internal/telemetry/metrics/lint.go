package metrics

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// LintStats summarizes a validated exposition.
type LintStats struct {
	// Families is the number of distinct metric families seen.
	Families int
	// Samples is the number of sample lines.
	Samples int
}

// Lint validates a Prometheus text-format exposition (version 0.0.4):
// comment grammar, sample grammar, TYPE declarations preceding their
// samples, histogram suffix discipline and parseable values, and the
// naming conventions this repo holds its own registries to: every
// family is lowercase snake_case with a HELP line and a TYPE line,
// counters (and only counters) end in _total, and no family name
// squats on the reserved histogram/summary sample suffixes _bucket,
// _sum, _count. It exists so tests and CI (`cmfuzz promlint`, over
// every live /metrics surface) can assert /metrics output without a
// Prometheus dependency. It returns basic counts on success.
func Lint(r io.Reader) (LintStats, error) {
	var stats LintStats
	types := make(map[string]string) // family -> declared type
	helps := make(map[string]bool)   // family -> HELP seen
	seenSample := make(map[string]bool)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || fields[0] != "#" {
				return stats, fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			switch fields[1] {
			case "HELP":
				if !nameOK(fields[2]) {
					return stats, fmt.Errorf("line %d: HELP for invalid name %q", lineNo, fields[2])
				}
				helps[fields[2]] = true
			case "TYPE":
				if len(fields) != 4 {
					return stats, fmt.Errorf("line %d: TYPE needs a name and a type", lineNo)
				}
				name, typ := fields[2], fields[3]
				if !nameOK(name) {
					return stats, fmt.Errorf("line %d: TYPE for invalid name %q", lineNo, name)
				}
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return stats, fmt.Errorf("line %d: unknown type %q", lineNo, typ)
				}
				if seenSample[name] {
					return stats, fmt.Errorf("line %d: TYPE %s after its samples", lineNo, name)
				}
				if _, dup := types[name]; dup {
					return stats, fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
				}
				types[name] = typ
				stats.Families++
			default:
				// Free-form comment: legal, ignored.
			}
			continue
		}
		name, rest, err := splitSample(line)
		if err != nil {
			return stats, fmt.Errorf("line %d: %w", lineNo, err)
		}
		seenSample[familyOf(name, types)] = true
		fields := strings.Fields(rest)
		if len(fields) < 1 || len(fields) > 2 {
			return stats, fmt.Errorf("line %d: want 'value [timestamp]' after series, got %q", lineNo, rest)
		}
		if _, err := parseValue(fields[0]); err != nil {
			return stats, fmt.Errorf("line %d: bad value %q: %v", lineNo, fields[0], err)
		}
		if len(fields) == 2 {
			if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
				return stats, fmt.Errorf("line %d: bad timestamp %q", lineNo, fields[1])
			}
		}
		stats.Samples++
	}
	if err := sc.Err(); err != nil {
		return stats, err
	}
	if stats.Samples == 0 {
		return stats, fmt.Errorf("no samples in exposition")
	}
	if err := checkConventions(types, helps, seenSample); err != nil {
		return stats, err
	}
	return stats, nil
}

// checkConventions is the naming pass: it reports every violation at
// once (sorted, so the message is deterministic) instead of stopping at
// the first.
func checkConventions(types map[string]string, helps, seenSample map[string]bool) error {
	var violations []string
	add := func(format string, args ...any) {
		violations = append(violations, fmt.Sprintf(format, args...))
	}
	for name, typ := range types {
		if name != strings.ToLower(name) {
			add("family %s: name is not lowercase snake_case", name)
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suffix) {
				add("family %s: name squats on reserved sample suffix %s", name, suffix)
			}
		}
		if typ == "counter" && !strings.HasSuffix(name, "_total") {
			add("family %s: counter does not end in _total", name)
		}
		if typ != "counter" && strings.HasSuffix(name, "_total") {
			add("family %s: %s ends in _total (counters only)", name, typ)
		}
		if !helps[name] {
			add("family %s: no HELP line", name)
		}
	}
	for fam := range seenSample {
		if _, ok := types[fam]; !ok {
			add("family %s: samples without a TYPE declaration", fam)
		}
	}
	if len(violations) == 0 {
		return nil
	}
	sort.Strings(violations)
	return fmt.Errorf("naming: %s", strings.Join(violations, "; "))
}

// familyOf maps a sample name to its family, peeling histogram/summary
// suffixes when the suffixed family was declared.
func familyOf(name string, types map[string]string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok {
			if t, declared := types[base]; declared && (t == "histogram" || t == "summary") {
				return base
			}
		}
	}
	return name
}

// splitSample splits "name{labels} value" into the name and the part
// after the series, validating the name and label syntax.
func splitSample(line string) (name, rest string, err error) {
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return "", "", fmt.Errorf("sample %q has no value", line)
	}
	name = line[:i]
	if !nameOK(name) {
		return "", "", fmt.Errorf("invalid metric name %q", name)
	}
	if line[i] == ' ' {
		return name, line[i+1:], nil
	}
	// Label block: scan to the closing brace honoring quoted values.
	j := i + 1
	for j < len(line) {
		if line[j] == '}' {
			break
		}
		// label name
		k := j
		for k < len(line) && line[k] != '=' {
			k++
		}
		if k >= len(line) || !nameOK(line[j:k]) {
			return "", "", fmt.Errorf("invalid label name in %q", line)
		}
		k++ // past '='
		if k >= len(line) || line[k] != '"' {
			return "", "", fmt.Errorf("unquoted label value in %q", line)
		}
		k++
		for k < len(line) {
			if line[k] == '\\' {
				k += 2
				continue
			}
			if line[k] == '"' {
				break
			}
			k++
		}
		if k >= len(line) {
			return "", "", fmt.Errorf("unterminated label value in %q", line)
		}
		k++ // past closing quote
		if k < len(line) && line[k] == ',' {
			k++
		}
		j = k
	}
	if j >= len(line) || line[j] != '}' {
		return "", "", fmt.Errorf("unterminated label block in %q", line)
	}
	rest = strings.TrimPrefix(line[j+1:], " ")
	if rest == "" {
		return "", "", fmt.Errorf("sample %q has no value", line)
	}
	return name, rest, nil
}

// parseValue parses a sample value, accepting the Prometheus special
// forms +Inf, -Inf and NaN.
func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "-Inf", "NaN", "Nan":
		return 0, nil
	}
	return strconv.ParseFloat(s, 64)
}
