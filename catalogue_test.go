package cmfuzz_test

import (
	"bufio"
	"context"
	"net"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"cmfuzz/internal/dist"
	"cmfuzz/internal/fleet"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/protocols"
	"cmfuzz/internal/telemetry"
	"cmfuzz/internal/telemetry/metrics"
)

// The README headings of the three catalogue tables, one per monitored
// surface. The coordinator's table lists what it adds to fuzz's, and
// serve's what it adds to the coordinator's pool families.
const (
	fuzzTable        = "### `/metrics` of `fuzz`, `campaign` and `cmbench`"
	coordinatorTable = "### `/metrics` of `coordinator`: the table above, plus"
	serveTable       = "### `/metrics` of `serve`: the coordinator's seven, plus"
)

// A catalogue maps a family name to its type and sorted label keys.
type catalogue map[string]string

// readmeCatalogues reads README's Metrics tables, keyed by heading.
func readmeCatalogues(t *testing.T) map[string]catalogue {
	t.Helper()
	f, err := os.Open("README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]catalogue{}
	heading := ""
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			heading = line
			continue
		}
		if !strings.HasPrefix(line, "| `cmfuzz_") || !strings.HasPrefix(heading, "### `/metrics` of") {
			continue
		}
		cells := strings.Split(line, "|")
		if len(cells) < 5 {
			t.Fatalf("README row under %q has %d cells: %s", heading, len(cells), line)
		}
		var labels []string
		for _, l := range strings.Split(cells[3], ",") {
			if l = strings.Trim(strings.TrimSpace(l), "`"); l != "" && l != "—" {
				labels = append(labels, l)
			}
		}
		sort.Strings(labels)
		if out[heading] == nil {
			out[heading] = catalogue{}
		}
		out[heading][strings.Trim(strings.TrimSpace(cells[1]), "`")] =
			strings.TrimSpace(cells[2]) + " " + strings.Join(labels, ",")
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

var labelKey = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="`)

// rendered renders reg and returns each family with its type and the
// label keys of its samples (a histogram's le left out).
func rendered(t *testing.T, reg *metrics.Registry) catalogue {
	t.Helper()
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := catalogue{}
	family, typ := "", ""
	keys := map[string]bool{}
	flush := func() {
		if family == "" {
			return
		}
		var ks []string
		for k := range keys {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		out[family] = typ + " " + strings.Join(ks, ",")
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			flush()
			family, typ, _ = strings.Cut(rest, " ")
			keys = map[string]bool{}
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		for _, m := range labelKey.FindAllStringSubmatch(line, -1) {
			if m[1] != "le" || typ != "histogram" {
				keys[m[1]] = true
			}
		}
	}
	flush()
	return out
}

// sameCatalogue fails t with every family the README and the registry
// of surface disagree on.
func sameCatalogue(t *testing.T, surface string, readme, got catalogue) {
	t.Helper()
	for name, want := range readme {
		if g, ok := got[name]; !ok {
			t.Errorf("%s: README lists %s (%s), the registry does not render it", surface, name, want)
		} else if g != want {
			t.Errorf("%s: %s is %q in README, %q rendered", surface, name, want, g)
		}
	}
	for name, g := range got {
		if _, ok := readme[name]; !ok {
			t.Errorf("%s: the registry renders %s (%s), README does not list it", surface, name, g)
		}
	}
}

func union(cs ...catalogue) catalogue {
	out := catalogue{}
	for _, c := range cs {
		for k, v := range c {
			out[k] = v
		}
	}
	return out
}

// TestMetricCatalogue holds README's Metrics tables to the families each
// monitored surface renders, its registry built the way its command
// builds it, after a short campaign and with a worker attached so the
// collector families have series.
func TestMetricCatalogue(t *testing.T) {
	tables := readmeCatalogues(t)
	for _, h := range []string{fuzzTable, coordinatorTable, serveTable} {
		if len(tables[h]) == 0 {
			t.Fatalf("README has no metric table under %q", h)
		}
	}
	if len(tables) != 3 {
		t.Fatalf("README has %d metric tables, want 3", len(tables))
	}
	sub, err := protocols.ByName("DNS")
	if err != nil {
		t.Fatal(err)
	}
	opts := func(rec *telemetry.Recorder) parallel.Options {
		return parallel.Options{Mode: parallel.ModeCMFuzz, VirtualHours: 0.1, Seed: 1, Concurrency: 1, Telemetry: rec}
	}
	attach := func(t *testing.T, add func(net.Conn) error) {
		t.Helper()
		cConn, wConn := net.Pipe()
		w := dist.NewWorker(dist.WorkerConfig{Name: "w", Resolve: protocols.ByName})
		served := make(chan error, 1)
		go func() { served <- w.Serve(wConn) }()
		if err := add(cConn); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { <-served })
	}

	t.Run("fuzz", func(t *testing.T) {
		rec := telemetry.New()
		reg := metrics.NewRegistry()
		rec.Instrument(reg)
		if _, err := parallel.Run(context.Background(), sub, opts(rec)); err != nil {
			t.Fatal(err)
		}
		sameCatalogue(t, "fuzz", tables[fuzzTable], rendered(t, reg))
	})

	t.Run("coordinator", func(t *testing.T) {
		rec := telemetry.New()
		reg := metrics.NewRegistry()
		rec.Instrument(reg)
		coord := dist.NewCoordinator(sub, opts(rec), dist.Config{HeartbeatInterval: -1})
		coord.Instrument(reg)
		attach(t, coord.AddConn)
		if _, err := coord.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		sameCatalogue(t, "coordinator", union(tables[fuzzTable], tables[coordinatorTable]), rendered(t, reg))
	})

	t.Run("serve", func(t *testing.T) {
		pool := dist.NewPool(dist.Config{HeartbeatInterval: -1})
		defer pool.Close()
		attach(t, pool.AddConn)
		m, err := fleet.NewManager(fleet.Config{StateDir: t.TempDir()}, pool, protocols.ByName)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		reg := metrics.NewRegistry()
		pool.Instrument(reg)
		m.Instrument(reg)
		if err := m.Submit(fleet.CampaignSpec{ID: "dns", Subject: "DNS", Hours: 0.1, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		sameCatalogue(t, "serve", union(tables[coordinatorTable], tables[serveTable]), rendered(t, reg))
	})
}
