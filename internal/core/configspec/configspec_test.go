package configspec

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func findItem(t *testing.T, items []Item, name string) Item {
	t.Helper()
	for _, it := range items {
		if it.Name == name {
			return it
		}
	}
	t.Fatalf("item %q not found in %v", name, names(items))
	return Item{}
}

func hasItem(items []Item, name string) bool {
	for _, it := range items {
		if it.Name == name {
			return true
		}
	}
	return false
}

func names(items []Item) []string {
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = it.Name
	}
	return out
}

const sampleHelp = `Usage: broker [options]
  -p, --port PORT          listen port (default: 1883)
  --max-connections N      maximum client connections (default: 100)
  --qos-level LEVEL        delivery guarantee, one of: 0, 1, 2
  --persistence            enable message persistence
  --auth-mode MODE         authentication {none|password|certificate}
  -v                       verbose logging
  --log-dest <file>        log destination (default: /var/log/broker.log)
`

func TestExtractCLIOptions(t *testing.T) {
	items := ExtractCLIOptions(sampleHelp)

	port := findItem(t, items, "port")
	if port.Default != "1883" {
		t.Errorf("port default = %q, want 1883", port.Default)
	}

	maxConn := findItem(t, items, "max-connections")
	if maxConn.Default != "100" {
		t.Errorf("max-connections default = %q", maxConn.Default)
	}

	qos := findItem(t, items, "qos-level")
	if len(qos.Values) != 3 {
		t.Errorf("qos-level values = %v, want 3 enum values", qos.Values)
	}

	pers := findItem(t, items, "persistence")
	if len(pers.Values) != 2 || pers.Default != "false" {
		t.Errorf("bare flag persistence = %+v, want boolean candidates", pers)
	}

	auth := findItem(t, items, "auth-mode")
	wantAuth := []string{"none", "password", "certificate"}
	if len(auth.Values) != 3 {
		t.Fatalf("auth-mode values = %v", auth.Values)
	}
	for i, v := range wantAuth {
		if auth.Values[i] != v {
			t.Errorf("auth-mode values[%d] = %q, want %q", i, auth.Values[i], v)
		}
	}

	verbose := findItem(t, items, "v")
	if len(verbose.Values) != 2 {
		t.Errorf("short flag -v values = %v", verbose.Values)
	}

	logDest := findItem(t, items, "log-dest")
	if logDest.Default != "/var/log/broker.log" {
		t.Errorf("log-dest default = %q", logDest.Default)
	}
}

func TestDetectFormat(t *testing.T) {
	cases := []struct {
		name    string
		content string
		want    Format
	}{
		{"json object", `{"a": 1}`, FormatJSON},
		{"json array", `[{"a": 1}]`, FormatJSON},
		{"xml", `<Config><A>1</A></Config>`, FormatXML},
		{"ini", "a=1\nb=2\nc=3\n", FormatKeyValue},
		{"ini with sections", "[s]\na=1\n# comment\nb = 2\n", FormatKeyValue},
		{"space pairs", "port 1883\nmax_connections 10\n", FormatKeyValue},
		{"bare toggles", "domain-needed\nbogus-priv\nexpand-hosts\nserver=1.1.1.1\n", FormatCustom},
		{"prose", "This file sets things.\nIt has no structure at all!()\n", FormatCustom},
		{"empty", "\n\n", FormatCustom},
		{"brace but invalid json", "{not json", FormatCustom},
	}
	for _, c := range cases {
		if got := DetectFormat(c.content); got != c.want {
			t.Errorf("%s: DetectFormat = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestExtractKeyValue(t *testing.T) {
	content := `
# The listen port
port = 1883
allow_anonymous = true
[bridge]
address = 10.0.0.1
# max_inflight = 20
; pure comment line
persistence true
`
	items := ExtractKeyValue(content)
	if it := findItem(t, items, "port"); it.Default != "1883" {
		t.Errorf("port = %+v", it)
	}
	if it := findItem(t, items, "bridge.address"); it.Default != "10.0.0.1" {
		t.Errorf("bridge.address = %+v", it)
	}
	mi := findItem(t, items, "bridge.max_inflight")
	if mi.Default != "" || len(mi.Values) != 1 || mi.Values[0] != "20" {
		t.Errorf("commented option = %+v, want candidate value 20 and empty default", mi)
	}
	if it := findItem(t, items, "bridge.persistence"); it.Default != "true" {
		t.Errorf("space pair = %+v", it)
	}
}

func TestExtractKeyValueDuplicateKeysMergeValues(t *testing.T) {
	items := ExtractKeyValue("listener=1883\nlistener=8883\n")
	it := findItem(t, items, "listener")
	if it.Default != "1883" || len(it.Values) != 1 || it.Values[0] != "8883" {
		t.Errorf("duplicate key handling = %+v", it)
	}
}

func TestExtractJSON(t *testing.T) {
	content := `{
  "transport": {"reliability": "reliable", "max_retries": 5},
  "discovery": {"peers": ["10.0.0.1", "10.0.0.2"], "enabled": true},
  "empty_list": [],
  "null_opt": null
}`
	items := ExtractJSON(content)
	if it := findItem(t, items, "transport.reliability"); it.Default != "reliable" {
		t.Errorf("reliability = %+v", it)
	}
	if it := findItem(t, items, "transport.max_retries"); it.Default != "5" {
		t.Errorf("max_retries = %+v", it)
	}
	if it := findItem(t, items, "discovery.peers"); it.Default != "10.0.0.1" {
		t.Errorf("array representative = %+v", it)
	}
	if it := findItem(t, items, "discovery.enabled"); it.Default != "true" {
		t.Errorf("enabled = %+v", it)
	}
	if !hasItem(items, "empty_list") || !hasItem(items, "null_opt") {
		t.Errorf("empty/null entries missing: %v", names(items))
	}
	if ExtractJSON("{bad") != nil {
		t.Error("invalid JSON should yield no items")
	}
	// Deterministic ordering.
	if !sort.SliceIsSorted(items, func(i, j int) bool { return items[i].Name < items[j].Name }) {
		t.Error("JSON items not sorted")
	}
}

func TestExtractXML(t *testing.T) {
	content := `<CycloneDDS>
  <Domain Id="0">
    <General>
      <AllowMulticast>true</AllowMulticast>
      <MaxMessageSize>65500</MaxMessageSize>
    </General>
  </Domain>
</CycloneDDS>`
	items := ExtractXML(content)
	if it := findItem(t, items, "cyclonedds/domain/general/allowmulticast"); it.Default != "true" {
		t.Errorf("allowmulticast = %+v", it)
	}
	if it := findItem(t, items, "cyclonedds/domain/general/maxmessagesize"); it.Default != "65500" {
		t.Errorf("maxmessagesize = %+v", it)
	}
	if it := findItem(t, items, "cyclonedds/domain@id"); it.Default != "0" {
		t.Errorf("attribute = %+v", it)
	}
}

func TestExtractCustom(t *testing.T) {
	content := `# dnsmasq-like configuration
domain-needed
bogus-priv
server=8.8.8.8
cache-size 150
# dhcp-range=192.168.0.50,192.168.0.150
# This is a prose comment. It should be skipped entirely.
`
	items := ExtractCustom(content)
	if it := findItem(t, items, "domain-needed"); it.Default != "true" {
		t.Errorf("bare keyword = %+v", it)
	}
	if it := findItem(t, items, "server"); it.Default != "8.8.8.8" {
		t.Errorf("server = %+v", it)
	}
	if it := findItem(t, items, "cache-size"); it.Default != "150" {
		t.Errorf("cache-size = %+v", it)
	}
	dr := findItem(t, items, "dhcp-range")
	if dr.Default != "" || len(dr.Values) != 1 {
		t.Errorf("commented option = %+v", dr)
	}
	if hasItem(items, "This") {
		t.Error("prose comment leaked into items")
	}
}

func TestExtractConsolidates(t *testing.T) {
	in := Input{
		CLIHelp: []string{"  --port PORT   listen port (default: 1883)\n  --verbose   chatty\n"},
		Files: []File{
			{Name: "broker.conf", Content: "port = 8883\nmax_queue = 50\n"},
			{Name: "dds.json", Content: `{"qos": {"history": "keep_last"}}`},
			{Name: "dds.xml", Content: `<C><Tracing>off</Tracing></C>`},
			{Name: "extra.conf", Content: "fast-start\nodd line here ()\nmode=turbo\n"},
		},
	}
	items := Extract(in)
	// port appears in CLI and file; consolidated once, CLI default wins (first seen).
	port := findItem(t, items, "port")
	if port.Default != "1883" {
		t.Errorf("consolidated port default = %q", port.Default)
	}
	if len(port.Values) == 0 {
		t.Errorf("consolidated port lost file candidate: %+v", port)
	}
	for _, want := range []string{"verbose", "max-queue", "qos.history", "c/tracing", "fast-start", "mode"} {
		if !hasItem(items, want) {
			t.Errorf("missing consolidated item %q in %v", want, names(items))
		}
	}
	if !sort.SliceIsSorted(items, func(i, j int) bool { return items[i].Name < items[j].Name }) {
		t.Error("Extract output not sorted by name")
	}
}

func TestNormalizeName(t *testing.T) {
	cases := map[string]string{
		"--Max_Connections": "max-connections",
		"-v":                "v",
		"  port ":           "port",
		"a_b-c":             "a-b-c",
	}
	for in, want := range cases {
		if got := NormalizeName(in); got != want {
			t.Errorf("NormalizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestConsolidateDropsEmptyNames(t *testing.T) {
	items := Consolidate([]Item{{Name: "--"}, {Name: "ok", Default: "1"}})
	if len(items) != 1 || items[0].Name != "ok" {
		t.Fatalf("Consolidate = %v", names(items))
	}
}

func TestSourceAndFormatStrings(t *testing.T) {
	if SourceCLI.String() != "cli" || SourceCustom.String() != "custom" || Source(99).String() != "unknown" {
		t.Error("Source.String wrong")
	}
	if FormatJSON.String() != "json" || Format(99).String() != "unknown" {
		t.Error("Format.String wrong")
	}
}

// Property: extraction never panics on arbitrary content and items always
// have non-empty names.
func TestQuickExtractorsRobust(t *testing.T) {
	f := func(content string) bool {
		for _, items := range [][]Item{
			ExtractCLIOptions(content),
			ExtractKeyValue(content),
			ExtractJSON(content),
			ExtractXML(content),
			ExtractCustom(content),
			Extract(Input{CLIHelp: []string{content}, Files: []File{{Name: "f", Content: content}}}),
		} {
			for _, it := range items {
				if it.Name == "" {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: Consolidate is idempotent.
func TestQuickConsolidateIdempotent(t *testing.T) {
	f := func(rawNames []string, defaults []string) bool {
		var items []Item
		for i, n := range rawNames {
			it := Item{Name: n}
			if i < len(defaults) {
				it.Default = defaults[i]
			}
			items = append(items, it)
		}
		once := Consolidate(items)
		twice := Consolidate(once)
		if len(once) != len(twice) {
			return false
		}
		for i := range once {
			if once[i].Name != twice[i].Name || once[i].Default != twice[i].Default {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

// TestNormalizeNameIdempotent pins the inputs that made
// TestQuickConsolidateIdempotent flaky: a second pass must change
// nothing.
func TestNormalizeNameIdempotent(t *testing.T) {
	for in, want := range map[string]string{
		"--Max_Connections": "max-connections",
		"_x":                "x",
		" --x":              "x",
		"- x":               "x",
		"-_ -x_y ":          "x-y",
		"--":                "",
		" \t":               "",
		"a-_b":              "a--b",
	} {
		got := NormalizeName(in)
		if got != want {
			t.Errorf("NormalizeName(%q) = %q, want %q", in, got, want)
		}
		if again := NormalizeName(got); again != got {
			t.Errorf("NormalizeName(%q) = %q, but a second pass gives %q", in, got, again)
		}
	}
}
