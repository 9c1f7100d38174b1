package spec

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cmfuzz/internal/live"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/subject"
)

func parse(t *testing.T, args ...string) Campaign {
	t.Helper()
	var c Campaign
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c.Bind(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRoundTrip: a campaign described on the command line survives the
// trip through its JSON form, and both ends become the same Options —
// the ones the flags spell, field for field.
func TestRoundTrip(t *testing.T) {
	c := parse(t, "-subject", "DNS", "-mode", "peach", "-hours", "2.5", "-seed", "9", "-n", "3",
		"-no-config-mutation", "-sat-window", "120", "-sat-min-gain", "5",
		"-link-loss", "0.25", "-link-latency", "0.5", "-link-jitter", "0.125",
		"-target-addr", "127.0.0.1:9", "-target-transport", "tcp", "-target-rate", "5",
		"-target-max-restarts", "2", "-target-restart-window", "10", "-target-max-hangs", "7")
	wantLive := &live.Spec{Addr: "127.0.0.1:9", Transport: "tcp",
		Rails: live.Rails{Rate: 5, MaxRestarts: 2, RestartWindow: 10, MaxHangs: 7}}
	if !reflect.DeepEqual(c.Live, wantLive) {
		t.Fatalf("live spec from flags = %+v, want %+v", c.Live, wantLive)
	}
	raw, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, c) {
		t.Fatalf("JSON round trip:\n got %+v\nwant %+v", back, c)
	}
	want := parallel.Options{
		Mode: parallel.ModePeach, Instances: 3, VirtualHours: 2.5, Seed: 9,
		DisableConfigMutation: true, SaturationWindow: 120, SaturationMinGain: 5,
		LinkLoss: 0.25, LinkLatencyBase: 0.5, LinkLatencyJitter: 0.125,
	}
	for name, from := range map[string]Campaign{"flags": c, "json": back} {
		got, err := from.Options()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Options = %+v\nwant %+v", name, got, want)
		}
	}

	// The flag defaults are a valid campaign: the paper's shape on MQTT.
	def, err := parse(t).Options()
	if err != nil {
		t.Fatal(err)
	}
	if def.Mode != parallel.ModeCMFuzz || def.VirtualHours != 24 || def.Instances != 4 || def.Seed != 1 {
		t.Fatalf("default flags give %+v", def)
	}
}

// TestTargetFlagsReadFiles: -target-config-template inlines the file,
// and -target-spec supplies the whole live spec whatever its position
// among the individual flags.
func TestTargetFlagsReadFiles(t *testing.T) {
	dir := t.TempDir()
	tmpl := filepath.Join(dir, "echo.conf")
	if err := os.WriteFile(tmpl, []byte("mode=plain\n#mode=upper\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := parse(t, "-target-config-template", tmpl, "-target-cmd", "srv -port {port}")
	if c.Live == nil || c.Live.ConfigTemplate != "mode=plain\n#mode=upper\n" || !reflect.DeepEqual(c.Live.Cmd, []string{"srv", "-port", "{port}"}) {
		t.Fatalf("live spec = %+v", c.Live)
	}
	if c.Live.Transport != "udp" || c.Live.Rails.RestartWindow != 30 {
		t.Fatalf("live flag defaults = %+v", c.Live)
	}
	if parse(t, "-target-rate", "5").Live != nil {
		t.Fatal("a rail alone selected a live target")
	}

	file := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(file, []byte(`{"addr":"10.0.0.1:53","transport":"tcp"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	want := &live.Spec{Addr: "10.0.0.1:53", Transport: "tcp"}
	for _, args := range [][]string{
		{"-target-spec", file, "-target-cmd", "ignored"},
		{"-target-cmd", "ignored", "-target-spec", file},
	} {
		if got := parse(t, args...).Live; !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: live spec = %+v, want %+v", args, got, want)
		}
	}
	var bad Campaign
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(new(bytes.Buffer))
	bad.Bind(fs)
	if err := fs.Parse([]string{"-target-spec", filepath.Join(dir, "missing.json")}); err == nil {
		t.Fatal("a missing -target-spec file parsed")
	}
}

// TestReencodesOldSpecs: every submit body CI and the docs post, and
// spec.json files written by the commit before this package existed,
// decode and re-encode to the same bytes — the new optional fields are
// invisible until used.
func TestReencodesOldSpecs(t *testing.T) {
	for _, body := range []string{
		`{"id":"dns-a","subject":"DNS","hours":2,"seed":11}`,
		`{"id":"mqtt-b","subject":"MQTT","hours":1,"seed":3}`,
		`{"id":"a","subject":"DNS","hours":2,"seed":11}`,
	} {
		c, err := Decode(strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := json.Marshal(c); string(got) != body {
			t.Fatalf("submit body re-encodes to %s, was %s", got, body)
		}
		if _, err := c.Options(); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
	}
	for _, name := range []string{"parent_spec.json", "parent_spec_live.json"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		c, err := Decode(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := json.MarshalIndent(c, "", "  "); !bytes.Equal(got, raw) {
			t.Fatalf("%s re-encodes to\n%s\nwas\n%s", name, got, raw)
		}
		if _, err := c.Options(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestDecodeRefusesUnknownKeys: a key that names no field is an error
// naming it, where encoding/json would run the default in its place;
// the fields ablations once set are refused with where ablations run
// now; and the keys the body does spell come back beside the error, so
// a caller can name what it refuses. The flags of those fields are
// gone too: a command line that names one does not parse.
func TestDecodeRefusesUnknownKeys(t *testing.T) {
	for body, reason := range map[string]string{
		`{"id":"typo","subject":"DNS","hours":1,"instnaces":8}`:                    `unknown field "instnaces"`,
		`{"id":"live","subject":"echo","hours":1,"live":{"addr":"h:1","rail":{}}}`: `unknown field "rail"`,
		`{"id":"alloc","subject":"DNS","hours":1,"alloc":"random"}`:                "cmbench -ablation",
		`{"id":"raw","subject":"DNS","hours":1,"raw_weights":false}`:               "cmbench -ablation",
		`{"id":"two","subject":"DNS","hours":1} {"id":"three"}`:                    "data after the campaign",
	} {
		c, err := Decode(strings.NewReader(body))
		if err == nil || !strings.HasPrefix(err.Error(), "spec: ") || !strings.Contains(err.Error(), reason) {
			t.Errorf("%s: err = %v, want a spec error naming %q", body, err, reason)
		}
		if c.ID == "" || c.Hours != 1 {
			t.Errorf("%s: decoded %+v beside the error, want its id and hours", body, c)
		}
	}
	for _, name := range []string{"alloc", "raw-weights"} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(new(bytes.Buffer))
		new(Campaign).Bind(fs)
		if err := fs.Parse([]string{"-" + name, "true"}); err == nil || !strings.Contains(err.Error(), "not defined: -"+name) {
			t.Errorf("-%s: %v, want an undefined flag", name, err)
		}
	}
}

// How each parallel.Options field gets its value. A field added to
// Options lands in none of these lists and fails TestEveryOptionHasASource
// until someone decides which it is.
var (
	// fromSpec maps an Options field to the Campaign field Options()
	// derives it from.
	fromSpec = map[string]string{
		"Mode": "Mode", "Instances": "Instances", "VirtualHours": "Hours", "Seed": "Seed",
		"DisableConfigMutation": "NoConfigMutation", "SaturationWindow": "SatWindow", "SaturationMinGain": "SatMinGain",
		"LinkLoss": "LinkLoss", "LinkLatencyBase": "LinkLatency", "LinkLatencyJitter": "LinkJitter",
	}
	// setByCaller: execution knobs and observation sinks, which change how
	// a campaign runs or is watched but not what it computes.
	setByCaller = []string{"Concurrency", "Telemetry", "Trace"}
)

func TestEveryOptionHasASource(t *testing.T) {
	source := map[string]string{}
	for f := range fromSpec {
		source[f] = "spec"
	}
	for _, f := range setByCaller {
		source[f] = "caller"
	}
	// A campaign with every defining field set away from its zero value.
	full := Campaign{Mode: "spfuzz", Hours: 3, Seed: 5, Instances: 2,
		NoConfigMutation: true, SatWindow: 60, SatMinGain: 4,
		LinkLoss: 0.5, LinkLatency: 1, LinkJitter: 2}
	opts, err := full.Options()
	if err != nil {
		t.Fatal(err)
	}
	ov, ot := reflect.ValueOf(opts), reflect.TypeOf(opts)
	for i := 0; i < ot.NumField(); i++ {
		name := ot.Field(i).Name
		switch source[name] {
		case "":
			t.Errorf("parallel.Options.%s has no source: derive it from a spec.Campaign field, or list it as set by the caller", name)
		case "spec":
			if _, ok := reflect.TypeOf(full).FieldByName(fromSpec[name]); !ok {
				t.Errorf("Options.%s is mapped to a Campaign field %q that does not exist", name, fromSpec[name])
			}
			if ov.Field(i).IsZero() {
				t.Errorf("Options.%s is still zero though Campaign.%s is set", name, fromSpec[name])
			}
		default:
			if !ov.Field(i).IsZero() {
				t.Errorf("Options() set %s, which belongs to the %s", name, source[name])
			}
		}
		delete(source, name)
	}
	for name := range source {
		t.Errorf("%s is listed but is no field of parallel.Options", name)
	}
}

// TestOptionsRejects covers every range the validator enforces; each of
// these reached parallel.NewLoop (and panicked, truncated on the wire or
// never finished) before there was one.
func TestOptionsRejects(t *testing.T) {
	ok := Campaign{Hours: 1}
	if _, err := ok.Options(); err != nil {
		t.Fatal(err)
	}
	edge := ok
	edge.Instances, edge.LinkLoss = parallel.MaxInstances, 1
	if _, err := edge.Options(); err != nil {
		t.Fatalf("boundary values rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Campaign){
		"negative instances":   func(c *Campaign) { c.Instances = -1 },
		"instances past u16":   func(c *Campaign) { c.Instances = parallel.MaxInstances + 1 },
		"billion instances":    func(c *Campaign) { c.Instances = 1000000000 },
		"zero hours":           func(c *Campaign) { c.Hours = 0 },
		"negative hours":       func(c *Campaign) { c.Hours = -1 },
		"NaN hours":            func(c *Campaign) { c.Hours = math.NaN() },
		"infinite hours":       func(c *Campaign) { c.Hours = math.Inf(1) },
		"horizon overflows":    func(c *Campaign) { c.Hours = 1e308 },
		"unknown mode":         func(c *Campaign) { c.Mode = "afl" },
		"negative sat window":  func(c *Campaign) { c.SatWindow = -1 },
		"negative sat gain":    func(c *Campaign) { c.SatMinGain = -1 },
		"link loss above one":  func(c *Campaign) { c.LinkLoss = 1.5 },
		"negative link loss":   func(c *Campaign) { c.LinkLoss = -0.1 },
		"NaN link loss":        func(c *Campaign) { c.LinkLoss = math.NaN() },
		"negative latency":     func(c *Campaign) { c.LinkLatency = -1 },
		"infinite jitter":      func(c *Campaign) { c.LinkJitter = math.Inf(1) },
		"NaN latency":          func(c *Campaign) { c.LinkLatency = math.NaN() },
		"unknown mode + range": func(c *Campaign) { c.Mode, c.Instances = "afl", -1 },
	} {
		c := ok
		mutate(&c)
		opts, err := c.Options()
		if err == nil || !strings.HasPrefix(err.Error(), "spec: ") {
			t.Errorf("%s: err = %v, want a spec error", name, err)
		}
		if !reflect.DeepEqual(opts, parallel.Options{}) {
			t.Errorf("%s: a rejected spec still produced %+v", name, opts)
		}
	}
}

func TestTarget(t *testing.T) {
	errUnknown := errors.New("unknown subject")
	resolve := func(name string) (subject.Subject, error) { return nil, errUnknown }
	if _, err := (Campaign{Subject: "DNS"}).Target(resolve); err != errUnknown {
		t.Fatalf("built-in target: err = %v, want the resolver's", err)
	}
	if _, err := (Campaign{Subject: "DNS"}).Target(nil); err == nil {
		t.Fatal("nil resolver accepted")
	}
	sub, err := Campaign{Subject: "label", Live: &live.Spec{Addr: "127.0.0.1:9"}}.Target(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sub.(*live.Subject); !ok {
		t.Fatalf("live target is a %T", sub)
	}
	if _, err := (Campaign{Live: &live.Spec{}}).Target(resolve); err == nil {
		t.Fatal("invalid live spec accepted")
	}
}
