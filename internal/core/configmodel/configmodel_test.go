package configmodel

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"cmfuzz/internal/core/configspec"
)

func item(name, def string, values ...string) configspec.Item {
	return configspec.Item{Name: name, Default: def, Values: values}
}

func TestInferTypeBoolean(t *testing.T) {
	for _, def := range []string{"true", "false", "yes", "no", "on", "off"} {
		e := FromItem(item("opt", def))
		if e.Type != TypeBoolean {
			t.Errorf("default %q inferred %v, want Boolean", def, e.Type)
		}
	}
	e := FromItem(item("opt", "true", "false"))
	if e.Type != TypeBoolean {
		t.Errorf("bool candidates inferred %v", e.Type)
	}
}

func TestInferTypeNumber(t *testing.T) {
	for _, def := range []string{"0", "1883", "-5", "0.5", "65535"} {
		e := FromItem(item("port", def))
		if e.Type != TypeNumber {
			t.Errorf("default %q inferred %v, want Number", def, e.Type)
		}
	}
	// Mixed numeric/non-numeric candidates are strings.
	e := FromItem(item("mode", "1", "fast"))
	if e.Type != TypeString {
		t.Errorf("mixed candidates inferred %v, want String", e.Type)
	}
}

func TestInferTypeString(t *testing.T) {
	for _, def := range []string{"/var/log/x.log", "http://a/b", "keep_last", ""} {
		e := FromItem(item("opt", def))
		if e.Type != TypeString {
			t.Errorf("default %q inferred %v, want String", def, e.Type)
		}
	}
}

func TestInferFlag(t *testing.T) {
	cases := []struct {
		it   configspec.Item
		want Flag
	}{
		{item("port", "1883"), Mutable},
		{item("enabled", "true"), Mutable},
		{item("mode", "plain", "plain", "tls", "psk"), Mutable},
		{item("opt", "/etc/mosquitto/ca.crt"), Immutable},
		{item("opt", "./relative/path"), Immutable},
		{item("endpoint", "coap://host/res"), Immutable},
		{item("upstream", "8.8.8.8"), Immutable},
		{item("log-destination", "stdout"), Mutable}, // no static hints
		{item("acl-file", "acl"), Immutable},         // name keyword
		{item("pid-holder", "x"), Immutable},
	}
	for _, c := range cases {
		if got := FromItem(c.it).Flag; got != c.want {
			t.Errorf("%s (default %q): flag = %v, want %v", c.it.Name, c.it.Default, got, c.want)
		}
	}
}

func TestTypicalValues(t *testing.T) {
	b := FromItem(item("persistence", "false"))
	if len(b.Values) != 2 {
		t.Errorf("boolean values = %v", b.Values)
	}

	n := FromItem(item("keepalive", "60"))
	want := map[string]bool{"60": true, "120": true, "0": true, "1": true}
	if len(n.Values) != len(want) {
		t.Fatalf("number values = %v", n.Values)
	}
	for _, v := range n.Values {
		if !want[v] {
			t.Errorf("unexpected number value %q", v)
		}
	}

	e := FromItem(item("auth", "none", "none", "password", "certificate"))
	if len(e.Values) != 3 {
		t.Errorf("enum values = %v", e.Values)
	}

	imm := FromItem(item("cert-file", "/a/b.crt"))
	if len(imm.Values) != 1 || imm.Values[0] != "/a/b.crt" {
		t.Errorf("immutable values = %v", imm.Values)
	}
}

func TestTypeFlagStrings(t *testing.T) {
	if TypeBoolean.String() != "Boolean" || TypeNumber.String() != "Number" ||
		TypeString.String() != "String" || Type(9).String() != "Unknown" {
		t.Error("Type.String wrong")
	}
	if Mutable.String() != "MUTABLE" || Immutable.String() != "IMMUTABLE" {
		t.Error("Flag.String wrong")
	}
}

func TestBuildModel(t *testing.T) {
	m := Build([]configspec.Item{
		item("port", "1883"),
		item("persistence", "false"),
		item("cert-file", "/a.crt"),
		item("port", "9999"), // duplicate ignored
	})
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3", m.Len())
	}
	if e, ok := m.Get("port"); !ok || e.Default != "1883" {
		t.Fatalf("Get(port) = %+v, %v", e, ok)
	}
	if _, ok := m.Get("nope"); ok {
		t.Fatal("Get(nope) succeeded")
	}
	if got := m.Entities(); got[0].Name != "port" || got[1].Name != "persistence" {
		t.Fatalf("Entities = %+v", got)
	}
	mut := m.Mutable()
	if len(mut) != 2 {
		t.Fatalf("Mutable = %d entities, want 2", len(mut))
	}
}

func TestDefaults(t *testing.T) {
	m := Build([]configspec.Item{
		item("port", "1883"),
		item("auth", "", "none", "password"),
		{Name: "bare"},
	})
	d := m.Defaults()
	if d["port"] != "1883" {
		t.Errorf("port default = %q", d["port"])
	}
	if _, ok := d["auth"]; ok {
		t.Error("defaultless entity must stay unset (disabled feature)")
	}
	if _, ok := d["bare"]; ok {
		t.Error("valueless entity should be absent from defaults")
	}
}

func TestAssignmentCloneAndString(t *testing.T) {
	a := Assignment{"b": "2", "a": "1"}
	c := a.Clone()
	c["a"] = "9"
	if a["a"] != "1" {
		t.Fatal("Clone aliases original")
	}
	if got := a.String(); got != "a=1 b=2" {
		t.Fatalf("String = %q", got)
	}
	for want, a := range map[string]Assignment{"": {}, "k=": {"k": ""}, "x=%d y=a b": {"y": "a b", "x": "%d"}} {
		if got := a.String(); got != want {
			t.Errorf("String of %#v = %q, want %q", a, got, want)
		}
	}
}

func TestRenderCLI(t *testing.T) {
	args := RenderCLI(Assignment{"port": "5683", "verbose": "true", "quiet": "false"})
	joined := strings.Join(args, " ")
	if joined != "--port=5683 --verbose" {
		t.Fatalf("RenderCLI = %q", joined)
	}
}

// Property: rendering a key-value assignment as key=value lines and
// re-extracting it recovers every binding.
func TestQuickRenderExtractRoundTrip(t *testing.T) {
	f := func(keys []string, vals []string) bool {
		a := Assignment{}
		for i, k := range keys {
			k = configspec.NormalizeName(k)
			if k == "" || strings.ContainsAny(k, "=\n# ;[]") || !isSimpleIdent(k) {
				continue
			}
			v := "v"
			if i < len(vals) {
				v = sanitizeVal(vals[i])
			}
			a[k] = v
		}
		var text strings.Builder
		for k, v := range a {
			fmt.Fprintf(&text, "%s=%s\n", k, v)
		}
		items := configspec.ExtractKeyValue(text.String())
		got := map[string]string{}
		for _, it := range items {
			got[it.Name] = it.Default
		}
		for k, v := range a {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func isSimpleIdent(s string) bool {
	for _, r := range s {
		ok := r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '-' || r == '.'
		if !ok {
			return false
		}
	}
	return s != ""
}

func sanitizeVal(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r > ' ' && r != '=' && r != '#' && r != ';' && r < 127 {
			b.WriteRune(r)
		}
	}
	if b.Len() == 0 {
		return "v"
	}
	return b.String()
}

// Property: FromItem always produces a usable entity — typed, and with a
// non-empty Values set whenever the item had any value information.
func TestQuickFromItemTotal(t *testing.T) {
	f := func(name, def string, values []string) bool {
		e := FromItem(configspec.Item{Name: name, Default: def, Values: values})
		if e.Name != name || e.Default != def {
			return false
		}
		if def != "" && len(e.Values) == 0 {
			return false
		}
		for _, v := range e.Values {
			if v == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
