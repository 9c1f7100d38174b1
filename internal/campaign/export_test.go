package campaign

import (
	"encoding/json"
	"strings"
	"testing"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/spec"
)

func TestExportJSON(t *testing.T) {
	e := &Export{
		Config: Config{Spec: spec.Campaign{Hours: 24, Instances: 4}, Repetitions: 5},
		Table1: []Table1Row{{Subject: "Dnsmasq", CMFuzz: 2212, Peach: 1377, ImprovPeach: 60.6}},
		Table2: NewTable2Export([]Table2Row{
			{Known: bugs.Table2[9], FoundBy: []string{"CMFuzz"}, TimeSec: 7200},
			{Known: bugs.Table2[0]},
		}),
	}
	raw, err := e.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Export
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Table1[0].CMFuzz != 2212 {
		t.Fatalf("round trip lost data: %+v", back.Table1)
	}
	if back.Table2[0].CMFuzzH != 2 {
		t.Fatalf("discovery hours = %v", back.Table2[0].CMFuzzH)
	}
	if len(back.Table2[1].FoundBy) != 0 {
		t.Fatal("unfound row has finders")
	}
}

func TestTable1CSV(t *testing.T) {
	csv := Table1CSV([]Table1Row{{Subject: "Mosquitto", CMFuzz: 8354, Peach: 5255, ImprovPeach: 59.0, SpeedupPeach: 9}})
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[1], "Mosquitto,8354,5255,59.0,9.0") {
		t.Fatalf("csv row = %q", lines[1])
	}
}

func TestFigure4CSV(t *testing.T) {
	f := &Figure4Series{
		Subject: "X",
		Points: map[string][]coverage.Point{
			"CMFuzz": {{T: 0, Count: 1}, {T: 3600, Count: 5}},
			"Peach":  {{T: 0, Count: 1}, {T: 3600, Count: 3}},
			"SPFuzz": {{T: 0, Count: 1}, {T: 3600, Count: 4}},
		},
	}
	csv := Figure4CSV(f)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if lines[2] != "1.00,5,3,4" {
		t.Fatalf("row = %q", lines[2])
	}
}
