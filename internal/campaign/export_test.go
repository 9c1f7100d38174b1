package campaign

import (
	"encoding/json"
	"reflect"
	"testing"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/spec"
)

// roundTrip marshals e the way cmbench -json does and decodes it back.
func roundTrip(t *testing.T, e *Export) Export {
	t.Helper()
	raw, err := e.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Export
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	return back
}

func TestExportJSON(t *testing.T) {
	e := &Export{
		Config: Config{Spec: spec.Campaign{Hours: 24, Instances: 4}, Repetitions: 5},
		Table1: []Table1Row{{Subject: "Dnsmasq", CMFuzz: 2212, Peach: 1377, ImprovPeach: 60.6}},
		Table2: NewTable2Export([]Table2Row{
			{Known: bugs.Table2[9], FoundBy: []string{"CMFuzz"}, TimeSec: 7200},
			{Known: bugs.Table2[0]},
		}),
	}
	back := roundTrip(t, e)
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

// TestExportTable1: cmbench -json carries every column of a Table I row.
func TestExportTable1(t *testing.T) {
	rows := []Table1Row{{Subject: "Mosquitto", CMFuzz: 8354, Peach: 5255, ImprovPeach: 59.0, SpeedupPeach: 9}}
	back := roundTrip(t, &Export{Table1: rows})
	if !reflect.DeepEqual(back.Table1, rows) {
		t.Fatalf("round trip lost data: %+v", back.Table1)
	}
}

// TestExportFigure4: cmbench -json carries the three Figure 4 curves,
// point for point.
func TestExportFigure4(t *testing.T) {
	f := Figure4Series{Subject: "X", Points: map[string][]coverage.Point{
		"CMFuzz": {{T: 0, Count: 1}, {T: 3600, Count: 5}},
		"Peach":  {{T: 0, Count: 1}, {T: 3600, Count: 3}},
		"SPFuzz": {{T: 0, Count: 1}, {T: 3600, Count: 4}},
	}}
	back := roundTrip(t, &Export{Figure4: []Figure4Series{f}})
	if !reflect.DeepEqual(back.Figure4, []Figure4Series{f}) {
		t.Fatalf("round trip lost curves: %+v", back.Figure4)
	}
	pts := back.Figure4[0].Points
	if got := [3]int{pts["CMFuzz"][1].Count, pts["Peach"][1].Count, pts["SPFuzz"][1].Count}; got != [3]int{5, 3, 4} {
		t.Fatalf("counts at 1h = %v", got)
	}
}
