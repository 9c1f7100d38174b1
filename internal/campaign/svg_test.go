package campaign

import (
	"encoding/xml"
	"strings"
	"testing"

	"cmfuzz/internal/coverage"
)

func sampleFigure() *Figure4Series {
	return &Figure4Series{
		Subject: "Dnsmasq",
		Hours:   24,
		Points: map[string][]coverage.Point{
			"CMFuzz": {{T: 0, Count: 100}, {T: 43200, Count: 1800}, {T: 86400, Count: 2200}},
			"Peach":  {{T: 0, Count: 40}, {T: 43200, Count: 1200}, {T: 86400, Count: 1380}},
			"SPFuzz": {{T: 0, Count: 40}, {T: 43200, Count: 1250}, {T: 86400, Count: 1400}},
		},
	}
}

func TestSVGWellFormed(t *testing.T) {
	out := sampleFigure().SVG()
	dec := xml.NewDecoder(strings.NewReader(out))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				break
			}
			t.Fatalf("SVG not well-formed XML: %v", err)
		}
	}
	if c := strings.Count(out, "<polyline"); c != 3 {
		t.Fatalf("polylines = %d, want 3", c)
	}
	for _, want := range []string{"Dnsmasq", "CMFuzz", "Peach", "SPFuzz", "24h"} {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
}

func TestSVGCanvasSize(t *testing.T) {
	out := sampleFigure().SVG()
	if !strings.Contains(out, `width="640" height="360" viewBox="0 0 640 360"`) {
		t.Fatal("canvas is not 640×360")
	}
}

func TestSVGEmptyCurvesSafe(t *testing.T) {
	f := &Figure4Series{Subject: "Empty", Hours: 24, Points: map[string][]coverage.Point{}}
	out := f.SVG()
	if !strings.Contains(out, "</svg>") {
		t.Fatal("degenerate figure did not render")
	}
}
