package campaign

import (
	"fmt"
	"strings"
)

// SVG renders one Figure 4 panel as a standalone 640×360 SVG line chart
// with the three fuzzer curves, axes and a legend — the publishable
// counterpart of RenderFigure4's ASCII art.
func (f *Figure4Series) SVG() string {
	const w, h = 640, 360
	const marginL, marginR, marginT, marginB = 56, 16, 28, 40
	plotW := w - marginL - marginR
	plotH := h - marginT - marginB

	maxCount := 1
	for _, pts := range f.Points {
		for _, p := range pts {
			if p.Count > maxCount {
				maxCount = p.Count
			}
		}
	}
	horizon := f.Hours * 3600
	if horizon <= 0 {
		horizon = 1
	}

	x := func(t float64) float64 { return float64(marginL) + t/horizon*float64(plotW) }
	y := func(c int) float64 {
		return float64(marginT) + (1-float64(c)/float64(maxCount))*float64(plotH)
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n", w, h, w, h)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", w, h)
	fmt.Fprintf(&b, `<text x="%d" y="18" font-family="sans-serif" font-size="14" font-weight="bold">%s — branches over %g virtual hours</text>`+"\n",
		marginL, f.Subject, f.Hours)

	// Axes.
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n",
		marginL, marginT, marginL, marginT+plotH)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n",
		marginL, marginT+plotH, marginL+plotW, marginT+plotH)
	// Y ticks: 0, max/2, max.
	for _, c := range []int{0, maxCount / 2, maxCount} {
		fmt.Fprintf(&b, `<text x="%d" y="%.0f" font-family="sans-serif" font-size="10" text-anchor="end">%d</text>`+"\n",
			marginL-6, y(c)+3, c)
	}
	// X ticks: 0h, 6h, 12h, 18h, horizon.
	for i := 0; i <= 4; i++ {
		t := horizon * float64(i) / 4
		fmt.Fprintf(&b, `<text x="%.0f" y="%d" font-family="sans-serif" font-size="10" text-anchor="middle">%gh</text>`+"\n",
			x(t), marginT+plotH+16, f.Hours*float64(i)/4)
	}

	colors := map[string]string{"CMFuzz": "#c0392b", "Peach": "#2980b9", "SPFuzz": "#27ae60"}
	order := []string{"Peach", "SPFuzz", "CMFuzz"}
	for _, name := range order {
		pts := f.Points[name]
		if len(pts) == 0 {
			continue
		}
		var poly []string
		for _, p := range pts {
			poly = append(poly, fmt.Sprintf("%.1f,%.1f", x(p.T), y(p.Count)))
		}
		fmt.Fprintf(&b, `<polyline fill="none" stroke="%s" stroke-width="2" points="%s"/>`+"\n",
			colors[name], strings.Join(poly, " "))
	}
	// Legend.
	lx := marginL + 10
	for i, name := range []string{"CMFuzz", "Peach", "SPFuzz"} {
		ly := marginT + 14 + i*16
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="2"/>`+"\n",
			lx, ly, lx+22, ly, colors[name])
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="11">%s</text>`+"\n",
			lx+28, ly+4, name)
	}
	b.WriteString("</svg>\n")
	return b.String()
}
