// Package metrics is a zero-dependency Prometheus-style metrics
// registry: counters, gauges and histograms, exposed in the Prometheus
// text exposition format for the /metrics endpoint of the campaign
// monitor (package monitor).
//
// Like the rest of the observability layer it is nil-safe end to end: a
// nil *Registry registers nothing and hands out nil histograms, and
// Observe on a nil histogram is a cheap no-op, so instrumented code
// never branches on whether monitoring is enabled.
//
// Counters and gauges are pulled: CounterFunc, GaugeFunc and Collect
// are evaluated at exposition time, which is how live campaign state —
// instances running, per-instance edges, probe-cache hit rate — is
// published without touching the deterministic hot path. The one
// stateful instrument, Histogram, is updated at the emission site and
// is safe for concurrent use.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// A Label is one name="value" pair attached to a series.
type Label struct {
	Name  string
	Value string
}

// L builds a label (shorthand used at call sites).
func L(name, value string) Label { return Label{Name: name, Value: value} }

// instrument kinds, also the TYPE strings of the exposition format.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// series is one labeled sample stream of a family.
type series struct {
	labels []Label

	// pull callback of a counter or gauge, evaluated at exposition.
	fn func() float64

	// histogram state.
	buckets []float64 // upper bounds, ascending, +Inf excluded
	counts  []uint64  // one per bucket
	sum     float64
	count   uint64
}

// family is every series sharing one metric name.
type family struct {
	help string
	typ  string

	series map[string]*series // keyed by label signature
	order  []string
}

// A Registry holds metric families and renders them in the Prometheus
// text format. The nil *Registry is a no-op sink. Safe for concurrent
// use from any number of goroutines.
type Registry struct {
	mu         sync.Mutex
	families   map[string]*family
	order      []string
	collectors []Collector
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// nameOK validates a metric or label name against the Prometheus
// grammar [a-zA-Z_:][a-zA-Z0-9_:]* (labels additionally forbid ':', but
// we keep one check — none of our labels use it).
func nameOK(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// signature renders labels into a canonical map key (sorted by name).
func signature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	for _, l := range ls {
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(';')
	}
	return b.String()
}

// lookup returns (creating if needed) the series for name+labels,
// checking the family type. r.mu must be held.
func (r *Registry) lookup(name, help, typ string, labels []Label) *series {
	if !nameOK(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !nameOK(l.Name) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %q", l.Name, name))
		}
	}
	fam, ok := r.families[name]
	if !ok {
		fam = &family{help: help, typ: typ, series: make(map[string]*series)}
		r.families[name] = fam
		r.order = append(r.order, name)
	} else if fam.typ != typ {
		panic(fmt.Sprintf("metrics: %q registered as %s, requested as %s", name, fam.typ, typ))
	}
	sig := signature(labels)
	s, ok := fam.series[sig]
	if !ok {
		s = &series{labels: append([]Label(nil), labels...)}
		fam.series[sig] = s
		fam.order = append(fam.order, sig)
	}
	return s
}

// CounterFunc registers a pull counter evaluated at exposition time.
// fn must be monotonically nondecreasing and safe for concurrent calls.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lookup(name, help, typeCounter, labels).fn = fn
}

// GaugeFunc registers a pull gauge evaluated at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lookup(name, help, typeGauge, labels).fn = fn
}

// A Histogram samples observations into cumulative buckets.
type Histogram struct {
	r *Registry
	s *series
}

// DefBuckets is a general-purpose duration bucket layout in seconds
// (50us .. ~160s, doubling), tuned for probe and span latencies.
var DefBuckets = []float64{
	0.00005, 0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 60,
}

// Histogram registers (or finds) the histogram name{labels} with the
// given ascending upper bounds (+Inf is implicit; nil means
// DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q buckets not ascending", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookup(name, help, typeHistogram, labels)
	if s.buckets == nil {
		s.buckets = append([]float64(nil), buckets...)
		s.counts = make([]uint64, len(buckets))
	}
	return &Histogram{r: r, s: s}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.r.mu.Lock()
	for i, ub := range h.s.buckets {
		if v <= ub {
			h.s.counts[i]++
			break
		}
	}
	h.s.sum += v
	h.s.count++
	h.r.mu.Unlock()
}

// A Collector publishes gauge samples computed on the fly at each
// exposition — the hook live campaign snapshots hang off. The set
// callback may be invoked any number of times; every sample it
// publishes is typed gauge.
type Collector func(set func(name, help string, value float64, labels ...Label))

// Collect registers fn to run at every exposition.
func (r *Registry) Collect(fn Collector) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// escapeHelp escapes a HELP string per the text format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the text format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatValue renders a sample value the way Prometheus does.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return fmt.Sprintf("%g", v)
}

// renderLabels renders {a="b",c="d"} (empty string for no labels).
func renderLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	parts := make([]string, len(all))
	for i, l := range all {
		parts[i] = l.Name + `="` + escapeLabel(l.Value) + `"`
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WriteText renders every family in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, each preceded by its
// HELP and TYPE comments; collector samples are folded in as gauges.
// Nil registries write nothing.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	collectors := append([]Collector(nil), r.collectors...)
	r.mu.Unlock()

	// Run collectors outside the registry lock (they snapshot other
	// locked structures), folding their samples into an overlay.
	type dynSample struct {
		value  float64
		labels []Label
	}
	type dynFamily struct {
		help  string
		order []string
		bySig map[string]dynSample
	}
	dyn := make(map[string]*dynFamily)
	var dynOrder []string
	for _, fn := range collectors {
		fn(func(name, help string, value float64, labels ...Label) {
			if !nameOK(name) {
				return
			}
			f, ok := dyn[name]
			if !ok {
				f = &dynFamily{help: help, bySig: make(map[string]dynSample)}
				dyn[name] = f
				dynOrder = append(dynOrder, name)
			}
			sig := signature(labels)
			if _, dup := f.bySig[sig]; !dup {
				f.order = append(f.order, sig)
			}
			f.bySig[sig] = dynSample{value: value, labels: append([]Label(nil), labels...)}
		})
	}

	r.mu.Lock()
	defer r.mu.Unlock()

	names := append([]string(nil), r.order...)
	for _, n := range dynOrder {
		if _, exists := r.families[n]; !exists {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	var b strings.Builder
	for _, name := range names {
		fam := r.families[name]
		df := dyn[name]
		help, typ := "", typeGauge
		if fam != nil {
			help, typ = fam.help, fam.typ
		} else if df != nil {
			help = df.help
		}
		if help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", name, escapeHelp(help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, typ)
		if fam != nil {
			for _, sig := range fam.order {
				s := fam.series[sig]
				switch typ {
				case typeHistogram:
					cum := uint64(0)
					for i, ub := range s.buckets {
						cum += s.counts[i]
						fmt.Fprintf(&b, "%s_bucket%s %d\n", name,
							renderLabels(s.labels, L("le", formatValue(ub))), cum)
					}
					fmt.Fprintf(&b, "%s_bucket%s %d\n", name,
						renderLabels(s.labels, L("le", "+Inf")), s.count)
					fmt.Fprintf(&b, "%s_sum%s %s\n", name, renderLabels(s.labels), formatValue(s.sum))
					fmt.Fprintf(&b, "%s_count%s %d\n", name, renderLabels(s.labels), s.count)
				default:
					fn := s.fn
					r.mu.Unlock()
					v := fn()
					r.mu.Lock()
					fmt.Fprintf(&b, "%s%s %s\n", name, renderLabels(s.labels), formatValue(v))
				}
			}
		}
		if df != nil && (fam == nil || fam.typ == typeGauge) {
			for _, sig := range df.order {
				if fam != nil {
					if _, static := fam.series[sig]; static {
						continue // static series wins over a collector dup
					}
				}
				s := df.bySig[sig]
				fmt.Fprintf(&b, "%s%s %s\n", name, renderLabels(s.labels), formatValue(s.value))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
