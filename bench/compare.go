package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// readRecords loads a JSON-lines result file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

// spread is the distance between the first and third quartile as a share
// of the median, with the quartiles Python's statistics.quantiles(n=4)
// gives, which is what the driver computes.
func spread(xs []float64) float64 {
	n := len(xs)
	med := median(xs)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	iqr := quartile(3) - quartile(1)
	if med < 0 {
		med = -med
	}
	return iqr / med
}

// verdict applies one metric's bound to two sets of runs. A spread wider
// than the bound leaves the pair unresolved unless every run of b reads
// no worse than every run of a.
func verdict(d metricDef, a, b []float64) string {
	worse := func(x, y float64) float64 { // how much worse y is than x, as a share of x
		if d.Better == "higher" {
			return (x - y) / x
		}
		return (y - x) / x
	}
	if spread(a) > d.Bound || spread(b) > d.Bound {
		for _, x := range a {
			for _, y := range b {
				if worse(x, y) > 0 {
					return "unresolved"
				}
			}
		}
		return "ok"
	}
	if worse(median(a), median(b)) > d.Bound {
		return "regressed"
	}
	return "ok"
}

// compareFiles prints one row per (workload, end-to-end metric) with both
// medians, both spreads and the verdict, then the exact checks: failures,
// executions, digests, and every per-layer metric whose unit is "count".
func compareFiles(root, pathA, pathB string, w io.Writer) (regressed bool, err error) {
	defs, err := loadDefs(root)
	if err != nil {
		return false, err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbound\tmedian a\tspread a\tmedian b\tspread b\truns\tverdict")
	for _, wl := range workloads {
		ra, rb := pick(a, wl.name, false), pick(b, wl.name, false)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, d := range defs.EndToEnd {
			va, vb := metricValues(ra, d.Name), metricValues(rb, d.Name)
			v := verdict(d, va, vb)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(tw, "%s\t%s\t%.0f%%\t%.6g\t%.1f%%\t%.6g\t%.1f%%\t%d+%d\t%s\n", wl.name, d.Name, d.Bound*100,
				median(va), spread(va)*100, median(vb), spread(vb)*100, len(va), len(vb), v)
		}
		same := func(ok bool) string {
			if ok {
				return "ok"
			}
			return "differs"
		}
		fmt.Fprintf(tw, "%s\tfailed campaigns\t0\t%d\t\t%d\t\t\t%s\n", wl.name, failures(ra), failures(rb), same(failures(ra)+failures(rb) == 0))
		fmt.Fprintf(tw, "%s\texecs per repetition\texact\t%s\t\t%s\t\t\t%s\n", wl.name, execsOf(ra), execsOf(rb), same(execsOf(ra) == execsOf(rb)))
		fmt.Fprintf(tw, "%s\tartifact digests\texact\t\t\t\t\t\t%s\n", wl.name, same(digestsOf(ra) == digestsOf(rb)))
		ta, tb := pick(a, wl.name, true), pick(b, wl.name, true)
		if len(ta) == 0 || len(tb) == 0 {
			continue
		}
		for _, d := range defs.PerLayer {
			if d.Unit != "count" {
				continue
			}
			x, y := ta[0].Metrics[d.Name].Value, tb[0].Metrics[d.Name].Value
			if x != y {
				fmt.Fprintf(tw, "%s\t%s\texact\t%g\t\t%g\t\t\tdiffers\n", wl.name, d.Name, x, y)
			}
		}
	}
	return regressed, tw.Flush()
}

func pick(recs []record, workload string, traced bool) []record {
	var out []record
	for _, r := range recs {
		if r.Workload == workload && r.Trace == traced {
			out = append(out, r)
		}
	}
	return out
}

func metricValues(recs []record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		out = append(out, r.Metrics[name].Value)
	}
	return out
}

func failures(recs []record) int {
	n := 0
	for _, r := range recs {
		n += r.Failed
	}
	return n
}

// execsOf and digestsOf fold a set of runs to one comparable string; the
// simulated statistics repeat exactly, so a clean set folds to one value.
func execsOf(recs []record) string {
	seen := map[string]bool{}
	for _, r := range recs {
		seen[fmt.Sprint(r.Execs)] = true
	}
	return joinSorted(seen)
}

func digestsOf(recs []record) string {
	seen := map[string]bool{}
	for _, r := range recs {
		for id, d := range r.Digests {
			seen[id+"="+d] = true
		}
	}
	return joinSorted(seen)
}

func joinSorted(set map[string]bool) string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}
