package campaign

import "encoding/json"

// Export bundles one evaluation's artifacts in a machine-readable form,
// so external tooling (plotting scripts, CI dashboards) can consume the
// reproduction without scraping the rendered tables.
type Export struct {
	Config  Config          `json:"config"`
	Table1  []Table1Row     `json:"table1,omitempty"`
	Figure4 []Figure4Series `json:"figure4,omitempty"`
	Table2  []Table2Export  `json:"table2,omitempty"`
}

// Table2Export is the JSON shape of one Table II row.
type Table2Export struct {
	No       int      `json:"no"`
	Protocol string   `json:"protocol"`
	Kind     string   `json:"kind"`
	Function string   `json:"function"`
	FoundBy  []string `json:"found_by,omitempty"`
	CMFuzzH  float64  `json:"cmfuzz_hours,omitempty"`
}

// NewTable2Export converts the runner's rows.
func NewTable2Export(rows []Table2Row) []Table2Export {
	out := make([]Table2Export, 0, len(rows))
	for _, r := range rows {
		e := Table2Export{
			No:       r.Known.No,
			Protocol: r.Known.Protocol,
			Kind:     r.Known.Kind.String(),
			Function: r.Known.Function,
			FoundBy:  r.FoundBy,
		}
		for _, f := range r.FoundBy {
			if f == "CMFuzz" {
				e.CMFuzzH = r.TimeSec / 3600
			}
		}
		out = append(out, e)
	}
	return out
}

// JSON renders the export with indentation.
func (e *Export) JSON() ([]byte, error) {
	return json.MarshalIndent(e, "", "  ")
}
