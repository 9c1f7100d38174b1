// Package spec holds the one description of a campaign. Command-line
// flags, `/api/submit` bodies, a fleet's persisted spec.json and the
// cells of the evaluation matrix all fill a Campaign, and a Campaign
// becomes parallel.Options in exactly one place, Options, which
// range-checks them with parallel.Options.Validate.
//
// A Campaign carries what defines the campaign's outcome and nothing
// else. Execution knobs (parallel.Options.Concurrency, the fleet's pin
// of it to 1) and observation sinks (Telemetry, Trace) are set by the
// caller on the Options this package returns.
package spec

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cmfuzz/internal/live"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/subject"
)

// A Campaign describes one campaign. Exactly one of Subject (a built-in
// protocol or implementation name) and Live (an inline live-target
// spec) selects the fuzzing target; when Live is set, Subject serves
// only as a display label. ID names the campaign where many share a
// service (the fleet's state directory); a single run leaves it empty.
// Every optional field is omitted from the JSON when zero, so a spec
// written before the field existed re-encodes to the same bytes.
type Campaign struct {
	ID        string     `json:"id"`
	Subject   string     `json:"subject"`
	Mode      string     `json:"mode,omitempty"` // cmfuzz (default) | peach | spfuzz
	Hours     float64    `json:"hours"`
	Seed      int64      `json:"seed"`
	Instances int        `json:"instances,omitempty"` // 0 = parallel's default
	Live      *live.Spec `json:"live,omitempty"`      // live target instead of a built-in subject

	NoConfigMutation bool    `json:"no_config_mutation,omitempty"`
	SatWindow        float64 `json:"sat_window,omitempty"`   // virtual seconds; 0 = parallel's default
	SatMinGain       int     `json:"sat_min_gain,omitempty"` // edges; 0 = parallel's default
	LinkLoss         float64 `json:"link_loss,omitempty"`
	LinkLatency      float64 `json:"link_latency,omitempty"` // virtual seconds
	LinkJitter       float64 `json:"link_jitter,omitempty"`  // virtual seconds
}

// Decode reads a campaign's JSON form (a submit body, a spec.json). A
// key that names no field, which encoding/json would drop, is an error,
// as is data after the object; alloc and raw_weights, retired ablation
// fields, name where ablations run. The keys the input spells are
// decoded beside a key error, so a caller can name what it refuses.
func Decode(r io.Reader) (Campaign, error) {
	var v struct {
		Campaign
		Alloc      json.RawMessage `json:"alloc"`
		RawWeights json.RawMessage `json:"raw_weights"`
	}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&v)
	if _, next := dec.Token(); err == nil && next != io.EOF {
		err = errors.New("data after the campaign")
	}
	if err == nil && (v.Alloc != nil || v.RawWeights != nil) {
		err = errors.New("alloc and raw_weights are plan variants, not campaign fields: run ablations with cmbench -ablation")
	}
	if err != nil {
		err = fmt.Errorf("spec: %w", err)
	}
	return v.Campaign, err
}

// Bind registers the campaign flags on fs, filling c as they are parsed.
// It is the only definition of each flag's name, default and help. The
// -target-* flags build c.Live; -target-config-template and -target-spec
// read their file while parsing, so the spec that leaves here is
// complete and machine-independent.
func (c *Campaign) Bind(fs *flag.FlagSet) {
	fs.StringVar(&c.Subject, "subject", "MQTT", "subject protocol or implementation name")
	fs.StringVar(&c.Mode, "mode", "cmfuzz", "fuzzer: cmfuzz, peach or spfuzz")
	fs.Float64Var(&c.Hours, "hours", parallel.DefaultHours, "virtual campaign hours")
	fs.Int64Var(&c.Seed, "seed", 1, "campaign seed")
	fs.IntVar(&c.Instances, "n", parallel.DefaultInstances, "parallel instances")
	fs.BoolVar(&c.NoConfigMutation, "no-config-mutation", false, "disable adaptive configuration mutation (ablation)")
	fs.Float64Var(&c.SatWindow, "sat-window", 0, "saturation window in virtual seconds (0 = default 1800)")
	fs.IntVar(&c.SatMinGain, "sat-min-gain", 0, "per-window coverage gain below which an instance saturates (0 = default 8)")
	fs.Float64Var(&c.LinkLoss, "link-loss", 0, "drop each fuzzer-to-target datagram with this probability")
	fs.Float64Var(&c.LinkLatency, "link-latency", 0, "base virtual link latency per delivered message, seconds")
	fs.Float64Var(&c.LinkJitter, "link-jitter", 0, "uniform virtual latency jitter on top of -link-latency, seconds")

	// The individual -target-* flags fill target; naming a command or an
	// address makes it the campaign's live spec, unless -target-spec has
	// supplied a whole one.
	target, fromFile := new(live.Spec), false
	selected := func(v string) {
		if v != "" && !fromFile {
			c.Live = target
		}
	}
	fs.Func("target-cmd", "live target: server command line ({port} and {config} are substituted); overrides -subject",
		func(v string) error { target.Cmd = strings.Fields(v); selected(v); return nil })
	fs.Func("target-addr", "live target: attach to an already-running server at host:port (no lifecycle management)",
		func(v string) error { target.Addr = v; selected(v); return nil })
	fs.Func("target-config-template", "live target: path to the server's key=value config file template (identification input + render template)",
		func(path string) error {
			raw, err := os.ReadFile(path)
			target.ConfigTemplate = string(raw)
			return err
		})
	fs.Func("target-spec", "live target: path to a full JSON spec (overrides the individual -target-* flags)",
		func(path string) error {
			raw, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			parsed, err := live.ParseSpec(raw)
			if err == nil {
				c.Live, fromFile = &parsed, true
			}
			return err
		})
	fs.StringVar(&target.Transport, "target-transport", live.TransportUDP, "live target transport: udp or tcp")
	fs.Float64Var(&target.Rails.Rate, "target-rate", 0, "live target: max messages per wall-clock second (0 = unlimited)")
	fs.IntVar(&target.Rails.MaxRestarts, "target-max-restarts", 0, "live target: kill switch fires above this many restarts per window (0 = off)")
	fs.Float64Var(&target.Rails.RestartWindow, "target-restart-window", 30, "live target: restart-storm window in seconds")
	fs.IntVar(&target.Rails.MaxHangs, "target-max-hangs", 0, "live target: kill switch fires after this many hangs (0 = off)")
}

// Options validates c and turns it into campaign options. Zero values
// pass through for parallel's defaults to fill. Mode must be a known
// name (empty means the default); parallel.Options.Validate holds every
// value to its range.
func (c Campaign) Options() (parallel.Options, error) {
	var err error
	mode := parallel.ModeCMFuzz
	if c.Mode != "" {
		mode, err = parallel.ParseMode(c.Mode)
	}
	o := parallel.Options{
		Mode:                  mode,
		Instances:             c.Instances,
		VirtualHours:          c.Hours,
		Seed:                  c.Seed,
		DisableConfigMutation: c.NoConfigMutation,
		SaturationWindow:      c.SatWindow,
		SaturationMinGain:     c.SatMinGain,
		LinkLoss:              c.LinkLoss,
		LinkLatencyBase:       c.LinkLatency,
		LinkLatencyJitter:     c.LinkJitter,
	}
	if err == nil {
		err = o.Validate()
	}
	if err != nil {
		return parallel.Options{}, fmt.Errorf("spec: %w", err)
	}
	return o, nil
}

// Target returns the subject the campaign fuzzes: a live subject built
// from the inline spec when there is one (validated, and fresh on every
// call — a live subject carries per-campaign rails state), otherwise the
// built-in subject resolve finds under the Subject name.
func (c Campaign) Target(resolve func(string) (subject.Subject, error)) (subject.Subject, error) {
	if c.Live != nil {
		return live.NewSubject(*c.Live)
	}
	if resolve == nil {
		return nil, errors.New("spec: no subject resolver")
	}
	return resolve(c.Subject)
}
