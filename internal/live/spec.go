// Package live drives real protocol servers over actual UDP/TCP
// sockets — the target lives outside this repository and outside this
// process. It is the bridge between CMFuzz's virtual-clock campaign
// machinery and software that does not cooperate: a process lifecycle
// manager renders each scheduled configuration to the target's native
// surface (config file, environment, CLI flags), spawns the server,
// waits for readiness, and restarts it on every configuration mutation
// and on crash or hang; a socket transport implements the subject
// Instance contract with per-message read/write deadlines; campaign
// safety rails (a token-bucket rate limiter and a kill switch) bound
// the damage a runaway campaign can do to the host; and an inferred
// coverage layer maps (response-class, state-transition) observations
// onto the sparse coverage map so saturation detection, cohesive group
// scheduling, and the fleet bandit keep working without any
// instrumentation in the target.
//
// Determinism caveat: unlike the in-process simulation subjects, a live
// campaign is NOT reproducible bit-for-bit — process scheduling, socket
// timing, and the target's own behavior all leak wall-clock
// nondeterminism into the inferred coverage stream. The campaign
// machinery runs unchanged; only the byte-identity guarantees are
// forfeit, which is inherent to fuzzing real software.
package live

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// Transport names for Spec.Transport.
const (
	TransportUDP = "udp"
	TransportTCP = "tcp"
)

// Render modes for Spec.Render: how a scheduled configuration
// assignment reaches the target process.
const (
	RenderFile = "file" // rendered into the config file template; {config} in Cmd is the path
	RenderEnv  = "env"  // exported as CMFUZZ_CFG_<KEY>=value environment variables
	RenderCLI  = "cli"  // appended as --key=value flags
)

// Rails bounds a live campaign's interaction with the host machine.
// The zero value disables both rails.
type Rails struct {
	// Rate caps outbound messages per wall-clock second through a token
	// bucket (0 disables). Acquisition blocks; each blocking acquisition
	// counts once toward cmfuzz_target_rate_limited_total.
	Rate float64 `json:"rate,omitempty"`
	// Burst is the bucket capacity (default max(1, Rate/10)).
	Burst int `json:"burst,omitempty"`
	// MaxRestarts trips the kill switch when more than this many process
	// restarts land inside RestartWindow (0 disables storm detection).
	MaxRestarts int `json:"max_restarts,omitempty"`
	// RestartWindow is the storm-detection window in seconds (default 30).
	RestartWindow float64 `json:"restart_window,omitempty"`
	// MaxHangs trips the kill switch after this many hang events
	// (0 disables).
	MaxHangs int `json:"max_hangs,omitempty"`
}

// A Spec fully describes one live target. It is JSON-serializable so a
// fleet campaign spec can carry it to worker processes: everything a
// worker needs — including the config template content — travels
// inline, never as a path only the submitter's machine can read.
type Spec struct {
	// Name labels the target in crash reports and artifacts (default
	// "live").
	Name string `json:"name,omitempty"`
	// Cmd is the server argv. The placeholders {port} (the listen port
	// chosen per instance) and {config} (the rendered config file path,
	// RenderFile mode) are substituted in every element. Empty Cmd with
	// a non-empty Addr attaches to an already-running server instead —
	// no lifecycle management, no restarts.
	Cmd []string `json:"cmd,omitempty"`
	// Addr is the target address ("host:port") when Cmd is empty.
	Addr string `json:"addr,omitempty"`
	// Transport is "udp" or "tcp" (default "udp").
	Transport string `json:"transport,omitempty"`
	// ConfigTemplate is the target's native config file content; it is
	// both the identification input (Algorithm 1 mines items from it)
	// and the render template for scheduled assignments.
	ConfigTemplate string `json:"config_template,omitempty"`
	// ConfigName names the template file (default "target.conf").
	ConfigName string `json:"config_name,omitempty"`
	// Render selects how assignments reach the process (default "file").
	Render string `json:"render,omitempty"`
	// ReadyLine is the stdout prefix announcing readiness (default
	// "READY"). TCP targets that never print one are also probed by
	// dialing the port.
	ReadyLine string `json:"ready_line,omitempty"`
	// ReadyTimeoutMS bounds the spawn-to-ready wait (default 5000).
	ReadyTimeoutMS int `json:"ready_timeout_ms,omitempty"`
	// ReadTimeoutMS is the per-message response deadline (default 20).
	ReadTimeoutMS int `json:"read_timeout_ms,omitempty"`
	// WriteTimeoutMS is the per-message send deadline (default 100).
	WriteTimeoutMS int `json:"write_timeout_ms,omitempty"`
	// HangThreshold declares the target hung after this many consecutive
	// messages with no response (default 3); a hang kills and respawns
	// the process and counts toward Rails.MaxHangs.
	HangThreshold int `json:"hang_threshold,omitempty"`
	// PitXML overrides the generation model (default: the generic
	// byte-oriented pit in this package).
	PitXML string `json:"pit_xml,omitempty"`
	// Rails bounds the campaign's host impact.
	Rails Rails `json:"rails,omitempty"`
}

// withDefaults returns a copy of s with every defaultable field filled.
func (s Spec) withDefaults() Spec {
	if s.Name == "" {
		s.Name = "live"
	}
	if s.Transport == "" {
		s.Transport = TransportUDP
	}
	if s.ConfigName == "" {
		s.ConfigName = "target.conf"
	}
	if s.Render == "" {
		s.Render = RenderFile
	}
	if s.ReadyLine == "" {
		s.ReadyLine = "READY"
	}
	if s.ReadyTimeoutMS == 0 {
		s.ReadyTimeoutMS = 5000
	}
	if s.ReadTimeoutMS == 0 {
		s.ReadTimeoutMS = 20
	}
	if s.WriteTimeoutMS == 0 {
		s.WriteTimeoutMS = 100
	}
	if s.HangThreshold == 0 {
		s.HangThreshold = 3
	}
	if s.Rails.Rate > 0 && s.Rails.Burst == 0 {
		s.Rails.Burst = int(s.Rails.Rate / 10)
		if s.Rails.Burst < 1 {
			s.Rails.Burst = 1
		}
	}
	if s.Rails.MaxRestarts > 0 && s.Rails.RestartWindow == 0 {
		s.Rails.RestartWindow = 30
	}
	return s
}

// Validate reports the first structural problem with the spec.
func (s Spec) Validate() error {
	if len(s.Cmd) == 0 && s.Addr == "" {
		return errors.New("live: spec needs a target command or address")
	}
	if len(s.Cmd) > 0 && s.Addr != "" {
		return errors.New("live: target command and address are mutually exclusive")
	}
	switch s.Transport {
	case "", TransportUDP, TransportTCP:
	default:
		return fmt.Errorf("live: unknown transport %q", s.Transport)
	}
	switch s.Render {
	case "", RenderFile, RenderEnv, RenderCLI:
	default:
		return fmt.Errorf("live: unknown render mode %q", s.Render)
	}
	if len(s.Cmd) > 0 && strings.TrimSpace(s.Cmd[0]) == "" {
		return errors.New("live: empty target command")
	}
	return nil
}

// readyTimeout returns the spawn-to-ready bound as a duration.
func (s Spec) readyTimeout() time.Duration {
	return time.Duration(s.ReadyTimeoutMS) * time.Millisecond
}

func (s Spec) readTimeout() time.Duration {
	return time.Duration(s.ReadTimeoutMS) * time.Millisecond
}

func (s Spec) writeTimeout() time.Duration {
	return time.Duration(s.WriteTimeoutMS) * time.Millisecond
}

// ParseSpec decodes a JSON-encoded Spec and validates it. It is the
// inverse of Spec's JSON encoding and the entry point for specs carried
// over the dist wire and in -target-spec files. A key that names no
// field is an error, as is anything after the spec's object: a
// misspelt rail would otherwise run unrailed.
func ParseSpec(raw []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	err := dec.Decode(&s)
	if err == nil {
		if _, next := dec.Token(); next != io.EOF {
			err = errors.New("data after the spec")
		}
	}
	if err != nil {
		return Spec{}, fmt.Errorf("live: spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// JSON renders the spec for transport. Defaults are not baked in: the
// receiving side re-applies them, so the encoding stays minimal.
func (s Spec) JSON() string {
	raw, err := json.Marshal(s)
	if err != nil {
		// Spec is a plain data struct; Marshal cannot fail on it.
		panic(err)
	}
	return string(raw)
}
