package fleet_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cmfuzz/internal/fleet"
	"cmfuzz/internal/live"
	"cmfuzz/internal/protocols"
)

// TestRecoveryQuarantinesCorruptCheckpoint pins the recovery scan's
// handling of a checkpoint.bin that does not validate — garbage, or the
// header of a version-3 checkpoint an older build wrote: the blob is
// renamed aside, a checkpoint_quarantined flight entry carries the
// decode error, and the campaign stays queued, re-runs from spec.json
// and finishes with its standalone run's tree, while the healthy
// campaign beside it recovers too.
func TestRecoveryQuarantinesCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	specs := map[string]fleet.CampaignSpec{}
	for _, id := range []string{"bad", "good", "old"} {
		spec := fleet.CampaignSpec{ID: id, Subject: "dns", Hours: 0.1, Seed: 1}
		specs[id] = spec
		cdir := filepath.Join(dir, id)
		if err := os.MkdirAll(cdir, 0o755); err != nil {
			t.Fatal(err)
		}
		raw, _ := json.Marshal(spec)
		if err := os.WriteFile(filepath.Join(cdir, "spec.json"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	magic := "cmfuzz-checkpoint"
	blobs := map[string]string{
		"bad": "definitely not a checkpoint",
		"old": string([]byte{0, byte(len(magic))}) + magic + "\x03" + "journals and mirrors",
	}
	for id, blob := range blobs {
		if err := os.WriteFile(filepath.Join(dir, id, "checkpoint.bin"), []byte(blob), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	pool, stop := newPool(t, 1)
	defer stop()
	m, err := fleet.NewManager(fleet.Config{StateDir: dir}, pool, protocols.ByName)
	if err != nil {
		t.Fatalf("recovery scan aborted on corrupt checkpoint: %v", err)
	}
	for id, want := range map[string]string{"bad": "not a checkpoint", "old": "checkpoint version 3"} {
		if st := findStatus(t, m, id); st.State != fleet.StateQueued || st.Error != "" {
			t.Fatalf("%s campaign recovered %s (%q), want queued", id, st.State, st.Error)
		}
		ckPath := filepath.Join(dir, id, "checkpoint.bin")
		if _, err := os.Stat(ckPath); !os.IsNotExist(err) {
			t.Fatalf("corrupt checkpoint still at %s (stat err %v), want renamed aside", ckPath, err)
		}
		if raw, err := os.ReadFile(ckPath + ".corrupt"); err != nil || string(raw) != blobs[id] {
			t.Fatalf("quarantined blob %q (%v), want the one written", raw, err)
		}
		doc, _ := m.Flight(id)
		quarantined := false
		for _, e := range doc.Events {
			if msg, _ := e.Detail.(map[string]any)["error"].(string); e.Kind == "checkpoint_quarantined" && strings.Contains(msg, want) {
				quarantined = true
			}
		}
		if !quarantined {
			t.Fatalf("%s: no checkpoint_quarantined flight entry naming %q: %+v", id, want, doc.Events)
		}
	}
	if good := findStatus(t, m, "good"); good.State != fleet.StateQueued {
		t.Fatalf("good campaign state = %s, want %s", good.State, fleet.StateQueued)
	}
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := standaloneTree(t, specs["bad"])
	for id := range specs {
		if st := findStatus(t, m, id); st.State != fleet.StateDone {
			t.Fatalf("%s ended %s (%s), want done", id, st.State, st.Error)
		}
		diffTrees(t, id, want, readTree(t, filepath.Join(dir, id, "artifacts")))
	}
}

// TestSubmitLiveSpec pins live-target submission: an inline live spec
// replaces the built-in subject lookup, and an invalid one is rejected
// at submit time instead of failing the campaign's first slice.
func TestSubmitLiveSpec(t *testing.T) {
	pool, stop := newPool(t, 1)
	defer stop()
	m, err := fleet.NewManager(fleet.Config{StateDir: t.TempDir()}, pool, protocols.ByName)
	if err != nil {
		t.Fatal(err)
	}
	err = m.Submit(fleet.CampaignSpec{
		ID: "live-bad", Subject: "echo", Hours: 0.1,
		Live: &live.Spec{}, // neither Cmd nor Addr: invalid
	})
	if err == nil {
		t.Fatal("Submit accepted an invalid live spec")
	}
	err = m.Submit(fleet.CampaignSpec{
		ID: "live-ok", Subject: "echo", Hours: 0.1,
		Live: &live.Spec{Cmd: []string{"/bin/echo-server", "-port", "{port}"}},
	})
	if err != nil {
		t.Fatalf("Submit rejected a valid live spec: %v", err)
	}
	if st := findStatus(t, m, "live-ok"); st.State != fleet.StateQueued {
		t.Fatalf("live campaign state = %s, want %s", st.State, fleet.StateQueued)
	}
}

// TestSubmitRejectsUnknownMode: a spec's mode goes through
// parallel.ParseMode ("" meaning CMFuzz, any case accepted); an unknown
// one is refused with the campaign named, before anything is written to
// the state directory.
func TestSubmitRejectsUnknownMode(t *testing.T) {
	pool, stop := newPool(t, 1)
	defer stop()
	state := t.TempDir()
	m, err := fleet.NewManager(fleet.Config{StateDir: state}, pool, protocols.ByName)
	if err != nil {
		t.Fatal(err)
	}
	err = m.Submit(fleet.CampaignSpec{ID: "bad-mode", Subject: "DNS", Mode: "afl", Hours: 0.1})
	if err == nil || !strings.Contains(err.Error(), `campaign "bad-mode"`) || !strings.Contains(err.Error(), `unknown mode "afl"`) {
		t.Fatalf("Submit with mode afl = %v, want an unknown-mode error naming the campaign", err)
	}
	if entries, err := os.ReadDir(state); err != nil || len(entries) != 0 {
		t.Fatalf("state dir after a rejected submit: %v, err %v; want empty", entries, err)
	}
	for _, mode := range []string{"", "PEACH", "spfuzz"} {
		if err := m.Submit(fleet.CampaignSpec{ID: "ok-" + mode, Subject: "DNS", Mode: mode, Hours: 0.1}); err != nil {
			t.Fatalf("Submit with mode %q: %v", mode, err)
		}
	}
}

// TestSubmitRejectsOutOfRangeSpec: bodies that used to be answered 202,
// persisted, and then panicked the scheduler in parallel.NewLoop on the
// first slice (and on every restart that recovered them) are refused at
// the door with the reason, and nothing reaches the state directory.
func TestSubmitRejectsOutOfRangeSpec(t *testing.T) {
	pool, stop := newPool(t, 1)
	defer stop()
	state := t.TempDir()
	m, err := fleet.NewManager(fleet.Config{StateDir: state}, pool, protocols.ByName)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(m.APIHandler())
	defer srv.Close()
	for body, reason := range map[string]string{
		`{"id":"neg","subject":"DNS","hours":1,"instances":-1}`:         "instances -1",
		`{"id":"inf","subject":"DNS","hours":1e308}`:                    "hours 1e+308",
		`{"id":"big","subject":"DNS","hours":1,"instances":1000000000}`: "instances 1000000000",
		`{"id":"loss","subject":"DNS","hours":1,"link_loss":2}`:         "link_loss 2",
		`{"id":"mode","subject":"DNS","hours":1,"mode":"afl"}`:          `unknown mode "afl"`,
	} {
		resp, err := http.Post(srv.URL+"/api/submit", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), reason) {
			t.Errorf("%s: %d %q, want 400 naming %q", body, resp.StatusCode, raw, reason)
		}
		var spec fleet.CampaignSpec
		if err := json.Unmarshal([]byte(body), &spec); err != nil {
			t.Fatal(err)
		}
		if m.Submit(spec) == nil {
			t.Errorf("Manager.Submit accepted %s", body)
		}
	}
	// Bodies no CampaignSpec can hold: a misspelt key, which would
	// otherwise run the default, and the keys ablations once used.
	for body, reason := range map[string]string{
		`{"id":"typo","subject":"DNS","hours":1,"instnaces":8}`:     `unknown field "instnaces"`,
		`{"id":"alloc","subject":"DNS","hours":1,"alloc":"random"}`: "cmbench -ablation",
		`{"id":"raw","subject":"DNS","hours":1,"raw_weights":true}`: "cmbench -ablation",
	} {
		resp, err := http.Post(srv.URL+"/api/submit", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), reason) {
			t.Errorf("%s: %d %q, want 400 naming %q", body, resp.StatusCode, raw, reason)
		}
	}
	if entries, err := os.ReadDir(state); err != nil || len(entries) != 0 {
		t.Fatalf("state dir after rejected submits: %v, err %v; want empty", entries, err)
	}
	if ok, err := m.Step(context.Background()); ok || err != nil {
		t.Fatalf("Step with nothing accepted = %v, %v", ok, err)
	}
}

// TestRecoveryFailsUndecodableSpec: a campaign directory whose spec.json
// is not JSON (torn, or damaged on disk) comes back failed under the
// directory's name with the decode error, instead of vanishing from
// /api/status; a directory without a spec.json is no campaign and stays
// out, and the campaign beside them recovers and drains.
func TestRecoveryFailsUndecodableSpec(t *testing.T) {
	dir := t.TempDir()
	for id, raw := range map[string]string{
		"torn": `{"id":"torn","subject":"DN`,
		"good": `{"id":"good","subject":"DNS","hours":0.05,"seed":1,"instances":2}`,
		"bare": "",
	} {
		if err := os.MkdirAll(filepath.Join(dir, id), 0o755); err != nil {
			t.Fatal(err)
		}
		if raw == "" {
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, id, "spec.json"), []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pool, stop := newPool(t, 1)
	defer stop()
	m, err := fleet.NewManager(fleet.Config{StateDir: dir}, pool, protocols.ByName)
	if err != nil {
		t.Fatal(err)
	}
	if torn := findStatus(t, m, "torn"); torn.State != fleet.StateFailed || !strings.Contains(torn.Error, "unexpected EOF") {
		t.Fatalf("undecodable spec recovered as %s (%q), want failed with the decode error", torn.State, torn.Error)
	}
	for _, st := range m.Status() {
		if st.ID == "bare" {
			t.Fatalf("a directory without spec.json recovered as campaign %+v", st)
		}
	}
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if good := findStatus(t, m, "good"); good.State != fleet.StateDone {
		t.Fatalf("healthy neighbour ended %s (%s)", good.State, good.Error)
	}
	if torn := findStatus(t, m, "torn"); torn.State != fleet.StateFailed {
		t.Fatalf("undecodable campaign ended %s", torn.State)
	}
}

// TestRecoveryFailsInvalidSpec: a spec.json Submit would refuse today —
// left by a build that did not validate, or written by hand — comes
// back failed with the reason instead of panicking the scheduler on
// every restart, and the campaigns around it recover and drain.
func TestRecoveryFailsInvalidSpec(t *testing.T) {
	dir := t.TempDir()
	for id, raw := range map[string]string{
		"evil":     `{"id":"evil","subject":"DNS","hours":1,"seed":1,"instances":-1}`,
		"good":     `{"id":"good","subject":"DNS","hours":0.05,"seed":1,"instances":2}`,
		"ablation": `{"id":"ablation","subject":"DNS","hours":0.05,"seed":1,"alloc":"random"}`,
	} {
		if err := os.MkdirAll(filepath.Join(dir, id), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, id, "spec.json"), []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pool, stop := newPool(t, 1)
	defer stop()
	m, err := fleet.NewManager(fleet.Config{StateDir: dir}, pool, protocols.ByName)
	if err != nil {
		t.Fatal(err)
	}
	evil := findStatus(t, m, "evil")
	if evil.State != fleet.StateFailed || !strings.Contains(evil.Error, "instances -1") {
		t.Fatalf("invalid spec recovered as %s (%q), want failed with the reason", evil.State, evil.Error)
	}
	// A spec that names a retired ablation field would run the paper's
	// plan in its place; it is failed, with where ablations run now.
	if abl := findStatus(t, m, "ablation"); abl.State != fleet.StateFailed || !strings.Contains(abl.Error, "cmbench -ablation") {
		t.Fatalf("spec naming alloc recovered as %s (%q), want failed naming cmbench -ablation", abl.State, abl.Error)
	}
	// An omitted mode reads back as the fuzzer that will run.
	if good := findStatus(t, m, "good"); good.State != fleet.StateQueued || good.Mode != "CMFuzz" {
		t.Fatalf("healthy neighbour recovered as %s mode %q", good.State, good.Mode)
	}
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if good := findStatus(t, m, "good"); good.State != fleet.StateDone {
		t.Fatalf("healthy neighbour ended %s (%s)", good.State, good.Error)
	}
	if evil := findStatus(t, m, "evil"); evil.State != fleet.StateFailed {
		t.Fatalf("invalid campaign ended %s", evil.State)
	}
}
