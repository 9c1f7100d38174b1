// Package subjecttest is a reusable conformance suite for protocol
// subjects: every Subject implementation must satisfy the contract the
// fuzzing stack relies on — deterministic startup coverage, total
// robustness against arbitrary input bytes (the only permitted panic is
// a seeded *bugs.Crash), session isolation, read-only payloads, and a Pit
// document whose models actually drive the implementation.
package subjecttest

import (
	"bytes"
	"math/rand"
	"testing"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/core/configmodel"
	"cmfuzz/internal/core/configspec"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/fuzz"
	"cmfuzz/internal/subject"
)

// Run executes the full conformance suite against sub.
func Run(t *testing.T, sub subject.Subject) {
	t.Helper()
	t.Run("Info", func(t *testing.T) { testInfo(t, sub) })
	t.Run("DefaultsBoot", func(t *testing.T) { testDefaultsBoot(t, sub) })
	t.Run("StartupDeterministic", func(t *testing.T) { testStartupDeterministic(t, sub) })
	t.Run("ExtractionYieldsModel", func(t *testing.T) { testExtraction(t, sub) })
	t.Run("PitDrivesSubject", func(t *testing.T) { testPit(t, sub) })
	t.Run("RobustAgainstGarbage", func(t *testing.T) { testGarbage(t, sub) })
	t.Run("MutatedPitTraffic", func(t *testing.T) { testMutatedTraffic(t, sub) })
	t.Run("SessionReset", func(t *testing.T) { testSessionReset(t, sub) })
	t.Run("PayloadReadOnly", func(t *testing.T) { PayloadReadOnly(t, sub, defaults(sub), 200) })
	t.Run("DefaultConfigFindsNoSeededBugs", func(t *testing.T) { testNoDefaultBugs(t, sub) })
}

func testInfo(t *testing.T, sub subject.Subject) {
	info := sub.Info()
	if info.Protocol == "" || info.Implementation == "" || info.Port == 0 {
		t.Fatalf("incomplete info: %+v", info)
	}
}

// defaults builds the default assignment from the subject's own extracted
// model — the configuration every baseline instance runs.
func defaults(sub subject.Subject) map[string]string {
	model := configmodel.Build(configspec.Extract(sub.ConfigInput()))
	return map[string]string(model.Defaults())
}

func testDefaultsBoot(t *testing.T, sub subject.Subject) {
	inst := sub.NewInstance()
	defer inst.Close()
	tr := coverage.NewTrace()
	if err := inst.Start(defaults(sub), tr); err != nil {
		t.Fatalf("default configuration fails startup: %v", err)
	}
	if tr.Count() == 0 {
		t.Fatal("startup produced no coverage")
	}
}

func testStartupDeterministic(t *testing.T, sub subject.Subject) {
	cov := func() int { return subject.Probe(sub, defaults(sub)) }
	a, b := cov(), cov()
	if a != b || a == 0 {
		t.Fatalf("startup coverage nondeterministic or empty: %d vs %d", a, b)
	}
}

func testExtraction(t *testing.T, sub subject.Subject) {
	items := configspec.Extract(sub.ConfigInput())
	if len(items) < 10 {
		t.Fatalf("only %d configuration items extracted", len(items))
	}
	model := configmodel.Build(items)
	mutable := 0
	for _, e := range model.Entities() {
		if e.Flag == configmodel.Mutable && len(e.Values) > 1 {
			mutable++
		}
	}
	if mutable < 5 {
		t.Fatalf("only %d mutable multi-valued entities — nothing to schedule", mutable)
	}
}

func testPit(t *testing.T, sub subject.Subject) {
	pit, err := fuzz.ParsePit(sub.PitXML())
	if err != nil {
		t.Fatalf("pit does not parse: %v", err)
	}
	if len(pit.DataModels) < 3 {
		t.Fatalf("only %d data models", len(pit.DataModels))
	}
	if len(pit.StateModels) != 1 {
		t.Fatalf("%d state models, want exactly 1", len(pit.StateModels))
	}
	var sm *fuzz.StateModel
	for _, m := range pit.StateModels {
		sm = m
	}
	if len(sm.Paths(12, 64)) < 2 {
		t.Fatal("state model has fewer than 2 distinct paths — SPFuzz cannot partition it")
	}

	// Unmutated pit traffic must reach real handling code: coverage from
	// one clean walk must clearly exceed startup-only coverage.
	inst := sub.NewInstance()
	defer inst.Close()
	startTr := coverage.NewTrace()
	if err := inst.Start(defaults(sub), startTr); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	runTr := coverage.NewTrace()
	inst.SetTrace(runTr)
	inst.NewSession()
	for _, name := range sm.Walk(r, 8) {
		dm := pit.DataModels[name]
		if dm == nil {
			t.Fatalf("state model outputs unknown data model %q", name)
		}
		if crash := bugs.Capture(func() { inst.Message(dm.NewMessage(r).Serialize()) }); crash != nil {
			t.Fatalf("clean pit traffic crashed: %v", crash)
		}
	}
	if runTr.Count() < 10 {
		t.Fatalf("clean pit walk produced only %d edges — models do not reach the implementation", runTr.Count())
	}
}

// testGarbage feeds random bytes; any panic that is not a typed crash is
// a harness bug in the subject's parser.
func testGarbage(t *testing.T, sub subject.Subject) {
	inst := sub.NewInstance()
	defer inst.Close()
	if err := inst.Start(defaults(sub), coverage.NewTrace()); err != nil {
		t.Fatal(err)
	}
	inst.SetTrace(coverage.NewTrace())
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 3000; i++ {
		n := r.Intn(200)
		data := make([]byte, n)
		r.Read(data)
		if i%7 == 0 {
			inst.NewSession()
		}
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					if _, ok := rec.(*bugs.Crash); !ok {
						t.Fatalf("untyped panic on input %x: %v", data, rec)
					}
				}
			}()
			inst.Message(data)
		}()
	}
}

// testMutatedTraffic runs structured-but-mutated pit messages — the shape
// the real fuzzing loop produces — and checks robustness plus coverage
// growth beyond the clean walk.
func testMutatedTraffic(t *testing.T, sub subject.Subject) {
	pit, err := fuzz.ParsePit(sub.PitXML())
	if err != nil {
		t.Fatal(err)
	}
	var sm *fuzz.StateModel
	for _, m := range pit.StateModels {
		sm = m
	}
	inst := sub.NewInstance()
	defer inst.Close()
	if err := inst.Start(defaults(sub), coverage.NewTrace()); err != nil {
		t.Fatal(err)
	}
	tr := coverage.NewTrace()
	inst.SetTrace(tr)
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 400; i++ {
		inst.NewSession()
		for _, name := range sm.Walk(r, 8) {
			dm := pit.DataModels[name]
			if dm == nil {
				continue
			}
			msg := dm.NewMessage(r)
			fuzz.MutateMessage(msg, r)
			data := msg.Serialize()
			func() {
				defer func() {
					if rec := recover(); rec != nil {
						if _, ok := rec.(*bugs.Crash); !ok {
							t.Fatalf("untyped panic on mutated input %x: %v", data, rec)
						}
					}
				}()
				inst.Message(data)
			}()
		}
	}
	if tr.Count() < 50 {
		t.Fatalf("mutated traffic produced only %d edges", tr.Count())
	}
}

// PayloadReadOnly holds an instance of sub, started under cfg, to
// subject.Instance.Message's read-only payload: over as many sessions
// of random bytes as the sessions argument says, and as many Pit walks,
// every other one mutated, each payload must be byte-identical after
// Message returns, a seeded crash included, and so must the spare
// capacity past it. A payload may be a corpus seed's own bytes, which
// the engine hands over without a copy and in-process sync shares
// between instance goroutines; a truncated one runs on into the rest of
// the seed's message.
func PayloadReadOnly(t *testing.T, sub subject.Subject, cfg map[string]string, sessions int) {
	t.Helper()
	pit, err := fuzz.ParsePit(sub.PitXML())
	if err != nil {
		t.Fatal(err)
	}
	sm := pit.DefaultStateModel()
	inst := sub.NewInstance()
	defer inst.Close()
	if err := inst.Start(cfg, coverage.NewTrace()); err != nil {
		t.Fatal(err)
	}
	inst.SetTrace(coverage.NewTrace())
	send := func(payload []byte) {
		t.Helper()
		buf := append(payload, "spare capacity"...)
		sent := bytes.Clone(buf)
		bugs.Capture(func() { inst.Message(buf[:len(payload)]) })
		if !bytes.Equal(buf, sent) {
			t.Fatalf("Message wrote its payload or the capacity past it:\nsent %x\nleft %x", sent, buf)
		}
	}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < sessions; i++ {
		inst.NewSession()
		for j := 0; j < 8; j++ {
			payload := make([]byte, r.Intn(200))
			r.Read(payload)
			send(payload)
		}
	}
	for i := 0; i < sessions; i++ {
		inst.NewSession()
		for _, name := range sm.Walk(r, 8) {
			dm := pit.DataModels[name]
			if dm == nil {
				continue
			}
			msg := dm.NewMessage(r)
			if i%2 == 1 {
				fuzz.MutateMessage(msg, r)
			}
			send(msg.Serialize())
		}
	}
}

func testSessionReset(t *testing.T, sub subject.Subject) {
	// NewSession must never panic and must allow immediate reuse.
	inst := sub.NewInstance()
	defer inst.Close()
	if err := inst.Start(defaults(sub), coverage.NewTrace()); err != nil {
		t.Fatal(err)
	}
	inst.SetTrace(coverage.NewTrace())
	for i := 0; i < 10; i++ {
		inst.NewSession()
		bugs.Capture(func() { inst.Message([]byte{1, 2, 3}) })
	}
}

// testNoDefaultBugs hammers the default configuration with heavy mutated
// traffic and asserts no seeded Table II defect fires: the paper's bugs
// are configuration-gated by construction.
func testNoDefaultBugs(t *testing.T, sub subject.Subject) {
	pit, err := fuzz.ParsePit(sub.PitXML())
	if err != nil {
		t.Fatal(err)
	}
	var sm *fuzz.StateModel
	for _, m := range pit.StateModels {
		sm = m
	}
	inst := sub.NewInstance()
	defer inst.Close()
	if err := inst.Start(defaults(sub), coverage.NewTrace()); err != nil {
		t.Fatal(err)
	}
	inst.SetTrace(coverage.NewTrace())
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 600; i++ {
		inst.NewSession()
		for _, name := range sm.Walk(r, 8) {
			dm := pit.DataModels[name]
			if dm == nil {
				continue
			}
			msg := dm.NewMessage(r)
			fuzz.MutateMessage(msg, r)
			if crash := bugs.Capture(func() { inst.Message(msg.Serialize()) }); crash != nil {
				t.Fatalf("seeded bug fired under DEFAULT configuration: %v", crash)
			}
		}
	}
}
