package subject

import (
	"errors"
	"testing"

	"cmfuzz/internal/core/configspec"
	"cmfuzz/internal/coverage"
)

// fakeInstance is a minimal scripted Instance.
type fakeInstance struct {
	failStart bool
	startCov  int
	tr        *coverage.Trace
	closed    bool
}

func (f *fakeInstance) Start(cfg map[string]string, tr *coverage.Trace) error {
	if f.failStart || cfg["conflict"] == "true" {
		return errors.New("conflicting configuration")
	}
	for i := 0; i < f.startCov; i++ {
		tr.Hit(uint32(i))
	}
	f.tr = tr
	return nil
}
func (f *fakeInstance) SetTrace(tr *coverage.Trace)     { f.tr = tr }
func (f *fakeInstance) NewSession()                     {}
func (f *fakeInstance) Message(payload []byte) [][]byte { return nil }
func (f *fakeInstance) Close()                          { f.closed = true }

type fakeSubject struct{ inst *fakeInstance }

func (s fakeSubject) Info() Info {
	return Info{Protocol: "FAKE", Implementation: "fake", Transport: Datagram, Port: 9}
}
func (s fakeSubject) ConfigInput() configspec.Input { return configspec.Input{} }
func (s fakeSubject) PitXML() string                { return "<Peach></Peach>" }
func (s fakeSubject) NewInstance() Instance         { return s.inst }

func TestProbeCountsStartupCoverage(t *testing.T) {
	sub := fakeSubject{inst: &fakeInstance{startCov: 7}}
	if got := Probe(sub, nil); got != 7 {
		t.Fatalf("Probe = %d, want 7", got)
	}
	if !sub.inst.closed {
		t.Fatal("Probe did not close the instance")
	}
}

// TestProbeAllocs: a probe reuses a trace an earlier probe finished
// with, reset, so once warm a probe of an instance that allocates
// nothing allocates nothing, its 8 KB coverage map included; and each
// probe counts only its own startup coverage.
func TestProbeAllocs(t *testing.T) {
	inst := &fakeInstance{startCov: 7}
	sub := fakeSubject{inst: inst}
	Probe(sub, nil)
	if n := testing.AllocsPerRun(100, func() { Probe(sub, nil) }); n != 0 {
		t.Fatalf("a warm probe allocates %v times, want 0", n)
	}
	inst.startCov = 3
	if got := Probe(sub, nil); got != 3 {
		t.Fatalf("probe after a 7-edge one = %d, want 3", got)
	}
}

func TestProbeConflictIsZero(t *testing.T) {
	sub := fakeSubject{inst: &fakeInstance{startCov: 7}}
	if got := Probe(sub, map[string]string{"conflict": "true"}); got != 0 {
		t.Fatalf("conflicting Probe = %d, want 0", got)
	}
}

func TestTransportString(t *testing.T) {
	if Stream.String() != "stream" || Datagram.String() != "datagram" {
		t.Fatal("transport names wrong")
	}
}
