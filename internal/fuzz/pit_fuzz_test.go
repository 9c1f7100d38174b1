package fuzz_test

import (
	"reflect"
	"testing"

	"cmfuzz/internal/fuzz"
	"cmfuzz/internal/live"
	"cmfuzz/internal/protocols"
)

// FuzzParsePit drives the Pit loader, which reads XML from outside the
// process: a live campaign's `pit_xml` arrives in a /api/submit body.
// Seeds are every built-in subject's Pit and the generic one a live
// target falls back to. Arbitrary input is parsed or refused with an
// error, never a panic, and parsing is a function of the input: a
// second parse of accepted input yields the same Pit.
func FuzzParsePit(f *testing.F) {
	for _, sub := range protocols.All() {
		f.Add(sub.PitXML())
	}
	generic, err := live.NewSubject(live.Spec{Addr: "127.0.0.1:9"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(generic.PitXML())
	f.Fuzz(func(t *testing.T, xml string) {
		pit, err := fuzz.ParsePit(xml)
		if err != nil {
			if pit != nil {
				t.Fatal("failed parse returned a Pit")
			}
			return
		}
		again, err := fuzz.ParsePit(xml)
		if err != nil || !reflect.DeepEqual(again, pit) {
			t.Fatalf("second parse of accepted input differs (%v)", err)
		}
	})
}
