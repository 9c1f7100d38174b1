package protocols

import (
	"math/rand"
	"testing"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/fuzz"
	"cmfuzz/internal/subject"
)

// pitTraffic returns n seeded walks of unmutated Pit messages, serialized
// once up front so that replaying them allocates nothing on the caller's
// side.
func pitTraffic(t *testing.T, sub subject.Subject, n int) [][][]byte {
	t.Helper()
	pit, err := fuzz.ParsePit(sub.PitXML())
	if err != nil {
		t.Fatal(err)
	}
	sm := pit.DefaultStateModel()
	r := rand.New(rand.NewSource(5))
	walks := make([][][]byte, n)
	for i := range walks {
		for _, name := range sm.Walk(r, 8) {
			walks[i] = append(walks[i], pit.DataModels[name].NewMessage(r).Serialize())
		}
	}
	return walks
}

// TestMessageAllocs is the allocation gate on the subjects' message path:
// replaying warmed Pit traffic under the default configuration allocates
// only the strings that become map keys, each bounded below per session.
func TestMessageAllocs(t *testing.T) {
	// maxPerSession is the allowance per session of Pit traffic, in
	// objects: the strings that become map keys, and nothing else.
	maxPerSession := map[string]float64{
		// The client id of every CONNECT that stores its session (a clean
		// one is deleted again at DISCONNECT), each accepted SUBSCRIBE
		// filter (subscriptions belong to the session) and a topic first
		// retained. Measured: 1.92.
		"MQTT": 3,
		// The key (token and path) of a blockwise upload when it starts,
		// and a Uri-Path that becomes a resource again after a DELETE.
		// Measured: 1.14.
		"CoAP": 2,
		"DDS":  0,
		"DTLS": 0,
		// The name of every link, which ATTACH stores in the session's
		// links. Measured: 1.00.
		"AMQP": 1,
		// A name first stored in the cache, which the warm-up already
		// filled.
		"DNS": 0,
	}
	for _, sub := range All() {
		sub := sub
		t.Run(sub.Info().Protocol, func(t *testing.T) {
			inst := sub.NewInstance()
			defer inst.Close()
			if err := inst.Start(subjectConfig(t, sub, false), coverage.NewTrace()); err != nil {
				t.Fatal(err)
			}
			inst.SetTrace(coverage.NewTrace())
			walks := pitTraffic(t, sub, 64)
			replay := func() {
				for _, walk := range walks {
					inst.NewSession()
					for _, msg := range walk {
						if crash := bugs.Capture(func() { inst.Message(msg) }); crash != nil {
							t.Fatalf("default configuration crashed: %v", crash)
						}
					}
				}
			}
			replay()
			replay()
			perSession := testing.AllocsPerRun(5, replay) / float64(len(walks))
			t.Logf("%.2f objects per session", perSession)
			if perSession > maxPerSession[sub.Info().Protocol] {
				t.Errorf("%.2f objects per session of Pit traffic, want <= %v",
					perSession, maxPerSession[sub.Info().Protocol])
			}
		})
	}
}
