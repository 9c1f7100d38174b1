package live

import "testing"

// FuzzLiveSpec faces the JSON a live target arrives as — inline in a
// `/api/submit` body, in an Assign payload, in a -target-spec file —
// through ParseSpec and NewSubject, as a dist worker takes it. Arbitrary
// input parses or fails with an error, never a panic; a spec that
// parses builds its subject (the rails only: nothing is spawned until
// an instance starts) and survives a trip through its own encoding.
func FuzzLiveSpec(f *testing.F) {
	for _, s := range []Spec{
		{},
		{Cmd: []string{"x"}, Addr: "h:1"},
		{Cmd: []string{"x"}, Transport: "sctp"},
		{Cmd: []string{"srv"}, Rails: Rails{Rate: 100, MaxRestarts: 5}},
		{Cmd: []string{"/bin/echo-server", "-port", "{port}"}},
		{Addr: "127.0.0.1:9", Transport: TransportTCP, Render: RenderEnv, ConfigTemplate: "mode=plain\n#mode=upper\n",
			Rails: Rails{Rate: 0.5, Burst: -3, RestartWindow: -1, MaxHangs: 2}},
	} {
		f.Add([]byte(s.JSON()))
	}
	for _, raw := range []string{``, `null`, `[]`, `{"cmd":" "}`, `{"cmd":[" "]}`, `{"rails":{"rate":1e308}}`, `{"addr":"h:1","read_timeout_ms":-1}`,
		`{"addr":"h:1","rail":{"rate":1}}`, `{"addr":"h:1","rails":{"rat":1}}`, `{"addr":"h:1"} {}`} {
		f.Add([]byte(raw))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		sub, err := NewSubject(spec)
		if err != nil {
			t.Fatalf("spec %s parsed but builds no subject: %v", data, err)
		}
		again, err := ParseSpec([]byte(sub.LiveSpecJSON()))
		if err != nil {
			t.Fatalf("subject's own spec %s does not parse: %v", sub.LiveSpecJSON(), err)
		}
		if again.JSON() != sub.LiveSpecJSON() {
			t.Fatalf("spec does not round-trip:\n%s\n%s", sub.LiveSpecJSON(), again.JSON())
		}
	})
}
