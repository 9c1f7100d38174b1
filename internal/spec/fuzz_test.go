package spec

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cmfuzz/internal/parallel"
)

// FuzzSpecJSON faces the bytes of a `/api/submit` body (and of a
// spec.json found on disk): Decode, then Options — the two steps
// fleet.Manager runs before it writes or schedules anything. Arbitrary input parses or fails with an error,
// never a panic; whatever is accepted yields Options inside every range
// the event loop, the Assign payload and the virtual clock rely on, a
// target that builds (or is refused) without spawning anything, and a
// JSON form that decodes back to the same campaign.
func FuzzSpecJSON(f *testing.F) {
	for _, body := range []string{
		`{"id":"dns-a","subject":"DNS","hours":2,"seed":11}`,
		`{"id":"mqtt-b","subject":"MQTT","hours":1,"seed":3}`,
		`{"id":"x","subject":"DNS","hours":1,"instances":-1}`,
		`{"id":"x","subject":"DNS","hours":1e308}`,
		`{"id":"x","subject":"DNS","hours":1,"instances":1000000000}`,
		`{"id":"bad-mode","subject":"DNS","mode":"afl","hours":0.1}`,
		`{"id":"v","subject":"CoAP","mode":"PEACH","hours":0.5,"seed":-4,"no_config_mutation":true,"sat_window":120,"sat_min_gain":2000,"link_loss":0.25,"link_latency":0.5,"link_jitter":0.125}`,
		`{"id":"live-bad","subject":"echo","hours":0.1,"live":{}}`,
		`{"id":"live-ok","subject":"echo","hours":0.1,"live":{"cmd":["/bin/echo-server","-port","{port}"]}}`,
		`{"id":"live","subject":"echo","hours":0.1,"live":{"cmd":["x"],"addr":"h:1","transport":"sctp","rails":{"rate":100,"max_restarts":5}}}`,
		`{"hours":"2"}`, `[]`, `null`, `{"live":null,"hours":1}`, ``,
		`{"subject":"DNS","hours":1,"instnaces":8}`,
		`{"id":"a","subject":"DNS","hours":1,"alloc":"random"}`,
		`{"id":"r","subject":"DNS","hours":1,"raw_weights":true}`,
		`{"id":"l","subject":"echo","hours":1,"live":{"addr":"h:1","rails":{"rat":1}}}`,
		`{"id":"t","subject":"DNS","hours":1}{}`,
	} {
		f.Add([]byte(body))
	}
	for _, name := range []string{"parent_spec.json", "parent_spec_live.json"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		o, err := c.Options()
		if err != nil {
			return
		}
		finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
		switch {
		case o.Mode.String() == "unknown":
			t.Fatalf("accepted mode %d", o.Mode)
		case o.Instances < 0 || o.Instances > parallel.MaxInstances:
			t.Fatalf("accepted %d instances", o.Instances)
		case !(o.VirtualHours > 0) || !finite(o.Horizon()):
			t.Fatalf("accepted %v hours (horizon %v)", o.VirtualHours, o.Horizon())
		case !(o.SaturationWindow >= 0) || !finite(o.SaturationWindow) || o.SaturationMinGain < 0:
			t.Fatalf("accepted saturation window %v gain %d", o.SaturationWindow, o.SaturationMinGain)
		case !(o.LinkLoss >= 0 && o.LinkLoss <= 1):
			t.Fatalf("accepted link loss %v", o.LinkLoss)
		case !(o.LinkLatencyBase >= 0) || !finite(o.LinkLatencyBase) || !(o.LinkLatencyJitter >= 0) || !finite(o.LinkLatencyJitter):
			t.Fatalf("accepted link latency %v jitter %v", o.LinkLatencyBase, o.LinkLatencyJitter)
		}
		if c.Live != nil {
			c.Target(nil) // builds rails only; must not panic
		}
		raw, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("accepted campaign does not encode: %v", err)
		}
		back, err := Decode(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s does not decode: %v", raw, err)
		}
		if again, err := back.Options(); err != nil || !reflect.DeepEqual(again, o) {
			t.Fatalf("%s: Options after a round trip = %+v, %v; before %+v", raw, again, err, o)
		}
	})
}
