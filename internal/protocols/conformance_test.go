package protocols

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"slices"
	"testing"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/core/configmodel"
	"cmfuzz/internal/core/configspec"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/fuzz"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/subject/subjecttest"
)

// TestSubjectConformance runs the full subject conformance suite against
// every evaluation subject: contract checks, parser robustness against
// garbage and mutated pit traffic, and the configuration-gating property
// of the seeded Table II bugs.
func TestSubjectConformance(t *testing.T) {
	for _, sub := range All() {
		sub := sub
		t.Run(sub.Info().Protocol, func(t *testing.T) {
			subjecttest.Run(t, sub)
		})
	}
}

// TestPayloadReadOnlyRich runs the conformance suite's read-only payload
// check under each subject's feature-rich assignment too, where the
// configuration-gated regions (DTLS records, CoAP blocks, MQTT bridging
// and persistence, ...) parse what the defaults never reach.
func TestPayloadReadOnlyRich(t *testing.T) {
	for _, sub := range All() {
		t.Run(sub.Info().Protocol, func(t *testing.T) {
			subjecttest.PayloadReadOnly(t, sub, subjectConfig(t, sub, true), 200)
		})
	}
}

func TestByName(t *testing.T) {
	for _, query := range []string{"MQTT", "Mosquitto", "DNS", "Dnsmasq", "CycloneDDS"} {
		if _, err := ByName(query); err != nil {
			t.Errorf("ByName(%q): %v", query, err)
		}
	}
	if _, err := ByName("HTTP"); err == nil {
		t.Error("ByName(HTTP) should fail")
	}
	if len(All()) != 6 {
		t.Errorf("All() = %d subjects, want 6", len(All()))
	}
}

// richConfigs is one feature-rich assignment per subject: most of its
// configuration-gated message regions switched on at once, on top of the
// defaults.
var richConfigs = map[string]map[string]string{
	"MQTT": {
		"persistence": "true", "persistence-location": "/var/lib/mosquitto",
		"password-file": "/etc/mosquitto/passwd", "acl-file": "/etc/mosquitto/acl",
		"bridge": "true", "bridge-address": "10.0.0.2:1883", "bridge-protocol-version": "mqttv50",
		"tls": "true", "certfile": "/etc/mosquitto/server.crt",
		"message-size-limit": "64", "max-qos": "1", "upgrade-outgoing-qos": "true",
	},
	"CoAP": {
		"observe": "true", "q-block": "true", "block-size": "64",
		"dtls": "true", "psk-key": "sesame42", "proxy-uri": "coap://upstream:5683",
		"resource-dir": "/srv/coap", "max-payload": "256",
	},
	"DDS": {
		"cyclonedds/domain/internal/retransmitmerging":    "adaptive",
		"cyclonedds/domain/internal/writerbatching":       "true",
		"cyclonedds/domain/internal/livelinessmonitoring": "true",
		"cyclonedds/domain/security/enable":               "true",
		"cyclonedds/domain/tracing/verbosity":             "finest",
		"cyclonedds/domain/general/fragmentsize":          "512",
	},
	"DTLS": {
		"cipher": "PSK-AES128", "psk": "deadbeef", "verify-peer": "true",
		"session-tickets": "true", "renegotiation": "true", "compression": "true", "mtu": "512",
	},
	"AMQP": {
		"auth": "yes", "sasl-mechanisms": "PLAIN", "acl-file": "/etc/qpid/acl",
		"durable": "true", "store-dir": "/var/lib/qpidd", "mgmt-enable": "yes",
		"federation-tag": "site-a", "worker-threads": "2", "queue-limit": "1000",
	},
	"DNS": {
		"cache-size": "8", "log-queries": "true", "filterwin2k": "true", "bogus-priv": "true",
		"expand-hosts": "true", "domain": "lan", "local": "/lan/",
		"address": "/blocked.example/127.0.0.1", "addn-hosts": "/etc/hosts.extra",
		"dhcp-range": "192.168.0.50,192.168.0.150,12h", "tftp-root": "/srv/tftp",
		"auth-zone": "example.org", "dnssec": "true", "trust-anchor": ".,20326,8,2,E06D44B8",
	},
}

// responseDigests pins, per subject and assignment, the SHA-256 of every
// response frame and of every edge index that digestTraffic's fixed
// message stream produces. They were recorded before the subjects'
// message paths were made allocation-free and must never be regenerated
// to make a change pass: a moved digest is a changed response byte or a
// changed edge.
var responseDigests = map[string]struct{ responses, edges string }{
	"MQTT/defaults": {
		"d148bb3308877444a452147de1cd566600deb242a2deab676ef78dd35fd6f216",
		"4399235cdb8763dbdee8b635a44905ead631da02d55fe8674c964ad0eca5e780"},
	"MQTT/rich": {
		"7c63397e09912386b8bbb2c96fa626be1d2794daa356da949812912031ffe408",
		"c698c7c16fcbd39da9ad8fec7f455a09f4e0363e61a5fc270f593abd50b37a93"},
	"CoAP/defaults": {
		"5b0959e0527125e4d4a20a4e6dbea3dd311c04f90763a19652fc4253d547d19d",
		"f9cf2593993c801c4481fd5feede0a2165be1475fc1f93a3cb580855fd7715e8"},
	"CoAP/rich": {
		"30af82ee8ac788f37f88b32a58c99ce5d07e594480ce4011eef2a53be7dc9095",
		"107461a04f0cbc6a463716454ea41f0fc981cd7c41f61a4d3380e1e31df363e0"},
	"DDS/defaults": {
		"a617d6fa01759a2d840f0276760b42c6f0c3b314972372884be27bb515e1b5b5",
		"3c31b4c502aa71b3c7513b0a81c330ef17dbe4e8313f88ccfd2b6c7885747017"},
	"DDS/rich": {
		"a617d6fa01759a2d840f0276760b42c6f0c3b314972372884be27bb515e1b5b5",
		"80bb7645cec0ccf2a417748b65944f12306500a81177b3d09cbc890e473f24f1"},
	"DTLS/defaults": {
		"d370d5546a86c92c26dc2c6fc908f9e48aec47d09ad3a18e53808017050e658d",
		"713e75a82fb8988439631d9c22cefaf0db4a6c3b325cbeed5d5f269d9a831a33"},
	"DTLS/rich": {
		"9f114d06fca29ffa78e04702fb9c4cb4286bcfe7e8d3307a798c25d24e85cf7a",
		"2109440bdb2ba92b8f318ec32733d8ad846ac537e72fe4ca9ee7147ff206fa1a"},
	"AMQP/defaults": {
		"4f93c7eb99f1492db9929e053e717c97f563ea6cc79a0ff61c68c4f1dc9a7172",
		"db4e9b4c24a1745230deabc106f1cdefee0541c68bb0166b38b298836037af78"},
	"AMQP/rich": {
		"4f93c7eb99f1492db9929e053e717c97f563ea6cc79a0ff61c68c4f1dc9a7172",
		"94878ab26dc1cb8bfe1a22f8ea5ee59ff906c78d04bb6c577647d5f313795f7b"},
	"DNS/defaults": {
		"2178421114e438e48eda9fa7ae0710a9b40b827a0c011c7ea2e3aad75b5b38a1",
		"ff7bc771a09d8c7328f259ea28fc087ec6ff915aa894ba116f08fc6663275ab4"},
	"DNS/rich": {
		"fc043095831d6fdc22bf7ce861e24365f7d9a3b3dde154bb2678316e6efad794",
		"27a2feebceb0cf16c64474658651806f719e126cf1af532e8eaff928dff32aa7"},
}

func subjectConfig(t *testing.T, sub subject.Subject, rich bool) map[string]string {
	t.Helper()
	model := configmodel.Build(configspec.Extract(sub.ConfigInput()))
	cfg := map[string]string(model.Defaults())
	if rich {
		for k, v := range richConfigs[sub.Info().Protocol] {
			cfg[k] = v
		}
	}
	return cfg
}

// digestTraffic feeds one started instance 300 seeded Pit walks, every
// other one mutated, opening a fresh session per walk and ending it at a
// crash as the fuzzing loop does. Each message gets a fresh trace. It
// returns the SHA-256 of the response frames and of the edge indices.
// A message's frames are hashed in sorted order, because MQTT routes a
// publish to a session's subscriptions in map order.
func digestTraffic(t *testing.T, sub subject.Subject, cfg map[string]string) (responses, edges string) {
	t.Helper()
	pit, err := fuzz.ParsePit(sub.PitXML())
	if err != nil {
		t.Fatal(err)
	}
	sm := pit.DefaultStateModel()
	inst := sub.NewInstance()
	defer inst.Close()
	if err := inst.Start(cfg, coverage.NewTrace()); err != nil {
		t.Fatalf("start: %v", err)
	}
	rh, eh := sha256.New(), sha256.New()
	u32 := func(h hash.Hash, v int) {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(v))
		h.Write(b[:])
	}
	r := rand.New(rand.NewSource(20261017))
	tr := coverage.NewTrace()
	for walk := 0; walk < 300; walk++ {
		inst.NewSession()
		for _, name := range sm.Walk(r, 8) {
			msg := pit.DataModels[name].NewMessage(r)
			if walk%2 == 1 {
				fuzz.MutateMessage(msg, r)
			}
			tr.Reset()
			inst.SetTrace(tr)
			var frames [][]byte
			crash := bugs.Capture(func() {
				for _, f := range inst.Message(msg.Serialize()) {
					frames = append(frames, bytes.Clone(f))
				}
			})
			slices.SortFunc(frames, bytes.Compare)
			u32(rh, len(frames))
			for _, f := range frames {
				u32(rh, len(f))
				rh.Write(f)
			}
			idx := tr.Map().Indices()
			u32(eh, len(idx))
			for _, i := range idx {
				u32(eh, int(i))
			}
			if crash != nil {
				rh.Write([]byte(crash.ID()))
				break
			}
		}
	}
	return hex.EncodeToString(rh.Sum(nil)), hex.EncodeToString(eh.Sum(nil))
}

// TestResponseDigests is the byte-exact gate on every subject's message
// path: the same seeded traffic must produce the same response frames and
// the same edges, under the defaults and under a feature-rich assignment.
func TestResponseDigests(t *testing.T) {
	for _, sub := range All() {
		for _, rich := range []bool{false, true} {
			name := sub.Info().Protocol + "/defaults"
			if rich {
				name = sub.Info().Protocol + "/rich"
			}
			t.Run(name, func(t *testing.T) {
				resp, edges := digestTraffic(t, sub, subjectConfig(t, sub, rich))
				want := responseDigests[name]
				if resp != want.responses || edges != want.edges {
					t.Errorf("digests moved:\n got %q: {%q, %q},\nwant {%q, %q}",
						name, resp, edges, want.responses, want.edges)
				}
			})
		}
	}
}
