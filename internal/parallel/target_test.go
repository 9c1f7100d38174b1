package parallel

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/core/configmodel"
	"cmfuzz/internal/core/configspec"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/protocols"
	"cmfuzz/internal/subject"
)

// bootTarget starts a fresh target for sub under cfg behind l.
func bootTarget(sub subject.Subject, l *link, cfg configmodel.Assignment) (*netTarget, error) {
	t := &netTarget{link: l}
	if err := t.boot(sub, cfg, 0); err != nil {
		return nil, err
	}
	return t, nil
}

func TestBootTargetDatagramRouting(t *testing.T) {
	sub, _ := protocols.ByName("DNS")
	cfg := configmodel.Assignment(map[string]string{"server": "8.8.8.8"})
	target, err := bootTarget(sub, &link{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if target.startup.Count() == 0 {
		t.Fatal("no startup coverage")
	}
	tr := coverage.NewTrace()
	if crash := target.Run([][]byte{{0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}, tr); crash != nil {
		t.Fatalf("unexpected crash: %v", crash)
	}
	if tr.Count() == 0 {
		t.Fatal("datagram did not reach the instance over the link")
	}
}

func TestBootTargetStreamRouting(t *testing.T) {
	sub, _ := protocols.ByName("MQTT")
	target, err := bootTarget(sub, &link{}, configmodel.Assignment(nil))
	if err != nil {
		t.Fatal(err)
	}
	tr := coverage.NewTrace()
	if crash := target.Run([][]byte{{0xc0, 0x00}}, tr); crash != nil || tr.Count() == 0 { // PINGREQ
		t.Fatalf("stream segment did not reach the instance: crash=%v cov=%d", crash, tr.Count())
	}
}

func TestBootTargetCrashPropagation(t *testing.T) {
	sub, _ := protocols.ByName("DNS")
	cfg := configmodel.Assignment(map[string]string{"server": "8.8.8.8", "log-queries": "true"})
	target, err := bootTarget(sub, &link{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Query containing a '%' label triggers bug #13 under log-queries.
	q := buildDNSQuery("p%n.example.com")
	crash := target.Run([][]byte{q}, coverage.NewTrace())
	if crash == nil || crash.Function != "printf_common" {
		t.Fatalf("crash = %v, want bug #13 over the link", crash)
	}
}

func TestBootTargetRejectsConflict(t *testing.T) {
	sub, _ := protocols.ByName("DNS")
	cfg := configmodel.Assignment(map[string]string{"dnssec": "true"}) // missing trust-anchor
	if _, err := bootTarget(sub, &link{}, cfg); err == nil {
		t.Fatal("conflicting configuration booted")
	}
}

func TestRestartSwapsInstance(t *testing.T) {
	sub, _ := protocols.ByName("DNS")
	target, err := bootTarget(sub, &link{}, configmodel.Assignment(map[string]string{"server": "8.8.8.8"}))
	if err != nil {
		t.Fatal(err)
	}
	// Before restart: no crash on '%' names.
	q := buildDNSQuery("p%n.example.com")
	if crash := target.Run([][]byte{q}, coverage.NewTrace()); crash != nil {
		t.Fatalf("premature crash: %v", crash)
	}
	// Restart with log-queries enabled: same link, new behavior.
	if err := target.boot(sub, configmodel.Assignment(map[string]string{"server": "8.8.8.8", "log-queries": "true"}), 100); err != nil {
		t.Fatal(err)
	}
	if crash := target.Run([][]byte{q}, coverage.NewTrace()); crash == nil {
		t.Fatal("restarted instance does not show new configuration behavior")
	}
}

// TestInstancesIsolatedByOwnership: two targets of one subject hold their
// own subject objects and links, so one's configuration and traffic never
// reach the other.
func TestInstancesIsolatedByOwnership(t *testing.T) {
	sub, _ := protocols.ByName("DNS")
	o := Options{Seed: 1, LinkLatencyBase: 0.25}
	logging, err := bootTarget(sub, newLink(&o, 0, subject.Datagram), configmodel.Assignment(map[string]string{"server": "8.8.8.8", "log-queries": "true"}))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := bootTarget(sub, newLink(&o, 1, subject.Datagram), configmodel.Assignment(map[string]string{"server": "8.8.8.8"}))
	if err != nil {
		t.Fatal(err)
	}
	q := buildDNSQuery("p%n.example.com")
	if crash := logging.Run([][]byte{q, q}, coverage.NewTrace()); crash == nil {
		t.Fatal("log-queries target did not crash")
	}
	if crash := plain.Run([][]byte{q}, coverage.NewTrace()); crash != nil {
		t.Fatalf("the other target's configuration reached this one: %v", crash)
	}
	if logging.link.accrued != 0.25 || plain.link.accrued != 0.25 {
		t.Fatalf("accrued %v and %v, want 0.25 each (the crash ends a session)", logging.link.accrued, plain.link.accrued)
	}
}

// TestBootSpecTwiceOnOneHost boots one spec twice on one Host: each
// instance owns its subject and its link, so the second boot succeeds and
// the two step identically, impairment draws included.
func TestBootSpecTwiceOnOneHost(t *testing.T) {
	for _, name := range []string{"DNS", "MQTT"} {
		h, err := NewHost(mustSubject(t, name), Options{Mode: ModePeach, Seed: 3,
			LinkLoss: 0.2, LinkLatencyBase: 0.01, LinkLatencyJitter: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		spec := h.Plan(bugs.NewLedger(), nil, nil).Specs[1]
		a, _, err := h.Boot(spec)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := h.Boot(spec)
		if err != nil {
			t.Fatalf("%s: second boot of one spec on one host: %v", name, err)
		}
		for i := 0; i < 200; i++ {
			sa, sb := a.Step(), b.Step()
			if sa.Bytes != sb.Bytes || sa.NewEdges != sb.NewEdges || sa.Latency != sb.Latency || a.clock != b.clock {
				t.Fatalf("%s step %d: %+v vs %+v", name, i, sa, sb)
			}
		}
	}
}

// countSubject records what reaches its instances: the messages, in
// order, and how many sessions were opened and instances closed. Each
// message hits one edge of the installed trace, and one whose first
// byte is crashOn (when set) triggers a seeded crash.
type countSubject struct {
	transport        subject.Transport
	msgs             int
	got              [][]byte
	sessions, closes int
	crashOn          byte
	tr               *coverage.Trace
}

func (s *countSubject) Info() subject.Info {
	return subject.Info{Protocol: "COUNT", Implementation: "count", Transport: s.transport, Port: 7}
}
func (s *countSubject) ConfigInput() configspec.Input { return configspec.Input{} }
func (s *countSubject) PitXML() string                { return "" }
func (s *countSubject) NewInstance() subject.Instance { return countInstance{s} }

type countInstance struct{ sub *countSubject }

func (i countInstance) Start(map[string]string, *coverage.Trace) error { return nil }
func (i countInstance) SetTrace(tr *coverage.Trace)                    { i.sub.tr = tr }
func (i countInstance) NewSession()                                    { i.sub.sessions++ }
func (i countInstance) Close()                                         { i.sub.closes++ }
func (i countInstance) Message(msg []byte) [][]byte {
	i.sub.msgs++
	i.sub.got = append(i.sub.got, append([]byte(nil), msg...))
	i.sub.tr.Edge(100, uint64(i.sub.msgs))
	if i.sub.crashOn != 0 && len(msg) > 0 && msg[0] == i.sub.crashOn {
		bugs.Trigger("COUNT", bugs.SEGV, "handler", "scripted")
	}
	return nil
}

// TestTargetRunsSequenceWithFreshSession: one Run is one fresh session
// that carries every message of the sequence over the link, with the
// instance's coverage recorded into the run's trace.
func TestTargetRunsSequenceWithFreshSession(t *testing.T) {
	sub := &countSubject{transport: subject.Datagram}
	target, err := bootTarget(sub, &link{datagram: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := coverage.NewTrace()
	if crash := target.Run([][]byte{{1}, {2}, {3}}, tr); crash != nil {
		t.Fatalf("unexpected crash: %v", crash)
	}
	if sub.sessions != 1 {
		t.Fatalf("sessions = %d, want 1 per run", sub.sessions)
	}
	if sub.msgs != 3 {
		t.Fatalf("messages = %d, want 3", sub.msgs)
	}
	if tr.Count() == 0 {
		t.Fatal("no coverage recorded through the target")
	}
}

// TestTargetCapturesCrashAndStops: a seeded crash comes back from Run as
// its value, and the rest of the sequence is never sent.
func TestTargetCapturesCrashAndStops(t *testing.T) {
	sub := &countSubject{transport: subject.Datagram, crashOn: 0xad}
	target, err := bootTarget(sub, &link{datagram: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	crash := target.Run([][]byte{{1}, {0xad}, {3}}, coverage.NewTrace())
	if crash == nil || crash.Protocol != "COUNT" {
		t.Fatalf("crash = %v", crash)
	}
	if sub.msgs != 2 {
		t.Fatalf("messages after crash = %d, want sequence aborted at 2", sub.msgs)
	}
}

// sendOver boots sub behind instance 0's link under o and runs n
// one-message sessions over it.
func sendOver(t *testing.T, sub subject.Subject, o Options, n int) *link {
	t.Helper()
	target, err := bootTarget(sub, newLink(&o, 0, sub.Info().Transport), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if crash := target.Run([][]byte{{byte(i)}}, coverage.NewTrace()); crash != nil {
			t.Fatal(crash)
		}
	}
	return target.link
}

// TestLinkLossDatagramsOnly: loss drops datagrams only. At loss 1 a
// stream subject still gets every message, and a datagram subject gets
// none and is charged no latency for them.
func TestLinkLossDatagramsOnly(t *testing.T) {
	for _, tc := range []struct {
		transport subject.Transport
		want      int
	}{{subject.Stream, 50}, {subject.Datagram, 0}} {
		sub := &countSubject{transport: tc.transport}
		l := sendOver(t, sub, Options{Seed: 1, LinkLoss: 1, LinkLatencyBase: 0.25}, 50)
		if sub.msgs != tc.want || l.accrued != 0.25*float64(tc.want) {
			t.Fatalf("%v at loss 1: %d messages delivered, %v s accrued; want %d and %v",
				tc.transport, sub.msgs, l.accrued, tc.want, 0.25*float64(tc.want))
		}
	}
}

// TestLinkDropChargesNothing: with no jitter the latency total is exact
// arithmetic, so it equals base × delivered only if no drop was charged.
func TestLinkDropChargesNothing(t *testing.T) {
	sub := &countSubject{transport: subject.Datagram}
	l := sendOver(t, sub, Options{Seed: 42, LinkLoss: 0.5, LinkLatencyBase: 0.25}, 100)
	if sub.msgs == 0 || sub.msgs == 100 {
		t.Fatalf("loss 0.5 delivered %d of 100", sub.msgs)
	}
	if want := 0.25 * float64(sub.msgs); l.accrued != want {
		t.Fatalf("accrued %v, want exactly %d deliveries × 0.25 = %v", l.accrued, sub.msgs, want)
	}
}

// TestLinkLatencyBaseOnly: base-only latency charges exactly base ×
// delivered.
func TestLinkLatencyBaseOnly(t *testing.T) {
	for _, transport := range []subject.Transport{subject.Stream, subject.Datagram} {
		l := sendOver(t, &countSubject{transport: transport}, Options{Seed: 1, LinkLatencyBase: 0.25}, 10)
		if l.accrued != 2.5 {
			t.Fatalf("%v: accrued %v, want exactly 2.5", transport, l.accrued)
		}
	}
}

// TestLinkDatagramDelivery: over an unimpaired link each datagram reaches
// the subject once, unchanged and in order, and costs no latency.
func TestLinkDatagramDelivery(t *testing.T) {
	sub := &countSubject{transport: subject.Datagram}
	target, err := bootTarget(sub, newLink(&Options{Seed: 1}, 0, subject.Datagram), nil)
	if err != nil {
		t.Fatal(err)
	}
	seq := [][]byte{[]byte("hi"), []byte("there"), {0, 1, 2}}
	if crash := target.Run(seq, coverage.NewTrace()); crash != nil {
		t.Fatal(crash)
	}
	if !reflect.DeepEqual(sub.got, seq) || target.link.accrued != 0 {
		t.Fatalf("delivered %q with %v s accrued, want %q and 0", sub.got, target.link.accrued, seq)
	}
}

// TestLinkStreamSessions: every execution is one session on the running
// instance, a new session and then each segment in order, and a restart
// closes the old instance once and keeps the link.
func TestLinkStreamSessions(t *testing.T) {
	sub := &countSubject{transport: subject.Stream}
	l := newLink(&Options{Seed: 1, LinkLoss: 1, LinkLatencyBase: 0.25}, 0, subject.Stream)
	target, err := bootTarget(sub, l, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq := [][]byte{[]byte("CONNECT"), []byte("PUBLISH")}
	for i := 0; i < 3; i++ {
		if crash := target.Run(seq, coverage.NewTrace()); crash != nil {
			t.Fatal(crash)
		}
	}
	if sub.sessions != 3 || sub.msgs != 6 || sub.closes != 0 || !reflect.DeepEqual(sub.got[4:], seq) {
		t.Fatalf("3 executions: %d sessions, %d segments (%q), %d closes", sub.sessions, sub.msgs, sub.got, sub.closes)
	}
	if err := target.boot(sub, nil, 1); err != nil {
		t.Fatal(err)
	}
	if sub.closes != 1 || target.link != l {
		t.Fatalf("restart: %d closes, link kept %v", sub.closes, target.link == l)
	}
	if crash := target.Run(seq[:1], coverage.NewTrace()); crash != nil {
		t.Fatal(crash)
	}
	if sub.sessions != 4 || sub.msgs != 7 || l.accrued != 7*0.25 {
		t.Fatalf("after restart: %d sessions, %d segments, %v s accrued", sub.sessions, sub.msgs, l.accrued)
	}
}

// TestLinkRestartKeepsStreams: restarting the instance keeps its link, so
// the drop pattern and the latency total go on where they were, as if no
// restart had happened.
func TestLinkRestartKeepsStreams(t *testing.T) {
	o := Options{Seed: 42, LinkLoss: 0.5, LinkLatencyBase: 0.001, LinkLatencyJitter: 0.002}
	run := func(restart bool) ([]int, float64) {
		sub := &countSubject{transport: subject.Datagram}
		target, err := bootTarget(sub, newLink(&o, 0, subject.Datagram), nil)
		if err != nil {
			t.Fatal(err)
		}
		delivered := make([]int, 200)
		for i := range delivered {
			if restart && i%25 == 0 {
				if err := target.boot(sub, nil, float64(i)); err != nil {
					t.Fatal(err)
				}
			}
			if crash := target.Run([][]byte{{byte(i)}}, coverage.NewTrace()); crash != nil {
				t.Fatal(crash)
			}
			delivered[i] = sub.msgs
		}
		return delivered, target.link.accrued
	}
	plain, plainAcc := run(false)
	restarted, restartedAcc := run(true)
	if !reflect.DeepEqual(plain, restarted) || plainAcc != restartedAcc {
		t.Fatalf("restarts moved the link's draws: accrued %v vs %v", plainAcc, restartedAcc)
	}
	if n := plain[len(plain)-1]; n == 0 || n == len(plain) {
		t.Fatalf("loss 0.5 delivered %d of %d", n, len(plain))
	}
}

// dropPattern reports which of n messages instance index's link under o
// delivers.
func dropPattern(o Options, index, n int) []bool {
	l := newLink(&o, index, subject.Datagram)
	out := make([]bool, n)
	for i := range out {
		out[i] = l.deliver()
	}
	return out
}

// TestLinkLossLatencyIndependent: the two draws come from separate
// streams, so turning latency on leaves the drop pattern alone.
func TestLinkLossLatencyIndependent(t *testing.T) {
	if !reflect.DeepEqual(dropPattern(Options{Seed: 5, LinkLoss: 0.5}, 2, 200),
		dropPattern(Options{Seed: 5, LinkLoss: 0.5, LinkLatencyBase: 0.001, LinkLatencyJitter: 0.002}, 2, 200)) {
		t.Fatal("enabling latency moved the drop pattern")
	}
}

// TestLinkLossKeepsLatencyStream: a dropped message draws nothing from the
// latency stream, so turning loss on leaves the latency of each delivered
// message alone.
func TestLinkLossKeepsLatencyStream(t *testing.T) {
	lossy := newLink(&Options{Seed: 5, LinkLoss: 0.5, LinkLatencyJitter: 0.01}, 2, subject.Datagram)
	clean := newLink(&Options{Seed: 5, LinkLatencyJitter: 0.01}, 2, subject.Datagram)
	for i := 0; i < 200; i++ {
		if lossy.deliver() {
			clean.deliver()
		}
		if lossy.accrued != clean.accrued {
			t.Fatalf("message %d: accrued %v under loss, %v without", i, lossy.accrued, clean.accrued)
		}
	}
}

// TestLinkLossDeterministic: instance i's drops follow the Seed*31+i
// stream alone, so one seed replays them and instances differ.
func TestLinkLossDeterministic(t *testing.T) {
	o := Options{Seed: 42, LinkLoss: 0.5}
	for _, i := range []int{0, 1} {
		rng := rand.New(rand.NewSource(42*31 + int64(i)))
		for n, got := range dropPattern(o, i, 200) {
			if want := rng.Float64() >= 0.5; got != want {
				t.Fatalf("instance %d message %d: delivered %v, want %v", i, n, got, want)
			}
		}
	}
	if reflect.DeepEqual(dropPattern(o, 0, 200), dropPattern(o, 1, 200)) {
		t.Fatal("instances 0 and 1 drop alike")
	}
}

// TestLinkLatencyDeterministic: instance i's latency follows the
// Seed*37+i stream on either transport, so one seed replays it and
// another seed does not.
func TestLinkLatencyDeterministic(t *testing.T) {
	accrued := func(seed int64, transport subject.Transport) float64 {
		l := newLink(&Options{Seed: seed, LinkLatencyBase: 0.010, LinkLatencyJitter: 0.005}, 1, transport)
		rng, want := rand.New(rand.NewSource(seed*37+1)), 0.0
		for n := 0; n < 200; n++ {
			want += 0.010 + float64(rng.Float64()*0.005)
			if !l.deliver() || l.accrued != want {
				t.Fatalf("seed %d %v message %d: accrued %v, want %v", seed, transport, n, l.accrued, want)
			}
		}
		return l.accrued
	}
	for _, transport := range []subject.Transport{subject.Stream, subject.Datagram} {
		a := accrued(7, transport)
		if lo, hi := 2.0, 3.0; a < lo || a > hi { // 200 × (10 ms + [0, 5) ms)
			t.Fatalf("%v: accrued %v outside [%v, %v]", transport, a, lo, hi)
		}
		if b := accrued(8, transport); b == a {
			t.Fatalf("%v: seeds 7 and 8 accrued the same %v", transport, a)
		}
	}
}

// TestLinkDeterministic pins where the draws come from when both are on:
// instance i's loss stream is seeded Seed*31+i and its latency stream
// Seed*37+i, so the same campaign seed gives the same sequence and
// instances differ.
func TestLinkDeterministic(t *testing.T) {
	o := Options{Seed: 7, LinkLoss: 0.3, LinkLatencyBase: 0.01, LinkLatencyJitter: 0.02}
	for _, i := range []int{0, 3} {
		l := newLink(&o, i, subject.Datagram)
		loss, lat := rand.New(rand.NewSource(7*31+int64(i))), rand.New(rand.NewSource(7*37+int64(i)))
		acc := 0.0
		for n := 0; n < 500; n++ {
			want := loss.Float64() >= 0.3
			if want {
				acc += 0.01 + float64(lat.Float64()*0.02)
			}
			if got := l.deliver(); got != want || l.accrued != acc {
				t.Fatalf("instance %d message %d: delivered %v accrued %v, want %v and %v", i, n, got, l.accrued, want, acc)
			}
		}
	}
}

// buildDNSQuery assembles a minimal A query without importing the dns
// internals.
func buildDNSQuery(name string) []byte {
	q := []byte{0x12, 0x34, 0x01, 0x00, 0x00, 0x01, 0, 0, 0, 0, 0, 0}
	for _, label := range strings.Split(name, ".") {
		q = append(q, byte(len(label)))
		q = append(q, label...)
	}
	q = append(q, 0x00, 0x00, 0x01, 0x00, 0x01)
	return q
}
