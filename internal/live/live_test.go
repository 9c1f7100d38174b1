package live

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/fuzz"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/subject/subjecttest"
)

// echoBin is the sample external echo server, built once per test run.
// It is a genuinely separate process: these tests exercise the same
// spawn/readiness/crash/hang machinery the CI smoke drives.
var echoBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "cmfuzz-live-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	echoBin = filepath.Join(dir, "echoserver")
	if out, err := exec.Command("go", "build", "-o", echoBin, "cmfuzz/examples/echoserver").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building echoserver fixture: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

const echoTemplate = `# sample echo server configuration
mode=plain
#mode=upper
#mode=reverse
verbose=false
#verbose=true
max_payload=1024
#max_payload=64
`

func echoSpec() Spec {
	return Spec{
		Cmd:            []string{echoBin, "-port", "{port}", "-config", "{config}"},
		Transport:      TransportUDP,
		ConfigTemplate: echoTemplate,
		ConfigName:     "echo.conf",
		ReadTimeoutMS:  200,
	}
}

func TestRenderConfigFile(t *testing.T) {
	tmpl := "# comment\nmode=plain\n#verbose=true\nkeep=1\n"
	got := RenderConfigFile(tmpl, map[string]string{"mode": "upper", "verbose": "true", "extra": "x"})
	want := "# comment\nmode=upper\nverbose=true\nkeep=1\n\nextra=x\n"
	if got != want {
		t.Fatalf("rendered:\n%q\nwant:\n%q", got, want)
	}
}

func TestSpecValidation(t *testing.T) {
	if err := (Spec{}).Validate(); err == nil {
		t.Fatal("empty spec must fail validation")
	}
	if err := (Spec{Cmd: []string{"x"}, Addr: "h:1"}).Validate(); err == nil {
		t.Fatal("cmd+addr must be mutually exclusive")
	}
	if err := (Spec{Cmd: []string{"x"}, Transport: "sctp"}).Validate(); err == nil {
		t.Fatal("unknown transport must fail")
	}
	s := Spec{Cmd: []string{"srv"}, Rails: Rails{Rate: 100, MaxRestarts: 5}}.withDefaults()
	if s.Rails.Burst != 10 || s.Rails.RestartWindow != 30 {
		t.Fatalf("defaults not applied: %+v", s.Rails)
	}
	rt, err := ParseSpec([]byte(s.JSON()))
	if err != nil {
		t.Fatal(err)
	}
	if rt.JSON() != s.JSON() {
		t.Fatalf("spec did not round-trip:\n%s\n%s", s.JSON(), rt.JSON())
	}
}

func TestClassifierBounded(t *testing.T) {
	c := newClassifier()
	tr := coverage.NewTrace()
	c.setTrace(tr)
	c.newSession()
	// Responses with identical shape add nothing once the class and its
	// self-transition have both been seen.
	c.observe([][]byte{[]byte("hello")})
	c.observe([][]byte{[]byte("hello")})
	n := tr.Count()
	for i := 0; i < 50; i++ {
		c.observe([][]byte{[]byte("hello")})
	}
	if tr.Count() != n {
		t.Fatalf("repeated identical responses grew coverage %d -> %d", n, tr.Count())
	}
	// A different length bucket or first nibble is a new class.
	c.observe([][]byte{[]byte(strings.Repeat("x", 300))})
	if tr.Count() <= n {
		t.Fatal("new response shape did not add coverage")
	}
	// Silence records its own edge.
	before := tr.Count()
	c.observe(nil)
	if tr.Count() != before+1 {
		t.Fatalf("silence edge: %d -> %d", before, tr.Count())
	}
}

func TestGenericPitParses(t *testing.T) {
	pit, err := fuzz.ParsePit(genericPitXML)
	if err != nil {
		t.Fatalf("generic pit: %v", err)
	}
	if pit.DefaultStateModel() == nil {
		t.Fatal("generic pit has no state model")
	}
}

func TestProbeStartupCoverageTracksConfig(t *testing.T) {
	sub, err := NewSubject(echoSpec())
	if err != nil {
		t.Fatal(err)
	}
	plain := subject.Probe(sub, map[string]string{"mode": "plain", "verbose": "false"})
	loud := subject.Probe(sub, map[string]string{"mode": "upper", "verbose": "true"})
	if plain == 0 || loud == 0 {
		t.Fatalf("probes failed: plain=%d loud=%d", plain, loud)
	}
	if loud <= plain {
		t.Fatalf("feature-rich config should show more startup coverage: plain=%d loud=%d", plain, loud)
	}
}

func TestLiveEchoRoundTrip(t *testing.T) {
	sub, err := NewSubject(echoSpec())
	if err != nil {
		t.Fatal(err)
	}
	inst := sub.NewInstance()
	defer inst.Close()
	tr := coverage.NewTrace()
	if err := inst.Start(map[string]string{"mode": "upper"}, tr); err != nil {
		t.Fatal(err)
	}
	if tr.Count() == 0 {
		t.Fatal("no startup coverage from banner")
	}
	exe := coverage.NewTrace()
	inst.SetTrace(exe)
	inst.NewSession()
	resps := inst.Message([]byte("hello"))
	if len(resps) != 1 || string(resps[0]) != "HELLO" {
		t.Fatalf("resps = %q, want [HELLO]", resps)
	}
	if exe.Count() == 0 {
		t.Fatal("response produced no inferred coverage")
	}
}

// TestLivePayloadReadOnly: a live instance only sends what Message is
// given, so it passes the conformance suite's read-only payload check.
func TestLivePayloadReadOnly(t *testing.T) {
	spec := echoSpec()
	spec.HangThreshold = 1000 // an oversized datagram draws no reply; keep respawns out
	sub, err := NewSubject(spec)
	if err != nil {
		t.Fatal(err)
	}
	subjecttest.PayloadReadOnly(t, sub, map[string]string{"mode": "upper"}, 10)
}

func TestLiveTCPRoundTrip(t *testing.T) {
	spec := echoSpec()
	spec.Cmd = append(spec.Cmd, "-transport", "tcp")
	spec.Transport = TransportTCP
	sub, err := NewSubject(spec)
	if err != nil {
		t.Fatal(err)
	}
	inst := sub.NewInstance()
	defer inst.Close()
	tr := coverage.NewTrace()
	if err := inst.Start(map[string]string{"mode": "reverse"}, tr); err != nil {
		t.Fatal(err)
	}
	inst.SetTrace(coverage.NewTrace())
	inst.NewSession()
	resps := inst.Message([]byte("abc"))
	if len(resps) != 1 || string(resps[0]) != "cba" {
		t.Fatalf("resps = %q, want [cba]", resps)
	}
}

func TestDeadProcessBecomesCrash(t *testing.T) {
	spec := echoSpec()
	spec.HangThreshold = 100 // keep hang detection out of this test
	sub, err := NewSubject(spec)
	if err != nil {
		t.Fatal(err)
	}
	inst := sub.NewInstance().(*Instance)
	defer inst.Close()
	if err := inst.Start(map[string]string{"crash_on": "BOOM"}, coverage.NewTrace()); err != nil {
		t.Fatal(err)
	}
	inst.SetTrace(coverage.NewTrace())
	inst.NewSession()
	inst.Message([]byte("xxBOOMxx")) // server exits before replying
	// Wait for the exit observer to reap the process.
	deadline := time.Now().Add(5 * time.Second)
	for inst.proc.alive() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if inst.proc.alive() {
		t.Fatal("server did not die on crash token")
	}
	crash := bugs.Capture(func() { inst.Message([]byte("after")) })
	if crash == nil {
		t.Fatal("dead process did not surface as a crash")
	}
	if crash.Kind != bugs.AbnormalExit {
		t.Fatalf("kind = %v, want abnormal-exit", crash.Kind)
	}
	if !strings.Contains(crash.Function, "exit:134") {
		t.Fatalf("function = %q, want exit:134", crash.Function)
	}
	if !strings.Contains(crash.Detail, "crash token") {
		t.Fatalf("detail lost the stderr tail: %q", crash.Detail)
	}
	// The driver respawned a replacement under the same config: fuzzing
	// continues without campaign intervention.
	resps := inst.Message([]byte("recovered"))
	if len(resps) != 1 || string(resps[0]) != "recovered" {
		t.Fatalf("post-respawn resps = %q", resps)
	}
}

// TestStderrTailSurvivesExit: a target that writes one stderr line and
// exits at once (the echo server without -port) must have that line in
// its crash detail every time. Wait reaps such a process while its
// stderr may still be unread, so the tail used to go missing now and
// then; 200 runs give that race its chances.
func TestStderrTailSurvivesExit(t *testing.T) {
	spec := echoSpec()
	spec.Cmd = []string{echoBin, "-config", "{config}"}
	spec = spec.withDefaults()
	const want = "echoserver: -port is required"
	for run := 0; run < 200; run++ {
		p, err := spawn(spec, nil)
		var detail string
		if err != nil {
			detail = err.Error() // died before readiness was settled
		} else {
			detail = p.crash("echo").Detail
			p.stop()
		}
		if !strings.Contains(detail, want) {
			t.Fatalf("run %d: crash detail lost the stderr tail: %q", run, detail)
		}
	}
}

func TestHangRespawnsThenStormTripsKillSwitch(t *testing.T) {
	spec := echoSpec()
	spec.ReadTimeoutMS = 25
	spec.HangThreshold = 2
	spec.Rails = Rails{MaxRestarts: 2, RestartWindow: 300}
	sub, err := NewSubject(spec)
	if err != nil {
		t.Fatal(err)
	}
	var tripReason string
	sub.KillSwitch().SetOnTrip(func(r string) { tripReason = r })
	inst := sub.NewInstance().(*Instance)
	defer inst.Close()
	// wedge_after=1: one echo, then silence — every hang respawns into
	// another wedge, so the restart storm is inevitable.
	if err := inst.Start(map[string]string{"wedge_after": "1"}, coverage.NewTrace()); err != nil {
		t.Fatal(err)
	}
	inst.SetTrace(coverage.NewTrace())
	inst.NewSession()
	for i := 0; i < 40 && !sub.KillSwitch().Tripped(); i++ {
		inst.Message([]byte("m"))
	}
	if !sub.KillSwitch().Tripped() {
		t.Fatal("restart storm never tripped the kill switch")
	}
	if !strings.Contains(tripReason, "restart storm") {
		t.Fatalf("trip reason = %q", tripReason)
	}
	// A tripped campaign goes inert: no sockets, no spawns.
	if resps := inst.Message([]byte("m")); resps != nil {
		t.Fatalf("tripped instance still answered: %q", resps)
	}
	if err := inst.Start(map[string]string{}, coverage.NewTrace()); err == nil {
		t.Fatal("Start after trip must fail")
	}
}

// TestSubjectFromJSON rebuilds a subject from the JSON form fleet specs
// and the dist wire carry, through ParseSpec and NewSubject as a dist
// worker does, and checks the accessors the campaign drivers read: the
// spec round-trips, the rails are shared, and Info, ConfigInput and
// PitXML follow the spec. Nothing is spawned.
func TestSubjectFromJSON(t *testing.T) {
	fromJSON := func(raw string) (*Subject, error) {
		spec, err := ParseSpec([]byte(raw))
		if err != nil {
			return nil, err
		}
		return NewSubject(spec)
	}
	spec := Spec{Addr: "127.0.0.1:1", Transport: TransportTCP, Name: "broker",
		ConfigTemplate: echoTemplate, PitXML: "<Peach/>"}
	sub, err := fromJSON(spec.JSON())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sub.LiveSpecJSON(), spec.withDefaults().JSON(); got != want {
		t.Fatalf("spec round trip:\n got %s\nwant %s", got, want)
	}
	if sub.KillSwitch() == nil || sub.KillSwitch() != sub.KillSwitch() {
		t.Fatal("kill switch missing or not shared")
	}
	sub.SetRecorder(nil) // a nil recorder is allowed
	info := sub.Info()
	if info.Protocol != "BROKER" || info.Transport != subject.Stream || info.Port != nsPort {
		t.Fatalf("info = %+v", info)
	}
	if in := sub.ConfigInput(); len(in.Files) != 1 || in.Files[0].Content != echoTemplate || in.Files[0].Name != "target.conf" {
		t.Fatalf("config input = %+v", in)
	}
	if sub.PitXML() != "<Peach/>" {
		t.Fatalf("pit = %q", sub.PitXML())
	}

	bare, err := fromJSON(Spec{Addr: "127.0.0.1:1"}.JSON())
	if err != nil {
		t.Fatal(err)
	}
	if len(bare.ConfigInput().Files) != 0 || bare.PitXML() != genericPitXML || bare.Info().Transport != subject.Datagram {
		t.Fatal("a bare spec should have no config files, the generic Pit and UDP")
	}
	if _, err := fromJSON(`{"transport":"sctp"}`); err == nil {
		t.Fatal("invalid spec accepted")
	}
}
