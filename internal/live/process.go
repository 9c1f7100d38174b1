package live

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"cmfuzz/internal/bugs"
)

// RenderConfigFile substitutes a configuration assignment into the
// target's native key=value template: existing `key=...` lines are
// rewritten in place, matching commented-out `#key=...` lines are
// uncommented, and keys with no line in the template are appended in
// sorted order. Comments and unrelated lines survive untouched, so the
// target sees a file shaped exactly like the one its operator wrote.
func RenderConfigFile(template string, cfg map[string]string) string {
	done := make(map[string]bool, len(cfg))
	var b strings.Builder
	for _, line := range strings.Split(template, "\n") {
		trimmed := strings.TrimSpace(line)
		key := ""
		if i := strings.IndexByte(trimmed, '='); i > 0 {
			k := strings.TrimSpace(strings.TrimPrefix(trimmed[:i], "#"))
			if v, ok := cfg[k]; ok && !done[k] {
				key = k
				b.WriteString(k + "=" + v + "\n")
				done[k] = true
			}
		}
		if key == "" {
			b.WriteString(line + "\n")
		}
	}
	extra := make([]string, 0, len(cfg))
	for k := range cfg {
		if !done[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		b.WriteString(k + "=" + cfg[k] + "\n")
	}
	return b.String()
}

// tailRing keeps the last few KiB of the target's stderr so a crash
// report can carry the tail the way an ASan triage note carries the
// sanitizer output.
type tailRing struct {
	mu    sync.Mutex
	lines []string
	bytes int
}

const tailMaxLines = 40
const tailMaxBytes = 8 << 10

func (t *tailRing) add(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lines = append(t.lines, line)
	t.bytes += len(line)
	for len(t.lines) > tailMaxLines || (t.bytes > tailMaxBytes && len(t.lines) > 1) {
		t.bytes -= len(t.lines[0])
		t.lines = t.lines[1:]
	}
}

func (t *tailRing) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}

// A process is one spawned target server: the running command, its
// chosen listen port, the readiness banner it printed, and the exit
// observer that captures how it died.
type process struct {
	cmd    *exec.Cmd
	port   int
	banner string
	dir    string // temp dir holding the rendered config; removed on stop
	stderr *tailRing
	// errR is the read end of the target's stderr, a pipe Wait does not
	// own: Wait closes the pipes it made as soon as the process is reaped,
	// which could cut the drain off before the tail a crash report carries.
	// drained closes when the drain has read it to the end.
	errR    *os.File
	drained chan struct{}

	done     chan struct{} // closed when Wait returns
	waitOnce sync.Once
	exitErr  error // Wait's error, valid after done closes
}

// alive reports whether the process has not yet been observed to exit.
func (p *process) alive() bool {
	if p == nil || p.cmd == nil {
		return false
	}
	select {
	case <-p.done:
		return false
	default:
		return true
	}
}

// stop kills the process (SIGKILL — the fuzzer owns it, graceful
// shutdown buys nothing), waits for the exit observer, and removes the
// rendered-config directory. Idempotent.
func (p *process) stop() {
	if p == nil {
		return
	}
	if p.cmd != nil && p.cmd.Process != nil {
		p.cmd.Process.Kill()
		<-p.done
		p.drain()
	}
	if p.dir != "" {
		os.RemoveAll(p.dir)
		p.dir = ""
	}
}

// stderrDrainWait bounds how long an exited process's stderr may take to
// read to its end: a descendant that inherited the pipe keeps it open.
const stderrDrainWait = time.Second

// drain waits, at most stderrDrainWait, for the stderr drain of an exited
// process to finish, then closes the pipe so a drain still blocked on a
// descendant's copy ends too.
func (p *process) drain() {
	select {
	case <-p.drained:
	case <-time.After(stderrDrainWait):
	}
	p.errR.Close()
}

// crash converts the process's exit status into the triage model: the
// fatal signal (a real SIGSEGV maps to the SEGV kind, like an ASan
// report would) or the exit code, with the stderr tail as detail. The
// function field carries the exit cause so distinct failure modes
// dedup separately in the ledger.
func (p *process) crash(protocol string) *bugs.Crash {
	<-p.done
	p.drain()
	kind := bugs.AbnormalExit
	cause := "exit"
	if p.exitErr != nil {
		if ee, ok := p.exitErr.(*exec.ExitError); ok {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() {
				cause = "signal:" + ws.Signal().String()
				switch ws.Signal() {
				case syscall.SIGSEGV, syscall.SIGBUS:
					kind = bugs.SEGV
				}
			} else {
				cause = fmt.Sprintf("exit:%d", ee.ExitCode())
			}
		} else {
			cause = "error:" + p.exitErr.Error()
		}
	} else {
		cause = "exit:0"
	}
	detail := fmt.Sprintf("target process died (%s)", cause)
	if tail := p.stderr.String(); tail != "" {
		detail += "; stderr: " + tail
	}
	return &bugs.Crash{Protocol: protocol, Kind: kind, Function: cause, Detail: detail}
}

// freePort asks the kernel for an unused local port on the given
// transport. The port is released before the target binds it, so a
// collision is possible but vanishingly rare on a loopback-only CI box.
func freePort(transport string) (int, error) {
	if transport == TransportTCP {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		defer l.Close()
		return l.Addr().(*net.TCPAddr).Port, nil
	}
	c, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer c.Close()
	return c.LocalAddr().(*net.UDPAddr).Port, nil
}

// spawn renders cfg to the target's configuration surface, starts the
// server process, and waits for readiness: the ReadyLine banner on
// stdout, or (TCP) a successful dial of the chosen port. On success the
// returned process is live and listening.
func spawn(spec Spec, cfg map[string]string) (*process, error) {
	port, err := freePort(spec.Transport)
	if err != nil {
		return nil, fmt.Errorf("live: allocate port: %w", err)
	}

	dir, err := os.MkdirTemp("", "cmfuzz-live-")
	if err != nil {
		return nil, err
	}
	cfgPath := filepath.Join(dir, spec.ConfigName)
	argv := make([]string, len(spec.Cmd))
	for i, a := range spec.Cmd {
		a = strings.ReplaceAll(a, "{port}", fmt.Sprintf("%d", port))
		a = strings.ReplaceAll(a, "{config}", cfgPath)
		argv[i] = a
	}
	var env []string
	switch spec.Render {
	case RenderFile:
		if err := os.WriteFile(cfgPath, []byte(RenderConfigFile(spec.ConfigTemplate, cfg)), 0o644); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
	case RenderEnv:
		env = os.Environ()
		keys := make([]string, 0, len(cfg))
		for k := range cfg {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			env = append(env, "CMFUZZ_CFG_"+strings.ToUpper(strings.NewReplacer("-", "_", ".", "_").Replace(k))+"="+cfg[k])
		}
	case RenderCLI:
		keys := make([]string, 0, len(cfg))
		for k := range cfg {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			argv = append(argv, "--"+k+"="+cfg[k])
		}
	}

	// The child runs inside the rendered-config dir, so a relative
	// command path must be pinned to the caller's cwd first.
	exe := argv[0]
	if strings.Contains(exe, "/") && !filepath.IsAbs(exe) {
		if abs, aerr := filepath.Abs(exe); aerr == nil {
			exe = abs
		}
	}
	cmd := exec.Command(exe, argv[1:]...)
	cmd.Env = env
	cmd.Dir = dir
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	errR, errW, err := os.Pipe()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	cmd.Stderr = errW
	err = cmd.Start()
	errW.Close() // the child holds its own copy; the drain sees EOF once it exits
	if err != nil {
		errR.Close()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("live: start %s: %w", argv[0], err)
	}
	p := &process{cmd: cmd, port: port, dir: dir, stderr: &tailRing{}, errR: errR, drained: make(chan struct{}), done: make(chan struct{})}

	// Exit observer: one Wait per process, its outcome published through
	// the done channel so alive() and crash() never race the reaper.
	bannerCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 64<<10), 64<<10)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if !sent && strings.HasPrefix(line, spec.ReadyLine) {
				bannerCh <- line
				sent = true
			}
		}
		if !sent {
			close(bannerCh)
		}
	}()
	go func() {
		defer close(p.drained)
		sc := bufio.NewScanner(errR)
		sc.Buffer(make([]byte, 64<<10), 64<<10)
		for sc.Scan() {
			p.stderr.add(sc.Text())
		}
	}()
	go func() {
		err := cmd.Wait()
		p.waitOnce.Do(func() {
			p.exitErr = err
			close(p.done)
		})
	}()

	// Readiness: banner line, process death, or timeout — whichever
	// comes first. TCP targets without a banner get a dial fallback.
	deadline := time.After(spec.readyTimeout())
	select {
	case banner, ok := <-bannerCh:
		if ok {
			p.banner = banner
			return p, nil
		}
		// stdout closed without a banner: either the process died or it
		// is a banner-less server. Fall through to the dial probe.
	case <-p.done:
	case <-deadline:
		p.stop()
		return nil, fmt.Errorf("live: target not ready after %s", spec.readyTimeout())
	}
	if !p.alive() {
		c := p.crash(spec.Name)
		p.stop()
		return nil, fmt.Errorf("live: target died during startup: %s", c.Detail)
	}
	if spec.Transport == TransportTCP {
		probeDeadline := time.Now().Add(spec.readyTimeout())
		for time.Now().Before(probeDeadline) {
			conn, derr := net.DialTimeout("tcp", fmt.Sprintf("127.0.0.1:%d", port), 100*time.Millisecond)
			if derr == nil {
				conn.Close()
				return p, nil
			}
			time.Sleep(10 * time.Millisecond)
		}
		p.stop()
		return nil, fmt.Errorf("live: target never opened port %d", port)
	}
	// UDP with no banner: nothing to probe; trust the process.
	return p, nil
}
