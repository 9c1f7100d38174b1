package cmfuzz_test

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// A goLine is one line of a Go source file under the module root.
type goLine struct {
	path string // slash-separated, relative to the module root
	n    int
	text string
}

func (l goLine) String() string {
	return l.path + ":" + strconv.Itoa(l.n) + ": " + strings.TrimSpace(l.text)
}

// goLines returns every line of the .go files under dirs (relative to
// the module root, hidden directories skipped) that match re, test files
// included only when tests is set.
func goLines(t *testing.T, re *regexp.Regexp, tests bool, dirs ...string) []goLine {
	t.Helper()
	var out []goLine
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || (!tests && strings.HasSuffix(path, "_test.go")) {
				return nil
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for i, text := range strings.Split(string(data), "\n") {
				if re.MatchString(text) {
					out = append(out, goLine{filepath.ToSlash(path), i + 1, text})
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// none fails t with every line found.
func none(t *testing.T, found []goLine, why string) {
	t.Helper()
	for _, l := range found {
		t.Errorf("%s: %s", why, l)
	}
}

// exactlyOne fails t unless found holds one line.
func exactlyOne(t *testing.T, found []goLine, what string) {
	t.Helper()
	if len(found) != 1 {
		t.Errorf("%s: %d places, want 1: %v", what, len(found), found)
	}
}

// walkGo parses every non-test .go file under dir (hidden directories
// skipped) and calls visit on each node, with the file's slash path and
// the name of the top-level function the node is in ("" outside one).
func walkGo(t *testing.T, dir string, visit func(path, fn string, n ast.Node)) {
	t.Helper()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn := ""
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn = fd.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				visit(filepath.ToSlash(path), fn, n)
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// callers returns the functions of the non-test files under dir that
// call a method named name, as "path: function".
func callers(t *testing.T, dir, name string) map[string]bool {
	t.Helper()
	found := map[string]bool{}
	walkGo(t, dir, func(path, fn string, n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == name {
				found[path+": "+fn] = true
			}
		}
	})
	return found
}

// TestDesignGuards holds the repository's structural invariants: each
// subtest names one thing that exists in exactly one place, and fails
// when a change brings a second one back.
func TestDesignGuards(t *testing.T) {
	// Sync, sample, saturation and crash events are emitted by
	// parallel.Loop and nowhere else; a second emitter in dist or fleet
	// is a second event loop.
	t.Run("OneEventLoop", func(t *testing.T) {
		none(t, goLines(t, regexp.MustCompile(`telemetry\.Ev(Sync|Sample|Saturation|Crash)`), false,
			"internal/dist", "internal/fleet"), "event-loop event emitted outside parallel.Loop")
	})

	// A message is its model's compiled active leaves, built, mutated and
	// serialized by the same code for the engine and the public API; the
	// tree clone and tree relation walk live on only as the test
	// reference (internal/fuzz/compiled_test.go).
	t.Run("OneMessagePath", func(t *testing.T) {
		none(t, goLines(t, regexp.MustCompile(`cloneInto|NewMessageIn|AppendSerialize|fixRelations`), false,
			"internal/fuzz"), "second message path")
	})

	// A lease reaches a worker through Coordinator.send and nowhere else —
	// first dispatch, retry after a death, and Restore's replay of the
	// journals alike; a lock-step `rpc(msgLease` is the serial replay
	// coming back. And one lease executor: StepN is called and a coverage
	// delta is cut in one non-test place each (Instance.RunLease,
	// Instance.delta), so a dist worker's lanes and the in-process leases
	// cannot fork it.
	t.Run("OneLeaseIssuingPath", func(t *testing.T) {
		none(t, goLines(t, regexp.MustCompile(`rpc\(msgLease`), true, "internal/dist"), "lock-step lease RPC")
		for _, call := range []string{".StepN(", "coverage.AppendDelta("} {
			exactlyOne(t, goLines(t, regexp.MustCompile(regexp.QuoteMeta(call)), false, "internal", "cmd"), call)
		}
	})

	// The event loop has one Source outside tests, parallel.LeaseSource;
	// parallel.Run and the dist coordinator differ only in its Transport,
	// so a second non-test Done(i int) is a second source. And a Result is
	// never read off a worker's engine: the Finalize message is gone, its
	// code retired.
	t.Run("OneLeaseSource", func(t *testing.T) {
		exactlyOne(t, goLines(t, regexp.MustCompile(`^func \([a-z]+ \*?[A-Za-z]+\) Done\(i int\)`), false,
			"internal"), "non-test Done(i int) method")
		// Spelled in two halves so this file does not match itself.
		none(t, goLines(t, regexp.MustCompile("msg"+"Finalize"), true, "."), "retired Finalize message")
	})

	// A campaign becomes parallel.Options in spec.Campaign.Options and
	// nowhere else — bench/ and examples/ call the library rather than
	// describe campaigns to it, and the dist wire fills the value it
	// decodes field by field — and each campaign and session flag is
	// registered by exactly one call (serve's -monitor, the API address,
	// is a different flag).
	t.Run("OneCampaignDescription", func(t *testing.T) {
		var literals []goLine
		for _, l := range goLines(t, regexp.MustCompile(`parallel\.Options\{`), false, ".") {
			if !regexp.MustCompile(`^(internal/spec|bench|examples)/`).MatchString(l.path) {
				literals = append(literals, l)
			}
		}
		none(t, literals, "parallel.Options built outside spec.Campaign.Options")
		for _, f := range []string{"subject", "mode", "hours", "seed", "n", "alloc", "no-config-mutation",
			"raw-weights", "sat-window", "sat-min-gain", "link-loss", "link-latency", "link-jitter",
			"target-cmd", "target-addr", "target-config-template", "target-transport", "target-spec",
			"target-rate", "target-max-restarts", "target-restart-window", "target-max-hangs",
			"telemetry", "events", "trace", "monitor"} {
			re := regexp.MustCompile(`\.(String|Int|Int64|Float64|Bool|Func)(Var)?\((&[^,]+, )?"` + regexp.QuoteMeta(f) + `"`)
			var regs []goLine
			for _, l := range goLines(t, re, false, "cmd", "internal") {
				if l.path != "cmd/cmfuzz/serve.go" {
					regs = append(regs, l)
				}
			}
			exactlyOne(t, regs, "registration of -"+f)
		}
	})

	// Figure 1 — relation quantification, then grouping and each group's
	// configuration — is planned by parallel.Host.Plan and nowhere else:
	// campaigns, the dist coordinator, the stage commands and the facade's
	// Identify all call it. The probe-executor service it once sat on
	// stays gone.
	t.Run("OnePlanner", func(t *testing.T) {
		re := regexp.MustCompile(`relation\.Quantify\(|schedule\.(Allocate|RandomAllocate|RoundRobinAllocate|GroupAssignment)\(`)
		var calls []goLine
		for _, l := range goLines(t, re, false, ".") {
			if l.path != "internal/parallel/host.go" {
				calls = append(calls, l)
			}
		}
		none(t, calls, "Figure 1 planned outside parallel.Host.Plan")
		if _, err := os.Stat("internal/core/probe"); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("internal/core/probe exists (stat: %v)", err)
		}
	})

	// The live run board is the recorder's: the event loop publishes one
	// snapshot per coverage sample from one function, and the per-step
	// progress board it replaced stays gone.
	t.Run("OneLiveBoard", func(t *testing.T) {
		none(t, goLines(t, regexp.MustCompile(`telemetry\.Progress\b|NewProgress|StepInstance`), false, "."),
			"per-step progress board")
		publishers := callers(t, "internal/parallel", "Publish")
		if len(publishers) != 1 {
			t.Errorf("Publish called from %d functions in internal/parallel, want 1: %v", len(publishers), publishers)
		}
	})

	// A dist instance is rebuilt on another worker one way: booted at
	// clock 0 and replayed through its lease journal, after a worker's
	// death as in Restore. Only rehome moves an instance (reassign); no
	// instance resumes at a clock of its own (SetClock); no restoring
	// mode boots and counts differently; and no death reaches the
	// telemetry that artifacts are written from.
	t.Run("OneRecoveryPath", func(t *testing.T) {
		none(t, goLines(t, regexp.MustCompile(`SetClock\(|CtrWorkerDeaths|CtrReassignments`), false, "."),
			"second recovery path")
		walkGo(t, ".", func(path, _ string, n ast.Node) {
			if f, ok := n.(*ast.Field); ok {
				for _, name := range f.Names {
					if name.Name == "restoring" {
						t.Errorf("%s: restoring field: a restore that boots or counts apart from a death", path)
					}
				}
			}
		})
		if from := callers(t, "internal/dist", "reassign"); len(from) != 1 {
			t.Errorf("reassign called from %d functions, want 1: %v", len(from), from)
		}
	})
}
