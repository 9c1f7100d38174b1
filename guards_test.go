package cmfuzz_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
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
	var loaded *module // type-checked once, by the first subtest that needs it
	load := func(t *testing.T) *module {
		if loaded == nil {
			loaded = loadModule(t)
		}
		return loaded
	}

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
	// clock 0 and replayed through its lease journal after a worker's
	// death, by replay, which await alone calls. Only rehome moves an
	// instance (reassign); no instance resumes at a clock of its own
	// (SetClock); no restoring mode boots and counts differently; and no
	// death reaches the telemetry that artifacts are written from. A
	// checkpoint is a campaign's spec and position, and Restore re-runs
	// it: the checkpoint visitor names no history (journals, replicas,
	// batches, mirrors), and what restored the history it once carried
	// — a resumed loop, a restored recorder or ledger, the in-flight
	// drain, the "nothing moved since" predicate — stays gone.
	t.Run("OneRecoveryPath", func(t *testing.T) {
		none(t, goLines(t, regexp.MustCompile(`ResumeLoop|telemetry\.Restore\b|RestoreLedger|drainInflight|\bCheckpointed\b`), false, "."),
			"checkpoint history restored")
		none(t, goLines(t, regexp.MustCompile(`^func Restore\(`), false, "internal/telemetry"), "checkpoint history restored")
		visited := false
		walkGo(t, "internal/dist", func(path, fn string, n ast.Node) {
			if fn != "checkpoint" {
				return
			}
			visited = true
			if id, ok := n.(*ast.Ident); ok {
				for _, word := range []string{"journal", "replica", "batch", "mirror"} {
					if strings.Contains(strings.ToLower(id.Name), word) {
						t.Errorf("%s: (*codec).checkpoint names %s: a checkpoint that carries history", path, id.Name)
					}
				}
			}
		})
		if !visited {
			t.Error("no checkpoint visitor in internal/dist")
		}
		if from := callers(t, "internal/dist", "replay"); len(from) != 1 || !from["internal/dist/coordinator.go: await"] {
			t.Errorf("replay called from %v, want await alone", from)
		}
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

	// Each metric family is defined by the package that measures it, in
	// one file: a "cmfuzz_..." family name spelled in two non-test files
	// is two owners of one fact. The recorder's cmfuzz_<counter>_total
	// families are spelled once, as internal/telemetry's Ctr* names.
	t.Run("OneMetricFamily", func(t *testing.T) {
		family := regexp.MustCompile(`^cmfuzz_[a-z0-9_]*[a-z0-9]$`)
		defined := map[string]map[string]bool{}
		define := func(name, path string) {
			if defined[name] == nil {
				defined[name] = map[string]bool{}
			}
			defined[name][path] = true
		}
		walkGo(t, ".", func(path, _ string, n ast.Node) {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if v, err := strconv.Unquote(lit.Value); err == nil && family.MatchString(v) {
					define(v, path)
				}
			}
			if vs, ok := n.(*ast.ValueSpec); ok && filepath.Dir(path) == "internal/telemetry" && len(vs.Values) == len(vs.Names) {
				for i, id := range vs.Names {
					if lit, ok := vs.Values[i].(*ast.BasicLit); ok && strings.HasPrefix(id.Name, "Ctr") {
						if v, err := strconv.Unquote(lit.Value); err == nil {
							define("cmfuzz_"+v+"_total", path)
						}
					}
				}
			}
		})
		if len(defined) == 0 {
			t.Fatal("no metric family names found")
		}
		for name, files := range defined {
			if len(files) > 1 {
				var where []string
				for f := range files {
					where = append(where, f)
				}
				sort.Strings(where)
				t.Errorf("metric family %s is defined in %d files: %s", name, len(where), strings.Join(where, ", "))
			}
		}
	})

	// Production code is what production runs: every function and
	// method in non-test internal/... is reached from a main, an init, a
	// package-level initializer or the cmfuzz facade's exported API —
	// by a use of its name, or by a call of an interface method its
	// reachable receiver implements. What only tests reach is deleted, or moved into the
	// one package's test files that use it. testOnly names the few a
	// production path several packages' tests drive traffic through.
	t.Run("NoTestOnlyAPI", func(t *testing.T) {
		testOnly := map[string]string{
			"fuzz.(*DataModel).NewMessage": "the protocols' conformance, alloc, AMQP and CoAP tests build one message of a model",
			"fuzz.(*Message).Serialize":    "the same tests put a built message on the wire",
			"fuzz.(*StateModel).Walk":      "the same tests walk a state model to drive a session",
			"coverage.(*Map).Indices":      "TestResponseDigests hashes each exec's covered cells; mqtt's tests compare two runs' cells",
		}
		m := load(t)
		live := m.reachable()
		for _, fn := range m.funcs {
			name := funcName(fn.obj)
			if why, ok := testOnly[name]; ok {
				delete(testOnly, name)
				if live[fn.obj] {
					t.Errorf("%s: %s is reached from production; drop its allowlist entry (%s)", m.pos(fn.decl.Pos()), name, why)
				}
				continue
			}
			if !live[fn.obj] && strings.HasPrefix(fn.pkg, "internal/") && !fn.testing {
				t.Errorf("%s: %s is reached only from tests", m.pos(fn.decl.Pos()), name)
			}
		}
		for name := range testOnly {
			t.Errorf("allowlist entry %s names no function in non-test internal/...", name)
		}
	})

	// Every field is state production uses: each field of a struct
	// declared in non-test internal/... is read by production code, and
	// a field production reads is filled by it too — by code other than
	// its own struct's setDefaults, or the knob is a constant (stateScan
	// holds the rules and exemptions). A field only tests read or fill
	// is deleted with its writes. testOnly names the few production
	// reads or fills through a way the rules cannot see, and the test
	// seams only tests turn, each with its reason.
	t.Run("NoTestOnlyState", func(t *testing.T) {
		testOnly := map[string]string{
			"dist.Coordinator.onReply": "the fault-injection seam the replay and promotion tests set through export_test.go",
			"dist.hello.Version":       "Pool.AddConn reads it from payload[0] before decoding, so a hello of another layout is still told apart",
			"dist.Config.RPCTimeout":   "TestLatePongKillsWorker and the expired-handshake test need a deadline under a second",
			"fuzz.Config.genProb":      "the TestStepAllocs* gates pin the generation and the havoc path",
			"fuzz.Config.mutateProb":   "the TestStepAllocs* gates pin the generation and the havoc path",
			"fuzz.Config.maxCorpus":    "the corpus-eviction tests and the engine golden set a small pool",
			"fuzz.Config.maxWalkSteps": "the engine golden sets the walk bound it was recorded under",
		}
		m := load(t)
		s := newStateScan(m.info)
		var files []*ast.File
		var fields []declaredField
		for _, f := range m.files {
			s.scan(f.File)
			files = append(files, f.File)
			if strings.HasPrefix(f.pkg, "internal/") && !f.testing {
				fields = append(fields, declaredFields(m.info, f.File)...)
			}
		}
		exempt := exemptions(m.info, files, m.entry)
		for _, d := range fields {
			verdict := s.verdict(d, exempt)
			if verdict != "defaults" && verdict != "unread" && verdict != "unfilled" {
				continue
			}
			if _, ok := testOnly[d.name]; ok {
				delete(testOnly, d.name)
			} else if verdict == "defaults" {
				t.Errorf("%s: %s is filled only by its struct's defaults: make it a constant", m.pos(d.field.Pos()), d.name)
			} else if verdict == "unread" {
				t.Errorf("%s: %s is never read by production code", m.pos(d.field.Pos()), d.name)
			} else {
				t.Errorf("%s: %s is read by production code but filled only by tests", m.pos(d.field.Pos()), d.name)
			}
		}
		for name := range testOnly {
			t.Errorf("allowlist entry %s names no flagged field in non-test internal/...", name)
		}
	})
}

// A listedPackage is one entry of `go list -deps -export -json`.
type listedPackage struct {
	ImportPath, Dir, Export string
	Standard                bool
	GoFiles, Imports        []string
}

// A declaredFunc is one function or method declared in a module
// package's non-test files.
type declaredFunc struct {
	obj     *types.Func
	decl    *ast.FuncDecl
	pkg     string // import path relative to the module ("" for the root)
	testing bool   // its package imports testing
}

// A moduleFile is one parsed non-test file of a module package.
type moduleFile struct {
	*ast.File
	pkg     string // import path relative to the module ("" for the root)
	testing bool   // its package imports testing
}

// A module is the module's non-test packages, type-checked from source
// against the standard library's export data.
type module struct {
	fset      *token.FileSet
	info      *types.Info
	wd        string
	vars      []ast.Node                        // package-level var declarations
	entry     []types.Object                    // main, init and the root package's exported API
	funcs     []declaredFunc                    // in declaration order
	files     []moduleFile                      // every non-test file
	decls     map[*types.Func]*ast.FuncDecl     // every declared function
	typeSpecs map[*types.TypeName]*ast.TypeSpec // every declared package-level type
	std       types.Importer
}

// loadModule lists the module's packages and their dependencies with
// `go list -deps -export`, imports the standard library from its export
// data and type-checks the module's packages from source, in dependency
// order, into one types.Info.
func loadModule(t *testing.T) *module {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	m := &module{
		fset:      token.NewFileSet(),
		info:      newInfo(),
		wd:        wd,
		decls:     map[*types.Func]*ast.FuncDecl{},
		typeSpecs: map[*types.TypeName]*ast.TypeSpec{},
	}
	var pkgs []listedPackage
	pkgs, m.std = goList(t, m.fset, "./...")
	own := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := own[path]; p != nil {
			return p, nil
		}
		return m.std.Import(path)
	})}
	for _, p := range pkgs {
		if p.Standard {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(m.fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		pkg, err := conf.Check(p.ImportPath, m.fset, files, m.info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		own[p.ImportPath] = pkg
		m.add(p, pkg, files)
	}
	return m
}

// goList returns the packages `go list -deps -export` reports for
// patterns, dependencies first, and an importer that reads the standard
// library's among them from their export data.
func goList(t *testing.T, fset *token.FileSet, patterns ...string) ([]listedPackage, types.Importer) {
	t.Helper()
	out, err := exec.Command("go", append([]string{"list", "-deps", "-export",
		"-json=ImportPath,Dir,Export,Standard,GoFiles,Imports"}, patterns...)...).Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var pkgs []listedPackage
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		if p.Standard {
			exports[p.ImportPath] = p.Export
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// add records one type-checked package's declarations and roots.
func (m *module) add(p listedPackage, pkg *types.Package, files []*ast.File) {
	rel, _ := filepath.Rel(m.wd, p.Dir)
	rel = filepath.ToSlash(rel)
	if rel == "." {
		rel = ""
		for _, name := range pkg.Scope().Names() {
			if obj := pkg.Scope().Lookup(name); obj.Exported() {
				m.entry = append(m.entry, obj)
				if tn, ok := obj.(*types.TypeName); ok {
					if named, ok := tn.Type().(*types.Named); ok {
						for i := 0; i < named.NumMethods(); i++ {
							if named.Method(i).Exported() {
								m.entry = append(m.entry, named.Method(i))
							}
						}
					}
				}
			}
		}
	}
	testing := false
	for _, imp := range p.Imports {
		testing = testing || imp == "testing"
	}
	for _, f := range files {
		m.files = append(m.files, moduleFile{f, rel, testing})
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn := m.info.Defs[d.Name].(*types.Func)
				m.decls[fn] = d
				m.funcs = append(m.funcs, declaredFunc{fn, d, rel, testing})
				if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && pkg.Name() == "main") {
					m.entry = append(m.entry, fn)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						m.vars = append(m.vars, s)
					case *ast.TypeSpec:
						if tn, ok := m.info.Defs[s.Name].(*types.TypeName); ok {
							m.typeSpecs[tn] = s
						}
					}
				}
			}
		}
	}
}

// implicit are the interfaces the standard library calls methods
// through without the module naming them.
var implicit = [][2]string{
	{"fmt", "Stringer"}, {"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"},
	{"encoding", "TextMarshaler"}, {"encoding", "BinaryMarshaler"},
	{"io", "Reader"}, {"io", "Writer"}, {"io", "Closer"},
	{"net/http", "Handler"}, {"sort", "Interface"}, {"flag", "Value"},
}

// reachable returns every function reached from the entry points and
// the package-level var declarations. A use of its name in reached code
// is an edge. So is a call of an interface method on an interface
// receiver in reached code: it reaches that method of every reached
// named type, or pointer to it, that implements the interface. Every
// method of error and of implicit counts as called.
func (m *module) reachable() map[*types.Func]bool {
	live := map[*types.Func]bool{}
	named := map[*types.TypeName]bool{}
	var ifaces []*types.Interface
	seen := map[*types.Interface]bool{}
	called := map[*types.Func]bool{}          // interface methods reached code calls
	impls := map[*types.Func][]types.Object{} // each interface method's implementations on reached types
	queue := append([]ast.Node(nil), m.vars...)
	iface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			ifaces = append(ifaces, it)
		}
	}
	mark := func(obj types.Object) bool {
		switch obj := obj.(type) {
		case *types.Func:
			obj = obj.Origin()
			if live[obj] {
				return false
			}
			live[obj] = true
			if d := m.decls[obj]; d != nil {
				queue = append(queue, d)
			}
			return true
		case *types.TypeName:
			if !named[obj] {
				named[obj] = true
				iface(obj.Type())
				if s := m.typeSpecs[obj]; s != nil {
					queue = append(queue, s)
				}
			}
		}
		return false
	}
	call := func(fn *types.Func) {
		if !called[fn] {
			called[fn] = true
			for _, obj := range impls[fn] {
				mark(obj)
			}
		}
	}
	callAll := func(t types.Type) {
		iface(t)
		it := t.Underlying().(*types.Interface)
		for i := 0; i < it.NumMethods(); i++ {
			call(it.Method(i))
		}
	}
	for _, obj := range m.entry {
		mark(obj)
	}
	callAll(types.Universe.Lookup("error").Type())
	for _, pt := range implicit {
		if pkg, err := m.std.Import(pt[0]); err == nil {
			callAll(pkg.Scope().Lookup(pt[1]).Type())
		}
	}
	checked := map[*types.TypeName]int{} // how many of ifaces each named type was tried against
	for changed := true; changed; {
		for len(queue) > 0 {
			n := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if obj := m.info.Uses[n]; obj != nil {
						mark(obj)
					}
				case *ast.SelectorExpr:
					if sel := m.info.Selections[n]; sel != nil && types.IsInterface(sel.Recv()) {
						iface(sel.Recv())
						call(sel.Obj().(*types.Func).Origin())
					}
				case *ast.InterfaceType:
					iface(m.info.TypeOf(n))
				}
				return true
			})
		}
		changed = false
		for tn := range named {
			if m.typeSpecs[tn] == nil || types.IsInterface(tn.Type()) || tn.Type().(*types.Named).TypeParams() != nil {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			for _, it := range ifaces[checked[tn]:] {
				if !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					fn := it.Method(i).Origin()
					obj, _, _ := types.LookupFieldOrMethod(ptr, false, fn.Pkg(), fn.Name())
					impls[fn] = append(impls[fn], obj)
					if called[fn] {
						changed = mark(obj) || changed
					}
				}
			}
			checked[tn] = len(ifaces)
		}
	}
	return live
}

// pos is at as path:line, the path relative to the module.
func (m *module) pos(at token.Pos) string {
	p := m.fset.Position(at)
	rel, err := filepath.Rel(m.wd, p.Filename)
	if err != nil {
		rel = p.Filename
	}
	return filepath.ToSlash(rel) + ":" + strconv.Itoa(p.Line)
}

// funcName spells fn as Go documentation does: pkg.F, pkg.T.M or
// pkg.(*T).M.
func funcName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	t, ptr := recv.Type(), false
	if p, ok := t.(*types.Pointer); ok {
		t, ptr = p.Elem(), true
	}
	name := t.(*types.Named).Obj().Name()
	if ptr {
		name = "(*" + name + ")"
	}
	return fn.Pkg().Name() + "." + name + "." + fn.Name()
}

// A stateScan records what production code does with struct fields:
// which it reads, which it fills, and which its own struct's
// setDefaults or withDefaults fills. That last fill is kept apart: a
// knob only its defaults fill is a constant. A field selector is a read
// unless one of the rules below makes it something else:
//   - on an assignment's left-hand side, or under ++, --, or a range
//     clause's =, every field on the path (x.a.b, x.a[i]) is filled and
//     none of them is read;
//   - in x.f = append(x.f[:0], …) the right-hand x.f is not a read;
//   - clear(x.f) and delete(x.f, k) neither read nor fill x.f;
//   - &x.f reads and fills the path, except inside a (*codec) visitor,
//     where it does neither: the codec is the wire, and what counts is
//     whether either end uses the value;
//   - a composite literal fills the fields it sets, and a call of a
//     pointer method on an addressable field fills that field too;
//   - the embedded fields a promoted selector passes through count as
//     the selector does.
type stateScan struct {
	info      *types.Info
	read      map[*types.Var]bool
	filled    map[*types.Var]bool
	defaulted map[*types.Var]bool
}

func newStateScan(info *types.Info) *stateScan {
	return &stateScan{info, map[*types.Var]bool{}, map[*types.Var]bool{}, map[*types.Var]bool{}}
}

// scan records every field use in one production file.
func (s *stateScan) scan(f *ast.File) {
	for _, decl := range f.Decls {
		codec, defaults := false, (*types.Struct)(nil)
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
			if n, ok := deref(s.info.TypeOf(fd.Recv.List[0].Type)).(*types.Named); ok {
				codec = n.Obj().Name() == "codec"
				if fd.Name.Name == "setDefaults" || fd.Name.Name == "withDefaults" {
					defaults, _ = n.Underlying().(*types.Struct)
				}
			}
		}
		s.walk(decl, codec, defaults)
	}
}

func (s *stateScan) walk(decl ast.Decl, codec bool, defaults *types.Struct) {
	quiet := map[*ast.SelectorExpr]bool{} // field selectors that are not reads
	fill := func(v *types.Var) {
		for i := 0; defaults != nil && i < defaults.NumFields(); i++ {
			if defaults.Field(i) == v {
				s.defaulted[v] = true
				return
			}
		}
		s.filled[v] = true
	}
	lvalue := func(e ast.Expr, read bool) {
		for _, sel := range s.path(e) {
			for _, v := range s.fields(sel) {
				fill(v)
			}
			quiet[sel] = quiet[sel] || !read
		}
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				break
			}
			for i, lhs := range n.Lhs {
				lvalue(lhs, false)
				if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) {
					if x := s.resliced(n.Rhs[i]); x != nil && types.ExprString(x) == types.ExprString(lhs) {
						quiet[x] = true
					}
				}
			}
		case *ast.IncDecStmt:
			lvalue(n.X, false)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				lvalue(n.Key, false)
				if n.Value != nil {
					lvalue(n.Value, false)
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) > 0 {
				if b, ok := s.info.Uses[id].(*types.Builtin); ok && (b.Name() == "clear" || b.Name() == "delete") {
					if p := s.path(n.Args[0]); len(p) > 0 {
						quiet[p[0]] = true
					}
				}
			}
		case *ast.UnaryExpr:
			if n.Op != token.AND {
				break
			}
			if !codec {
				lvalue(n.X, true)
				break
			}
			for _, sel := range s.path(n.X) {
				quiet[sel] = true
			}
		case *ast.CompositeLit:
			st, ok := s.info.TypeOf(n).Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					fill(s.info.Uses[kv.Key.(*ast.Ident)].(*types.Var).Origin())
				} else {
					fill(st.Field(i).Origin())
				}
			}
		case *ast.SelectorExpr:
			sel := s.info.Selections[n]
			if sel == nil || quiet[n] {
				break
			}
			for _, v := range s.fields(n) {
				s.read[v] = true
			}
			if sel.Kind() == types.MethodVal && !isPointer(sel.Recv()) && isPointer(sel.Obj().Type().(*types.Signature).Recv().Type()) {
				lvalue(n.X, true) // the call takes n.X's address
			}
		}
		return true
	})
}

// path returns the field selectors on e's path, outermost first: x.a.b
// gives x.a.b, then x.a; an index or a dereference passes through.
func (s *stateScan) path(e ast.Expr) []*ast.SelectorExpr {
	var out []*ast.SelectorExpr
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			if sel := s.info.Selections[x]; sel == nil || sel.Kind() != types.FieldVal {
				return out
			}
			out = append(out, x)
			e = x.X
		default:
			return out
		}
	}
}

// fields returns the fields a selector passes through: the embedded
// ones a promoted selector goes by, then the selected field itself.
func (s *stateScan) fields(e *ast.SelectorExpr) []*types.Var {
	sel := s.info.Selections[e]
	idx := sel.Index()
	if sel.Kind() != types.FieldVal {
		idx = idx[:len(idx)-1]
	}
	var out []*types.Var
	t := sel.Recv()
	for _, i := range idx {
		v := deref(t).Underlying().(*types.Struct).Field(i)
		out = append(out, v.Origin())
		t = v.Type()
	}
	return out
}

// resliced returns x.f when e is append(x.f[:0], …).
func (s *stateScan) resliced(e ast.Expr) *ast.SelectorExpr {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	if id, ok := call.Fun.(*ast.Ident); !ok || s.info.Uses[id] != types.Universe.Lookup("append") {
		return nil
	}
	sl, ok := call.Args[0].(*ast.SliceExpr)
	if !ok || sl.Low != nil || sl.Slice3 {
		return nil
	}
	if hi, ok := sl.High.(*ast.BasicLit); !ok || hi.Value != "0" {
		return nil
	}
	x, _ := sl.X.(*ast.SelectorExpr)
	if x == nil || s.info.Selections[x] == nil || s.info.Selections[x].Kind() != types.FieldVal {
		return nil
	}
	return x
}

// verdict judges one declared field: "defaults" if its own struct's
// setDefaults or withDefaults is the only production code that fills it
// (a constant in disguise, facade or not), "unread" if production never
// reads it, "unfilled" if production reads but never fills it, "" if it
// passes, or the exemption that spares it: "json" for a struct
// json.Unmarshal fills, "sync" for a sync or sync/atomic type, or
// "facade" for a struct whose other fields the facade's callers may read
// or fill.
func (s *stateScan) verdict(d declaredField, exempt map[*types.Struct]string) string {
	switch {
	case exempt[d.st] == "json":
		return "json"
	case isSync(d.field.Type()):
		return "sync"
	case s.defaulted[d.field] && !s.filled[d.field]:
		return "defaults"
	case exempt[d.st] != "":
		return exempt[d.st]
	case !s.read[d.field]:
		return "unread"
	case !s.filled[d.field]:
		return "unfilled"
	}
	return ""
}

// A declaredField is one field of a struct type declared in a file.
type declaredField struct {
	field *types.Var
	st    *types.Struct
	name  string // pkg.Type.field; an unnamed struct takes its enclosing type's or function's name
}

// declaredFields returns the fields of every struct type in f, blank
// ones aside.
func declaredFields(info *types.Info, f *ast.File) []declaredField {
	var out []declaredField
	for _, decl := range f.Decls {
		owner := ""
		if fd, ok := decl.(*ast.FuncDecl); ok {
			owner = fd.Name.Name
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				owner = n.Name.Name
			case *ast.StructType:
				st := info.TypeOf(n).(*types.Struct)
				for i := 0; i < st.NumFields(); i++ {
					if v := st.Field(i); v.Name() != "_" {
						out = append(out, declaredField{v, st, v.Pkg().Name() + "." + owner + "." + v.Name()})
					}
				}
			}
			return true
		})
	}
	return out
}

// exemptions maps each struct whose fields the rules exempt to why:
// "json" for a struct in files with a JSON tag on a field, and for every
// struct reached through such a struct's field types; "facade" for a
// struct type an alias among entry re-exports.
func exemptions(info *types.Info, files []*ast.File, entry []types.Object) map[*types.Struct]string {
	exempt := map[*types.Struct]string{}
	var reach func(t types.Type)
	reach = func(t types.Type) {
		if n, ok := t.(*types.Named); ok {
			for i := 0; i < n.TypeArgs().Len(); i++ {
				reach(n.TypeArgs().At(i))
			}
			t = n.Origin()
		}
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			reach(u.Elem())
		case *types.Slice:
			reach(u.Elem())
		case *types.Array:
			reach(u.Elem())
		case *types.Map:
			reach(u.Key())
			reach(u.Elem())
		case *types.Struct:
			if exempt[u] == "" {
				exempt[u] = "json"
				for i := 0; i < u.NumFields(); i++ {
					reach(u.Field(i).Type())
				}
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				for _, fld := range st.Fields.List {
					if fld.Tag != nil && strings.Contains(fld.Tag.Value, `json:"`) {
						reach(info.TypeOf(st))
						break
					}
				}
			}
			return true
		})
	}
	for _, obj := range entry {
		if tn, ok := obj.(*types.TypeName); ok && tn.IsAlias() {
			if st, ok := tn.Type().Underlying().(*types.Struct); ok && exempt[st] == "" {
				exempt[st] = "facade"
			}
		}
	}
	return exempt
}

func isSync(t types.Type) bool {
	n, ok := deref(t).(*types.Named)
	return ok && n.Obj().Pkg() != nil && (n.Obj().Pkg().Path() == "sync" || n.Obj().Pkg().Path() == "sync/atomic")
}

func isPointer(t types.Type) bool {
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

// deref strips one pointer off t.
func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// stateFixture has a field for each of stateScan's rules and exemptions;
// TestStateScan holds each to its verdict.
const stateFixture = `package fix

import (
	"sync"
	"sync/atomic"
)

type T struct {
	read     int
	unread   int
	unfilled int
	bumped   int
	resliced []int
	cleared  map[int]bool
	nested   leaf
	indexed  []int
	ranged   int
	addr     int
	wire     int
	wireRead int
	keyed    int
	pos      pair
	method   counter
	promoted
	mu    sync.Mutex
	count atomic.Int64
	def   int
	both  int
}

type leaf struct{ v int }

type pair struct{ a, b int }

type counter struct{ n int }

func (c *counter) inc() int { c.n++; return c.n }

type promoted struct{ p int }

type J struct {
	A int ` + "`json:\"a\"`" + `
	R reached
}

func (j *J) setDefaults() { j.A = 1 }

type reached struct{ B int }

type F struct{ C, D int }

func (f *F) setDefaults() { f.D = f.D + 1 }

type Alias = F

type codec struct{}

func (c *codec) visit(t *T) { use(&t.wire); use(&t.wireRead) }

func use(*int) {}

func (t *T) setDefaults() {
	if t.def == 0 {
		t.def = 1
	}
	if t.both == 0 {
		t.both = 1
	}
}

func run(t *T) int {
	*t = T{wire: 1, keyed: 2, pos: pair{1, 2}, promoted: promoted{p: 3}, cleared: map[int]bool{}}
	t.read = 1
	t.both = 3
	t.unread = 2
	t.bumped++
	t.bumped += 2
	t.resliced = append(t.resliced[:0], 1)
	clear(t.cleared)
	delete(t.cleared, 1)
	t.nested.v = 1
	t.indexed[0] = 1
	for t.ranged = range 3 {
	}
	p := &t.addr
	t.mu.Lock()
	t.count.Add(1)
	return t.read + t.unfilled + len(t.indexed) + t.ranged + *p + t.keyed + t.pos.a + t.pos.b + t.method.inc() + t.p + t.wireRead
}
`

// TestStateScan type-checks stateFixture and holds every field to the
// verdict NoTestOnlyState's rules give it, so an edit that stops a rule
// from biting fails here instead of passing the guard quietly.
func TestStateScan(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", stateFixture, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, std := goList(t, fset, "sync", "sync/atomic")
	info := newInfo()
	pkg, err := (&types.Config{Importer: std}).Check("fix", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	s := newStateScan(info)
	s.scan(f)
	var entry []types.Object
	for _, name := range pkg.Scope().Names() {
		entry = append(entry, pkg.Scope().Lookup(name))
	}
	exempt := exemptions(info, []*ast.File{f}, entry)
	want := map[string]string{
		"fix.T.read":     "",
		"fix.T.unread":   "unread",
		"fix.T.unfilled": "unfilled",
		"fix.T.bumped":   "unread",   // ++ and += fill, and read nothing
		"fix.T.resliced": "unread",   // x.f = append(x.f[:0], …) reads nothing
		"fix.T.cleared":  "unread",   // clear and delete neither read nor fill
		"fix.T.nested":   "unread",   // x.nested.v = 1 fills the path and reads none of it
		"fix.leaf.v":     "unread",   // the same
		"fix.T.indexed":  "",         // x.indexed[0] = 1 fills it; len reads it
		"fix.T.ranged":   "",         // a range clause's = fills it
		"fix.T.addr":     "",         // &x.addr reads and fills
		"fix.T.wire":     "unread",   // a codec's &x.wire does neither; a literal fills it
		"fix.T.wireRead": "unfilled", // a codec's &x.wireRead does neither; run reads it
		"fix.T.keyed":    "",         // a keyed literal fills it
		"fix.T.pos":      "",
		"fix.pair.a":     "", // a positional literal fills every field
		"fix.pair.b":     "",
		"fix.T.method":   "", // a pointer method's call reads and fills it
		"fix.counter.n":  "",
		"fix.T.promoted": "", // a promoted selector reads it
		"fix.promoted.p": "",
		"fix.T.mu":       "sync",
		"fix.T.count":    "sync",
		"fix.T.def":      "defaults", // filled only by setDefaults: a constant
		"fix.T.both":     "",         // setDefaults and run fill it
		"fix.J.A":        "json",     // its setDefaults fills it, and so may json.Unmarshal
		"fix.J.R":        "json",
		"fix.reached.B":  "json", // reached through J.R
		"fix.F.C":        "facade",
		"fix.F.D":        "defaults", // the facade exempts no constant
	}
	for _, d := range declaredFields(info, f) {
		w, ok := want[d.name]
		if !ok {
			t.Errorf("%s: no verdict expected", d.name)
			continue
		}
		delete(want, d.name)
		if got := s.verdict(d, exempt); got != w {
			t.Errorf("%s: verdict %q, want %q", d.name, got, w)
		}
	}
	for name := range want {
		t.Errorf("%s: not declared in the fixture", name)
	}
}

// reachFixture is a main package with a method for each of reachable's
// interface rules; TestReachable holds each to its verdict.
const reachFixture = `package main

import "fmt"

type shape interface {
	Area() int
	Name() string
}

type square struct{ n int }

func (s square) Area() int      { return s.n * s.n }
func (s square) Name() string   { return "square" }
func (s square) String() string { return fmt.Sprint("square ", s.n) }

type fault struct{}

func (fault) Error() string { return "fault" }

type sized interface{ Size() int }

type box struct{}

func (box) Size() int { return 1 }

func area(s shape) int { return s.Area() }

func total[T sized](xs []T) (n int) {
	for _, x := range xs {
		n += x.Size()
	}
	return n
}

func main() {
	var err error = fault{}
	fmt.Println(area(square{2}), total([]box{{}}), square{3}, err)
}
`

// TestReachable type-checks reachFixture and holds each function to
// whether NoTestOnlyAPI's reachable finds it, so a method reached only
// through an interface method nothing calls stays flagged.
func TestReachable(t *testing.T) {
	m := &module{
		fset:      token.NewFileSet(),
		info:      newInfo(),
		decls:     map[*types.Func]*ast.FuncDecl{},
		typeSpecs: map[*types.TypeName]*ast.TypeSpec{},
	}
	f, err := parser.ParseFile(m.fset, "fix.go", reachFixture, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, m.std = goList(t, m.fset, "fmt")
	pkg, err := (&types.Config{Importer: m.std}).Check("fix", m.fset, []*ast.File{f}, m.info)
	if err != nil {
		t.Fatal(err)
	}
	m.add(listedPackage{Dir: "fix"}, pkg, []*ast.File{f})
	want := map[string]bool{
		"main.main":          true,
		"main.area":          true,
		"main.total":         true,
		"main.square.Area":   true,  // called through shape
		"main.square.Name":   false, // shape has it, but nothing calls shape.Name
		"main.square.String": true,  // fmt calls it through fmt.Stringer
		"main.fault.Error":   true,  // every method of error counts as called
		"main.box.Size":      true,  // called through total's type parameter
	}
	live := m.reachable()
	for _, fn := range m.funcs {
		name := funcName(fn.obj)
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no verdict expected", name)
			continue
		}
		delete(want, name)
		if live[fn.obj] != w {
			t.Errorf("%s: reachable %v, want %v", name, live[fn.obj], w)
		}
	}
	for name := range want {
		t.Errorf("%s: not declared in the fixture", name)
	}
}
