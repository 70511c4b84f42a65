package warping_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// internalImports returns the warping/internal/<name> packages the non-test
// Go files of dir import, by <name>.
func internalImports(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if name, ok := strings.CutPrefix(path, "warping/internal/"); ok {
				out = append(out, name)
			}
		}
	}
	return out
}

// TestEveryInternalPackageIsReached holds ./internal to what a command or
// the benchmark runs: starting from cmd/* and bench and following non-test
// imports through internal/* — but not through the root facade, a library
// surface that serves no command (TestFacadeIsItsExamples holds it to
// example_test.go) — every internal package must be reached. A package only
// the facade or its own tests import is serving nobody.
func TestEveryInternalPackageIsReached(t *testing.T) {
	roots, err := filepath.Glob("cmd/*")
	if err != nil {
		t.Fatal(err)
	}
	roots = append(roots, "bench")

	reached := map[string]bool{}
	var visit func(dir string)
	visit = func(dir string) {
		for _, name := range internalImports(t, dir) {
			if !reached[name] {
				reached[name] = true
				visit(filepath.Join("internal", name))
			}
		}
	}
	for _, root := range roots {
		visit(root)
	}

	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() && !reached[e.Name()] {
			t.Errorf("internal/%s is reached from no command and not from bench", e.Name())
		}
	}
}

// TestFacadeIsItsExamples holds the root package to its one spec: every
// exported name declared in its non-test files is named as warping.Name in
// example_test.go, or appears in the signature of a function that is (Song
// in BuildQBH's, say). Anything else is surface that no example runs.
func TestFacadeIsItsExamples(t *testing.T) {
	spec, err := parser.ParseFile(token.NewFileSet(), "example_test.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	ast.Inspect(spec, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == "warping" {
				named[sel.Sel.Name] = true
			}
		}
		return true
	})

	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	inSignature := map[string]bool{} // root identifiers in a named function's signature
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil || !d.Name.IsExported() {
					continue
				}
				declared = append(declared, d.Name.Name)
				if !named[d.Name.Name] {
					continue
				}
				ast.Inspect(d.Type, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.SelectorExpr:
						return false // another package's name
					case *ast.Ident:
						inSignature[n.Name] = true
					}
					return true
				})
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						declared = append(declared, s.Name.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							declared = append(declared, id.Name)
						}
					}
				}
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("no declarations found in the root package")
	}
	for _, name := range declared {
		if ast.IsExported(name) && !named[name] && !inSignature[name] {
			t.Errorf("warping.%s is named by no example in example_test.go: delete it, or show it there", name)
		}
	}
}

// unreachedFuncsAllowed are the exported top-level functions of internal/*
// that no non-test file outside their own names, each with the reason it
// stays.
var unreachedFuncsAllowed = map[string]string{
	"store.NewFaultFS":   "fault injection: every crash-safety test's filesystem",
	"store.OpenPageFile": "reopens a page file through its header checks; the store and pager tests read back what they wrote with it",
	"rtree.NewRect":      "the validating constructor the rtree tests build their fixtures with",
	"linalg.FromRows":    "the literal-matrix constructor the linalg tests build their fixtures with",
	"hum.PerfectSinger":  "the noise-free singer: the hum and contour tests' exact-contour fixture",
	"core.Tightness":     "paper section 5.2's T = lower bound / DTW for one pair; core's tests rank the transforms by it",
	"dtw.UTW":            "paper Definition 2 (uniform time warping distance); its tests state what the UTW normal form relies on",
	"dtw.WarpingWidth":   "inverse of BandRadius: the round-trip tests and the fuzz target pin BandRadius's rounding against it",
	"dtw.GlobalEnvelope": "the global bound of Yi et al. the paper compares against; a property test holds LB_Keogh above it",
	"dtw.Align":          "the unconstrained warping path (paper Figure 2); its tests cross-check SquaredDistance on unequal lengths",
	"dtw.LBKeogh":        "the classic full-dimensional LB_Keogh as one call: the core and dtw property tests hold the identity transform's bound, the global envelope and banded DTW against it",
	"core.NewHaar":       "the Haar-DWT member of Lemma 3's linear-transform family (DESIGN section 2, row 5): core's property tests and index's all-transform exactness tests run it",
	"index.BruteForce":   "the one exactness oracle (exact DTW to every series, best member per group, a plain sort): the index and qbh model-based tests hold every storage configuration to it",
}

// TestEveryInternalFuncIsReached is the same question one level down (a
// whole HTTP client once survived inside a reached package): every exported
// top-level function of internal/* is named by some non-test Go file
// somewhere other than at its own declaration — in its package, or as a
// pkg.Name selector anywhere in the module — or is in the allow-list with
// its reason. Parsed, not type-checked: a same-named identifier counts, so
// the test can miss dead code but never condemns live code.
func TestEveryInternalFuncIsReached(t *testing.T) {
	var funcs []string         // "pkg.Name", declared in internal/pkg
	named := map[string]bool{} // "pkg.Name" as a selector, or as a bare identifier in internal/pkg
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg, declared := "", map[*ast.Ident]bool{}
		if dir := filepath.Dir(path); filepath.Dir(dir) == "internal" {
			pkg = filepath.Base(dir)
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
					funcs = append(funcs, pkg+"."+fd.Name.Name)
					declared[fd.Name] = true
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					named[x.Name+"."+n.Sel.Name] = true
				}
			case *ast.Ident:
				if pkg != "" && !declared[n] {
					named[pkg+"."+n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range funcs {
		_, allowed := unreachedFuncsAllowed[fn]
		switch {
		case !named[fn] && !allowed:
			t.Errorf("%s is named by no non-test file: delete it, or allow-list it with the reason", fn)
		case named[fn] && allowed:
			t.Errorf("%s is in the allow-list but is named by a non-test file: drop the entry", fn)
		}
	}
}

// unreachedMethodsAllowed are the exported methods of internal/* that no
// non-test file names as a selector, each with the reason it stays: most
// are called through an interface of the standard library, by a name no
// call site in the module spells.
var unreachedMethodsAllowed = map[string]string{
	"contour.distHeap.Less":          "heap.Interface: container/heap keeps the top-k distance heap with it",
	"contour.distHeap.Swap":          "heap.Interface: container/heap moves the top-k distance heap's entries with it",
	"pager.Stats.MarshalJSON":        "json.Marshaler: adds the derived hit_rate to /stats' buffer_pool section",
	"qbh.CacheStats.MarshalJSON":     "json.Marshaler: adds the derived hit rate to /stats' result_cache section",
	"replica.NotPrimaryError.Unwrap": "errors.Is and errors.As see the wrapped sentinel through it",
	"music.Melody.Transpose":         "the paper's key invariance: the music and qbh tests hum a phrase in another key",
	"music.Melody.ScaleTempo":        "the paper's tempo invariance: the music and qbh tests hum a phrase at another tempo",
	"store.FaultFS.FailWrites":       "fault injection (store.NewFaultFS): the merge-backoff, index-model and atomic-write tests fail writes",
	"store.FaultFS.FailSyncs":        "fault injection (store.NewFaultFS): the WAL, durability and server tests fail fsyncs",
	"store.FaultFS.FailDirSyncs":     "fault injection (store.NewFaultFS): the qbh model test fails the directory fsync",
	"store.FaultFS.FailRenames":      "fault injection (store.NewFaultFS): the atomic-write tests fail the rename",
	"store.FaultFS.KillAfterBytes":   "fault injection (store.NewFaultFS): the crash tests tear a write after n bytes",
	"store.FaultFS.Killed":           "fault injection (store.NewFaultFS): the WAL and page-file crash tests ask whether the tear happened",
	"store.FaultFS.BytesWritten":     "fault injection (store.NewFaultFS): the crash tests choose their tear points by it",
}

// TestEveryInternalMethodIsReached is TestEveryInternalFuncIsReached for
// methods: every exported method declared in internal/* is named as a
// selector (x.Name) by some non-test Go file, or is in the allow-list with
// its reason. Without types a selector of any receiver counts, so a method
// whose name another live method shares passes; the check finds methods
// whose name nothing spells. A method only tests call belongs in a _test.go
// file beside them.
func TestEveryInternalMethodIsReached(t *testing.T) {
	var methods []string          // "pkg.Type.Name", declared in internal/pkg
	selected := map[string]bool{} // Name, as the selector of some x.Name
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if dir := filepath.Dir(path); filepath.Dir(dir) == "internal" {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.IsExported() {
					methods = append(methods, filepath.Base(dir)+"."+receiverType(fd.Recv.List[0].Type)+"."+fd.Name.Name)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				selected[sel.Sel.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(methods) == 0 {
		t.Fatal("no methods found in internal/*")
	}
	for _, m := range methods {
		_, allowed := unreachedMethodsAllowed[m]
		name := m[strings.LastIndexByte(m, '.')+1:]
		switch {
		case !selected[name] && !allowed:
			t.Errorf("%s is named by no non-test file: delete it, move it beside the tests that call it, or allow-list it with the reason", m)
		case selected[name] && allowed:
			t.Errorf("%s is in the allow-list but its name is selected by a non-test file: drop the entry", m)
		}
	}
}

// receiverType returns the type name of a method receiver: T for T, *T,
// T[P] and *T[P].
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// TestNoGobOutsideTests: no non-test Go file imports encoding/gob. The
// database's one encoding is internal/qbh's song record, on disk and on the
// wire; gob "is not designed to be hardened against adversarial inputs",
// and replication bodies arrive from the network.
func TestNoGobOutsideTests(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"encoding/gob"` {
				t.Errorf("%s imports encoding/gob", path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
