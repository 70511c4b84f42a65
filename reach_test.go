package warping_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
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

// unreachedAllowed are the exported functions and methods of internal/*
// that no non-test file uses by identity, each with the reason it stays.
// Functions are "pkg.Name", methods "pkg.Type.Name".
var unreachedAllowed = map[string]string{
	// The standard library calls these through its own interfaces, whose
	// methods no file of the module selects.
	"contour.distHeap.Less":          "heap.Interface: container/heap keeps the top-k distance heap with it",
	"contour.distHeap.Swap":          "heap.Interface: container/heap moves the top-k distance heap's entries with it",
	"contour.distHeap.Push":          "heap.Interface: container/heap grows the top-k distance heap with it",
	"contour.distHeap.Pop":           "heap.Interface: container/heap shrinks the top-k distance heap with it",
	"pager.Stats.MarshalJSON":        "json.Marshaler: adds the derived hit_rate to /stats' buffer_pool section",
	"lru.Stats.MarshalJSON":          "json.Marshaler: adds the derived hit rate to /stats' result_cache and pitch_memo sections",
	"replica.NotPrimaryError.Unwrap": "errors.Is and errors.As see the wrapped sentinel through it",
	"ts.Series.String":               "fmt.Stringer: fmt prints a series as its summary through it, as the dtw tests' failure messages do",

	// Test seams: the crash-safety tests' filesystem and its controls.
	"store.NewFaultFS":             "fault injection: every crash-safety test's filesystem",
	"store.FaultFS.FailWrites":     "fault injection (store.NewFaultFS): the merge-backoff, index-model and atomic-write tests fail writes",
	"store.FaultFS.FailSyncs":      "fault injection (store.NewFaultFS): the WAL, durability and server tests fail fsyncs",
	"store.FaultFS.FailDirSyncs":   "fault injection (store.NewFaultFS): the qbh model test fails the directory fsync",
	"store.FaultFS.FailRenames":    "fault injection (store.NewFaultFS): the atomic-write tests fail the rename",
	"store.FaultFS.KillAfterBytes": "fault injection (store.NewFaultFS): the crash tests tear a write after n bytes",
	"store.FaultFS.Killed":         "fault injection (store.NewFaultFS): the WAL and page-file crash tests ask whether the tear happened",
	"store.FaultFS.BytesWritten":   "fault injection (store.NewFaultFS): the crash tests choose their tear points by it",
	"store.OpenPageFile":           "reopens a page file through its header checks; the store and pager tests read back what they wrote with it",
	"pager.Pool.Reset":             "empties the pool: the paged benchmarks read every hum from a cold pool",
	"linalg.FromRows":              "the literal-matrix constructor the linalg tests build their fixtures with",
	"hum.PerfectSinger":            "the noise-free singer: the hum and contour tests' exact-contour fixture",

	// The paper's own definitions and invariances, and the oracles the
	// tests hold the index to.
	"music.Melody.Transpose":  "the paper's key invariance: the music and qbh tests hum a phrase in another key",
	"music.Melody.ScaleTempo": "the paper's tempo invariance: the music and qbh tests hum a phrase at another tempo",
	"core.Tightness":          "paper section 5.2's T = lower bound / DTW for one pair; core's tests rank the transforms by it",
	"dtw.UTW":                 "paper Definition 2 (uniform time warping distance); its tests state what the UTW normal form relies on",
	"dtw.WarpingWidth":        "inverse of BandRadius: the round-trip tests and the fuzz target pin BandRadius's rounding against it",
	"dtw.GlobalEnvelope":      "the global bound of Yi et al. the paper compares against; a property test holds LB_Keogh above it",
	"dtw.Align":               "the unconstrained warping path (paper Figure 2); its tests cross-check SquaredDistance on unequal lengths",
	"dtw.LBKeogh":             "the classic full-dimensional LB_Keogh as one call: the core and dtw property tests hold the identity transform's bound, the global envelope and banded DTW against it",
	"core.NewHaar":            "the Haar-DWT member of Lemma 3's linear-transform family (DESIGN section 2, row 5): core's property tests and index's all-transform exactness tests run it",
	"index.BruteForce":        "the one exactness oracle (exact DTW to every series, best member per group, a plain sort): the index and qbh model-based tests hold every storage configuration to it",
}

// typedPackage is one non-test package of the module, type-checked.
type typedPackage struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// typeCheckModule parses and type-checks the non-test Go files of every
// package of the module, in `go list -deps` order, so each package's module
// imports are checked before it. The standard library comes from its
// export data (go/importer).
func typeCheckModule(t *testing.T) []typedPackage {
	t.Helper()
	out, err := exec.Command("go", "list", "-deps", "-f",
		`{{if not .Standard}}{{.ImportPath}}{{"\t"}}{{.Dir}}{{"\t"}}{{join .GoFiles " "}}{{end}}`, "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	fset := token.NewFileSet()
	std := importer.Default()
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})}
	var pkgs []typedPackage
	for _, line := range strings.Split(string(out), "\n") {
		fields := strings.Split(line, "\t")
		if len(fields) != 3 {
			continue // a standard-library package's empty line
		}
		var files []*ast.File
		for _, name := range strings.Fields(fields[2]) {
			f, err := parser.ParseFile(fset, filepath.Join(fields[1], name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		pkg, err := conf.Check(fields[0], fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", fields[0], err)
		}
		checked[pkg.Path()] = pkg
		pkgs = append(pkgs, typedPackage{pkg, files, info})
	}
	return pkgs
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// internalReach reports, for every exported function and method declared
// in internal/* (interface methods included), keyed "pkg.Name" or
// "pkg.Type.Name", whether a non-test file of the module uses it by
// identity outside its own declaration. Identity, not name: a field or
// another type's method spelled the same reaches nothing. A method is also
// reached when its type, or a type that embeds it, implements an interface
// whose method a non-test file selects; the method found that way may be an
// embedded interface's, which reaches that interface's implementations in
// turn, so this runs to a fixpoint.
func internalReach(t *testing.T) map[string]bool {
	t.Helper()
	pkgs := typeCheckModule(t)

	declared := map[*types.Func]string{} // exported funcs and methods of internal/*: "pkg.Name", "pkg.Type.Name"
	var named []*types.Named             // every package-level non-generic named type of the module
	for _, p := range pkgs {
		internal := strings.HasPrefix(p.pkg.Path(), "warping/internal/")
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if internal && obj.Exported() {
					declared[obj] = p.pkg.Name() + "." + name
				}
			case *types.TypeName:
				n, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				if n.TypeParams().Len() == 0 {
					named = append(named, n)
				}
				if !internal {
					continue
				}
				methods := n.Method
				count := n.NumMethods()
				if iface, ok := n.Underlying().(*types.Interface); ok {
					methods, count = iface.ExplicitMethod, iface.NumExplicitMethods()
				}
				for i := 0; i < count; i++ {
					if m := methods(i); m.Exported() {
						declared[m] = p.pkg.Name() + "." + name + "." + m.Name()
					}
				}
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("no exported functions or methods found in internal/*")
	}

	reached := map[*types.Func]bool{}
	var selected []*types.Func // reached interface methods whose implementations are not yet marked
	reach := func(fn *types.Func) {
		fn = fn.Origin()
		if reached[fn] {
			return
		}
		reached[fn] = true
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			selected = append(selected, fn)
		}
	}
	span := map[*types.Func][2]token.Pos{} // each module function's own declaration
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					if fn, ok := p.info.Defs[fd.Name].(*types.Func); ok {
						span[fn] = [2]token.Pos{fd.Pos(), fd.End()}
					}
				}
			}
		}
	}
	for _, p := range pkgs {
		for id, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				if s := span[fn.Origin()]; id.Pos() < s[0] || id.Pos() >= s[1] {
					reach(fn)
				}
			}
		}
	}
	for len(selected) > 0 {
		m := selected[len(selected)-1]
		selected = selected[:len(selected)-1]
		iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		for _, n := range named {
			for _, v := range []types.Type{n, types.NewPointer(n)} {
				if !types.Implements(v, iface) {
					continue
				}
				obj, _, _ := types.LookupFieldOrMethod(v, true, m.Pkg(), m.Name())
				if fn, ok := obj.(*types.Func); ok {
					reach(fn)
				}
			}
		}
	}

	isReached := map[string]bool{}
	for fn, key := range declared {
		isReached[key] = reached[fn]
	}
	return isReached
}

// checkReach holds the functions (methods false) or the methods (methods
// true) of isReached to reach: each is reached or allow-listed with its
// reason, never both, and each allow-list entry of that kind names one.
func checkReach(t *testing.T, isReached map[string]bool, methods bool) {
	t.Helper()
	ofKind := func(key string) bool { return (strings.Count(key, ".") == 2) == methods }
	for key := range unreachedAllowed {
		if _, ok := isReached[key]; !ok && ofKind(key) {
			t.Errorf("%s is in the allow-list but no exported function or method of internal/* is declared by that name: drop the entry", key)
		}
	}
	var keys []string
	for key := range isReached {
		if ofKind(key) {
			keys = append(keys, key)
		}
	}
	if len(keys) == 0 {
		t.Fatal("none of this kind declared in internal/*")
	}
	sort.Strings(keys)
	for _, key := range keys {
		_, allowed := unreachedAllowed[key]
		switch {
		case !isReached[key] && !allowed:
			t.Errorf("%s is used by no non-test file: delete it, move it beside the tests that call it, or allow-list it with the reason", key)
		case isReached[key] && allowed:
			t.Errorf("%s is in the allow-list but a non-test file uses it: drop the entry", key)
		}
	}
}

// TestEveryInternalFuncIsReached holds internal/* to what some program calls
// (a whole HTTP client once survived inside a reached package): every
// exported package-level function of internal/* is used by identity in a
// non-test file (internalReach), or is in unreachedAllowed with its reason.
// A function only tests call belongs in a _test.go file beside them.
func TestEveryInternalFuncIsReached(t *testing.T) {
	checkReach(t, internalReach(t), false)
}

// TestEveryInternalMethodIsReached is TestEveryInternalFuncIsReached for
// the exported methods of internal/*, interface methods included; a method
// an interface call reaches counts as used (internalReach).
func TestEveryInternalMethodIsReached(t *testing.T) {
	checkReach(t, internalReach(t), true)
}

// unsetOptionsAllowed are the exported option fields of internal/* that no
// non-test file sets, "pkg.Type.Field", each with the reason it stays.
var unsetOptionsAllowed = map[string]string{
	"qbh.DurableOptions.FS":             "fault injection: the crash and fault suites hand OpenDurable a store.FaultFS through it",
	"audio.SynthesisOptions.SampleRate": "the audio tests render at every rate a WAV upload can carry, and TrackPitch serves those rates",
}

// TestEveryOptionIsSet holds the option structs of internal/* to what some
// program sets: every exported field of an exported struct type of
// internal/* whose name ends in Config or Options, or that has a fill
// method, is written by a non-test file — as a composite-literal key, the
// left side of an assignment, an inc/dec or &x.F — or is in
// unsetOptionsAllowed with its reason. A write does not count when the
// declaring package makes it in a function that receives the type, as
// receiver or parameter: that is the package filling in a caller's
// defaults, in fill or in a constructor such as NewNode(cfg), not a caller
// choosing a value. A setting that every program leaves at its default is
// a constant.
func TestEveryOptionIsSet(t *testing.T) {
	pkgs := typeCheckModule(t)

	declared := map[*types.Var]string{}       // the option fields: "pkg.Type.Field"
	owner := map[*types.Var]*types.TypeName{} // the type that declares each
	for _, p := range pkgs {
		if !strings.HasPrefix(p.pkg.Path(), "warping/internal/") {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok || !strings.HasSuffix(name, "Config") && !strings.HasSuffix(name, "Options") && !hasFill(tn) {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					declared[f] = p.pkg.Name() + "." + name + "." + f.Name()
					owner[f] = tn
				}
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("no option fields found in internal/*")
	}

	isSet := map[string]bool{}
	for _, key := range declared {
		isSet[key] = false
	}
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				receives := map[*types.TypeName]bool{} // the types decl gets from its caller
				if fd, ok := decl.(*ast.FuncDecl); ok {
					sig := p.info.Defs[fd.Name].Type().(*types.Signature)
					if sig.Recv() != nil {
						receives[typeName(sig.Recv().Type())] = true
					}
					for i := 0; i < sig.Params().Len(); i++ {
						receives[typeName(sig.Params().At(i).Type())] = true
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					var written []ast.Expr
					switch n := n.(type) {
					case *ast.CompositeLit:
						for _, e := range n.Elts {
							if kv, ok := e.(*ast.KeyValueExpr); ok {
								written = append(written, kv.Key)
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
								written = append(written, sel.Sel)
							}
						}
					case *ast.IncDecStmt:
						if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
							written = append(written, sel.Sel)
						}
					case *ast.UnaryExpr:
						if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok && n.Op == token.AND {
							written = append(written, sel.Sel)
						}
					}
					for _, e := range written {
						id, ok := e.(*ast.Ident)
						if !ok {
							continue
						}
						field, ok := p.info.Uses[id].(*types.Var)
						key, isOption := declared[field]
						if !ok || !isOption || field.Pkg() == p.pkg && receives[owner[field]] {
							continue
						}
						isSet[key] = true
					}
					return true
				})
			}
		}
	}

	for key := range unsetOptionsAllowed {
		if _, ok := isSet[key]; !ok {
			t.Errorf("%s is in the allow-list but no option type of internal/* declares that field: drop the entry", key)
		}
	}
	keys := make([]string, 0, len(isSet))
	for key := range isSet {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		_, allowed := unsetOptionsAllowed[key]
		switch {
		case !isSet[key] && !allowed:
			t.Errorf("%s is set by no non-test file: make it a constant, or allow-list it with the reason", key)
		case isSet[key] && allowed:
			t.Errorf("%s is in the allow-list but a non-test file sets it: drop the entry", key)
		}
	}
}

// typeName is the named type t is, or points to; nil for any other type.
func typeName(t types.Type) *types.TypeName {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// hasFill reports whether the named type declares a fill method, the
// module's idiom for an options struct's defaults.
func hasFill(tn *types.TypeName) bool {
	n, ok := tn.Type().(*types.Named)
	if !ok {
		return false
	}
	for i := 0; i < n.NumMethods(); i++ {
		if n.Method(i).Name() == "fill" {
			return true
		}
	}
	return false
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
