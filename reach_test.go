package warping_test

import (
	"go/parser"
	"go/token"
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
// imports through internal/* — but not through the root facade, which can
// re-export anything — every internal package must be reached. A package
// only the facade, an example or its own tests import is serving nobody.
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
