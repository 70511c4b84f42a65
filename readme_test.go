package warping_test

import (
	"os"
	"regexp"
	"sort"
	"testing"
)

// TestREADMEArchitectureTreeNamesRealPackages keeps README's architecture
// tree and ./internal in step: every `internal/<name>` entry of the tree
// must be a directory on disk, and every package directory must have an
// entry.
func TestREADMEArchitectureTreeNamesRealPackages(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	// Only the tree's own lines start with a branch glyph.
	inTree := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^[├└]── internal/(\w+)`).FindAllSubmatch(readme, -1) {
		inTree[string(m[1])] = true
	}
	if len(inTree) == 0 {
		t.Fatal("README.md has no architecture tree with internal/<name> entries")
	}

	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	onDisk := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() {
			onDisk[e.Name()] = true
		}
	}
	var problems []string
	for name := range inTree {
		if !onDisk[name] {
			problems = append(problems, "README lists internal/"+name+", which does not exist")
		}
	}
	for name := range onDisk {
		if !inTree[name] {
			problems = append(problems, "internal/"+name+" is missing from README's architecture tree")
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}
