package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

var completedIn = regexp.MustCompile(`(?m)^\[\w+ completed in [^\]]*\]\n`)

// TestSmallScaleGolden holds every number `experiments -run all -scale
// small` prints to results/small.txt, so a change that moves one of the
// paper's tables or figures shows it in its diff. Regenerate with
//
//	go run ./cmd/experiments -run all -scale small | grep -v 'completed in' > results/small.txt
func TestSmallScaleGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at small scale (≈ 10 s)")
	}
	want := map[string]bool{}
	for _, exp := range allExperiments {
		want[exp.key] = true
	}
	var out bytes.Buffer
	if _, err := runExperiments(&out, want, true); err != nil {
		t.Fatal(err)
	}
	got := completedIn.ReplaceAll(out.Bytes(), nil)
	golden, err := os.ReadFile("../../results/small.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(golden, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("small-scale output differs from results/small.txt at line %d:\n  got  %s\n  want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("small-scale output has %d lines, results/small.txt %d", len(gl), len(wl))
	}
}
