package main

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

// otherCommands are the -name tokens in the two documents that belong to a
// different command.
var otherCommands = map[string]string{
	"target": "cmd/qbh",
	"wavout": "cmd/qbh",
	"s":      "curl",
	"race":   "go test",
}

// flagToken matches a flag as prose and shell examples write it: -name at
// the start of a word.
var flagToken = regexp.MustCompile("(?m)(?:^|[\\s`(\"'])-([a-z][a-z0-9-]*)")

func flagTokens(doc string) map[string]bool {
	out := map[string]bool{}
	for _, m := range flagToken.FindAllStringSubmatch(doc, -1) {
		out[m[1]] = true
	}
	return out
}

// TestFlagsAndDocsAgree holds the package doc comment and README's
// Operations section to registerFlags, in both directions: every -name they
// mention is a defined flag (or another command's, by name), and every
// defined flag is mentioned in at least one of them. Removing a flag from
// the code but not from the documents — or adding one undocumented — fails.
func TestFlagsAndDocsAgree(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	pkgDoc, _, ok := strings.Cut(string(src), "\npackage main\n")
	if !ok {
		t.Fatal("main.go: no package clause after the doc comment")
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, ops, ok := strings.Cut(string(readme), "\n## Operations\n")
	if !ok {
		t.Fatal("README.md has no Operations section")
	}
	ops, _, _ = strings.Cut(ops, "\n## ")

	fs := flag.NewFlagSet("qbhd", flag.ContinueOnError)
	registerFlags(fs)
	defined := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { defined[f.Name] = true })

	mentioned := map[string]bool{}
	for name, doc := range map[string]string{"package doc comment": pkgDoc, "README Operations": ops} {
		for tok := range flagTokens(doc) {
			mentioned[tok] = true
			if !defined[tok] && otherCommands[tok] == "" {
				t.Errorf("%s mentions -%s, which qbhd does not define", name, tok)
			}
		}
	}
	for name := range defined {
		if !mentioned[name] {
			t.Errorf("flag -%s is in neither the package doc comment nor README's Operations section", name)
		}
	}
}
