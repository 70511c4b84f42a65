package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

const runMainEnv = "QBH_TEST_RUN_MAIN"

// TestMain lets a test re-exec this binary as qbh itself.
func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestOptionsValidate: -top and -delta follow the server's query rules,
// -songs cannot be negative, and the documented invocations pass.
func TestOptionsValidate(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string // substring of the error; "" = valid
	}{
		{"", ""},
		{"-target twinkle -singer poor", ""},
		{"-songs 500 -delta 0.2", ""},
		{"-songs 0 -top 100 -delta 0", ""},
		{"-delta 1", ""},
		{"-delta NaN", "invalid -delta NaN"},
		{"-delta 3", "invalid -delta 3"},
		{"-delta -0.1", "invalid -delta -0.1"},
		{"-delta +Inf", "invalid -delta +Inf"},
		{"-top 0", "invalid -top 0"},
		{"-top 101", "invalid -top 101"},
		{"-songs -5", "invalid -songs -5"},
		{"-singer great", `unknown singer "great"`},
	} {
		fs := flag.NewFlagSet("qbh", flag.ContinueOnError)
		o := registerFlags(fs)
		if err := fs.Parse(strings.Fields(tc.args)); err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		err := o.validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("qbh %s: refused: %v", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("qbh %s: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}

// A refused flag exits 2 with the reason before any database is built;
// -delta NaN used to be served at δ = 0.
func TestBadFlagExitsTwo(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-delta", "NaN")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if code := cmd.ProcessState.ExitCode(); code != 2 {
		t.Fatalf("exit code %d (%v), want 2; stderr: %s", code, err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "invalid -delta NaN") || stdout.Len() != 0 {
		t.Errorf("stdout %q, stderr %q: want only the reason, on stderr", stdout.String(), stderr.String())
	}
}
