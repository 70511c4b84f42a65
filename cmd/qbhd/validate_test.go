package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

const runMainEnv = "QBHD_TEST_RUN_MAIN"

// TestMain lets a test re-exec this binary as qbhd itself.
func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestOptionsValidate: every flag combination no role can run with is
// refused by validate — which main calls before anything is opened — and
// the combinations the docs show pass it.
func TestOptionsValidate(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string // substring of the error; "" = valid
	}{
		{"", ""},
		{"-data d -pool-pages 8 -result-cache-bytes 1024", ""},
		{"-role primary -data d -group g1 -min-sync 1", ""},
		{"-role follower -data d -peers http://p", ""},
		{"-role coordinator -groups g1=http://a,http://b;g2=http://c", ""},
		{"-role leader", `unknown -role "leader"`},
		{"-role seed", `unknown -role "seed"`},
		{"-role primary", "-role primary requires -data"},
		{"-role follower -peers http://p", "-role follower requires -data"},
		{"-role follower -data d", "-role follower requires -peers"},
		{"-pool-pages 8", "-pool-pages requires -data"},
		{"-role coordinator", "-role coordinator requires -groups"},
		{"-role coordinator -groups g1", `bad -groups entry "g1"`},
		{"-role coordinator -groups g1=", `group "g1" has no replica URLs`},
		// A flag the chosen role never reads is refused, not ignored.
		{"-role coordinator -groups g1=http://a -result-cache-bytes 8388608", "-role coordinator holds no database"},
		{"-min-sync 1", "-min-sync applies to -role primary or follower, not standalone"},
		{"-role coordinator -groups g1=http://a -min-sync 1", "-min-sync applies to -role primary or follower, not coordinator"},
		{"-role follower -data d -peers http://p -min-sync 1", ""},
		{"-role coordinator -groups g1=http://a -data d", "-role coordinator holds no database"},
		{"-role coordinator -groups g1=http://a -pool-pages 8", "-role coordinator holds no database"},
	} {
		fs := flag.NewFlagSet("qbhd", flag.ContinueOnError)
		o := registerFlags(fs)
		if err := fs.Parse(strings.Fields(tc.args)); err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		err := o.validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("qbhd %s: refused: %v", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("qbhd %s: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
	// The dynamic-membership flags are gone, not ignored.
	for _, name := range []string{"seeds", "advertise", "bootstrap-groups"} {
		fs := flag.NewFlagSet("qbhd", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		registerFlags(fs)
		if err := fs.Parse([]string{"-" + name, "x"}); err == nil {
			t.Errorf("qbhd -%s x parsed; want an unknown flag", name)
		}
	}
}

// A misconfiguration is found before the side effects: a follower
// without -peers is refused before its data directory is created.
func TestMisconfiguredStartLeavesNoDataDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "x")
	cmd := exec.Command(os.Args[0], "-role", "follower", "-data", dir, "-songs", "-1")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if code := cmd.ProcessState.ExitCode(); code != 2 {
		t.Fatalf("exit code %d (%v), want 2; stderr: %s", code, err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-role follower requires -peers") {
		t.Errorf("stderr %q does not name the missing flag", stderr.String())
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("data directory %s exists after a refused start (stat: %v)", dir, err)
	}
}
