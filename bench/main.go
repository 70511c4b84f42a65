// Command bench is the repository's one end-to-end benchmark: it builds the
// shipped qbhd binary, starts it as a child on loopback, drives one of four
// workloads over HTTP, checks every designated answer against a brute-force
// oracle, and reports the metrics BENCHMARK.json names. See README.md.
//
//	go run ./bench -workload hum-ram -seed 1                 # gated end-to-end metrics
//	go run ./bench -workload all -seed 1 -trace 2            # every metric of every workload
//	go run ./bench compare bench/out/a.json bench/out/b.json # verdict per workload x metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// stamp is the context a run's numbers are only comparable within.
type stamp struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Scale      string  `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	Clients    int     `json:"clients"`
	When       string  `json:"when"`
}

type runRecord struct {
	Stamp     stamp            `json:"stamp"`
	Workloads []workloadResult `json:"workloads"`
}

// resultFile accumulates runs: a file written to twice holds a set of two.
type resultFile struct {
	Runs []runRecord `json:"runs"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	name := flag.String("workload", "all", "hum-ram, hum-paged, wav-hot, ingest-mixed, or all")
	seed := flag.Int64("seed", 1, "drives corpus, hums, draw order and write schedule; qbhd only ever sees the generated inputs")
	seconds := flag.Float64("seconds", 0, "length of the closed phase (0 = 20 at full scale, 1 at smoke)")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics (shorter closed phase, open phase, traced run), 2 = both")
	scaleName := flag.String("scale", "full", "full or smoke")
	out := flag.String("out", "", "append the run to this JSON file (default bench/out/<workload>.json)")
	flag.Parse()

	sc, ok := scales[*scaleName]
	if !ok || flag.NArg() > 0 || *trace < 0 || *trace > 2 {
		flag.Usage()
		os.Exit(2)
	}
	if *seconds <= 0 {
		*seconds = map[string]float64{"full": 20, "smoke": 1}[sc.name]
	}
	todo := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		todo = []workload{w}
	}

	e, err := newEnv(sc, *seed, *seconds, *trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Every exit path kills the child and removes the temp dirs.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.close()
		os.Exit(130)
	}()
	code := runAll(e, todo, *out)
	e.close()
	os.Exit(code)
}

func runAll(e *env, todo []workload, out string) int {
	rec := runRecord{Stamp: stamp{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: commit(e.root), Seed: e.seed, Scale: e.sc.name, Seconds: e.seconds, Trace: e.trace, Clients: e.clients,
		When: time.Now().UTC().Format(time.RFC3339)}}
	code := 0
	for _, w := range todo {
		res, err := e.run(w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		rec.Workloads = append(rec.Workloads, res)
		printResult(res)
		if !res.Correct {
			code = 1
		}
	}
	if out == "" {
		name := "all"
		if len(todo) == 1 {
			name = todo[0].name
		}
		out = filepath.Join(e.outDir, name+".json")
	}
	if err := appendRun(out, rec); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// The last line of standard output is the machine-readable verdict of
	// the last workload run.
	for _, res := range rec.Workloads {
		line := struct {
			Correct   bool                   `json:"correct"`
			Attempted int64                  `json:"attempted"`
			Failed    int64                  `json:"failed"`
			Metrics   map[string]interface{} `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, map[string]interface{}{}}
		for _, m := range res.Metrics {
			line.Metrics[m.Name] = struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			}{m.Value, m.Unit}
		}
		b, _ := json.Marshal(line)
		fmt.Println(string(b))
	}
	return code
}

// printResult is the human-readable table: every metric by name with its
// unit, workload, sample count and in-run spread.
func printResult(res workloadResult) {
	fmt.Printf("workload %s: correct=%v attempted=%d failed=%d inputs=%.12s", res.Name, res.Correct, res.Attempted, res.Failed, res.InputsSHA)
	if res.Late {
		fmt.Printf(" LATE (open-phase generator lateness p99 > %g ms)", lateLimitMS)
	}
	fmt.Println()
	for _, f := range res.Failures {
		fmt.Println("  failure:", f)
	}
	if sh := res.Sharing; sh != nil {
		fmt.Printf("  probe %.3f ns, timing reported at %.3f ns (exponent %.2f); as measured: setup_s %.4f closed_qps %.4f query_p50_ms %.4f query_p90_ms %.4f\n",
			sh.ProbeNS, sh.RefProbeNS, sh.Exponent, sh.RawSetup, sh.RawQPS, sh.RawP50, sh.RawP90)
	}
	for _, m := range res.Metrics {
		fmt.Printf("  %-12s %-26s %14.4f %-6s n=%-7d spread=%.3f\n", res.Name, m.Name, m.Value, m.Unit, m.Samples, m.Spread)
	}
	names := make([]string, 0, len(res.Attribution))
	for name := range res.Attribution {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return res.Attribution[names[i]] > res.Attribution[names[j]] })
	for _, name := range names {
		fmt.Printf("  %-12s self time of %-22s %6.1f%% of traced request + HTTP hop\n", res.Name, name, 100*res.Attribution[name])
	}
}

func appendRun(path string, rec runRecord) error {
	var rf resultFile
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &rf); err != nil {
			return fmt.Errorf("%s exists but is not a result file: %v", path, err)
		}
	}
	rf.Runs = append(rf.Runs, rec)
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// commit names the checkout, "unknown" outside a git work tree.
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	b, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
