package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchmarkSpec is BENCHMARK.json at the module root.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(root string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return spec, err
	}
	return spec, json.Unmarshal(b, &spec)
}

// series collects, per workload and metric, the value of every run in a
// result file, plus the largest in-run spread seen.
type series struct {
	values []float64
	inRun  float64
}

func loadSeries(path string) (map[string]*series, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	out := map[string]*series{}
	for _, run := range rf.Runs {
		for _, w := range run.Workloads {
			for _, m := range w.Metrics {
				key := w.Name + "\x00" + m.Name
				s := out[key]
				if s == nil {
					s = &series{}
					out[key] = s
				}
				s.values = append(s.values, m.Value)
				s.inRun = max(s.inRun, m.Spread)
			}
		}
	}
	return out, nil
}

// spreadOf is how far a file's own runs disagree; for a single run, how far
// its windows did.
func (s *series) spreadOf() float64 {
	if len(s.values) > 1 {
		return spread(s.values)
	}
	return s.inRun
}

// compareMain prints, per workload and gated metric, both medians, the
// spread, the bound and a verdict, and returns 1 if any metric is worse.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare <a.json> <b.json>")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	a, err := loadSeries(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := loadSeries(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	code := 0
	fmt.Printf("%-13s %-14s %12s %12s %8s %8s %7s  %s\n", "workload", "metric", "a", "b", "change", "spread", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			sa, sb := a[w.Name+"\x00"+m.Name], b[w.Name+"\x00"+m.Name]
			if sa == nil || sb == nil {
				continue
			}
			ma, mb := median(sa.values), median(sb.values)
			v, change := verdict(ma, mb, max(sa.spreadOf(), sb.spreadOf()), m.Bound, m.Better == "higher")
			if v == "worse" {
				code = 1
			}
			fmt.Printf("%-13s %-14s %12.4f %12.4f %+7.1f%% %7.1f%% %6.1f%%  %s\n",
				w.Name, m.Name, ma, mb, 100*change, 100*max(sa.spreadOf(), sb.spreadOf()), 100*m.Bound, v)
		}
	}
	return code
}

// verdict judges b against a: worse when it is beyond the bound in the bad
// direction, unresolved when the runs' own spread exceeds the bound (so
// neither "worse" nor "ok" can be told from noise), ok otherwise. change is
// signed so that positive means worse.
func verdict(a, b, spread, bound float64, higherIsBetter bool) (string, float64) {
	change := ratio(b-a, a)
	if higherIsBetter {
		change = -change
	}
	switch {
	case spread > bound:
		return "unresolved", change
	case change > bound:
		return "worse", change
	}
	return "ok", change
}
