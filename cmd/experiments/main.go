// Command experiments regenerates the tables and figures of Zhu & Shasha,
// SIGMOD 2003. Each experiment prints the same rows/series the paper
// reports, as an aligned text table.
//
// Usage:
//
//	experiments -run all            # everything at paper scale
//	experiments -run fig6,fig7      # a subset
//	experiments -run fig9 -scale small   # quick smoke-scale run
//
// Paper scale can take minutes for the large databases (Figures 9 and 10
// index 35,000 and 50,000 series); -scale small runs each experiment at
// roughly 1/10 size for a fast end-to-end check.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"warping/internal/experiments"
)

func main() {
	run := flag.String("run", "all", "comma-separated list: fig1..fig5 (illustrations), table2,table3,fig6,fig7,fig8,fig9,fig10,structures,pruning or all")
	scale := flag.String("scale", "paper", "paper or small")
	plots := flag.Bool("plot", false, "also render ASCII charts of the figure curves")
	flag.Parse()
	showPlots = *plots

	small := false
	switch *scale {
	case "paper":
	case "small":
		small = true
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}

	want := map[string]bool{}
	if *run == "all" {
		for _, exp := range allExperiments {
			want[exp.key] = true
		}
	} else {
		for _, k := range strings.Split(*run, ",") {
			want[strings.TrimSpace(k)] = true
		}
	}

	ran, err := runExperiments(os.Stdout, want, small)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "nothing to run: unknown experiment keys in %q\n", *run)
		os.Exit(2)
	}
}

// allExperiments lists every experiment in the paper's order.
var allExperiments = []struct {
	key string
	fn  func(small bool) (string, error)
}{
	{"fig1", func(bool) (string, error) { return experiments.RunFigure1(), nil }},
	{"fig2", func(bool) (string, error) { return experiments.RunFigure2(), nil }},
	{"fig3", func(bool) (string, error) { return experiments.RunFigure3(), nil }},
	{"fig4", func(bool) (string, error) { return experiments.RunFigure4(), nil }},
	{"fig5", func(bool) (string, error) { return experiments.RunFigure5(), nil }},
	{"table2", runTable2},
	{"table3", runTable3},
	{"fig6", runFig6},
	{"fig7", runFig7},
	{"fig8", runFig8},
	{"fig9", runFig9},
	{"fig10", runFig10},
	{"structures", runStructures},
	{"pruning", runPruning},
}

// runExperiments prints every wanted experiment to w, each followed by a
// "[key completed in …]" line, and reports how many ran.
func runExperiments(w io.Writer, want map[string]bool, small bool) (ran int, err error) {
	for _, exp := range allExperiments {
		if !want[exp.key] {
			continue
		}
		ran++
		start := time.Now()
		out, err := exp.fn(small)
		if err != nil {
			return ran, fmt.Errorf("%s: %v", exp.key, err)
		}
		fmt.Fprintln(w, out)
		fmt.Fprintf(w, "[%s completed in %v]\n\n", exp.key, time.Since(start).Round(time.Millisecond))
	}
	return ran, nil
}

func runTable2(small bool) (string, error) {
	cfg := experiments.DefaultQualityConfig()
	if small {
		cfg.Songs, cfg.NotesPerSong, cfg.Queries = 10, 120, 6
	}
	res, err := experiments.RunTable2(cfg)
	if err != nil {
		return "", err
	}
	return res.Render(), nil
}

func runTable3(small bool) (string, error) {
	cfg := experiments.DefaultQualityConfig()
	if small {
		cfg.Songs, cfg.NotesPerSong, cfg.Queries = 10, 120, 6
	}
	res, err := experiments.RunTable3(cfg)
	if err != nil {
		return "", err
	}
	return res.Render(), nil
}

var showPlots bool

func runFig6(small bool) (string, error) {
	cfg := experiments.DefaultFigure6Config()
	if small {
		cfg.SeriesPerSet = 10
	}
	res := experiments.RunFigure6(cfg)
	out := res.Render() + fmt.Sprintf("\nmean New_PAA/Keogh_PAA tightness ratio: %.2f\n", res.MeanRatio())
	if showPlots {
		out += "\n" + res.Plot()
	}
	return out, nil
}

func runFig7(small bool) (string, error) {
	cfg := experiments.DefaultFigure7Config()
	if small {
		cfg.Pairs = 60
	}
	res := experiments.RunFigure7(cfg)
	out := res.Render()
	if showPlots {
		out += "\n" + res.Plot()
	}
	return out, nil
}

func runFig8(small bool) (string, error) {
	cfg := experiments.DefaultFigure8Config()
	if small {
		cfg.DBSize, cfg.Queries = 300, 8
	}
	res, err := experiments.RunFigure8(cfg)
	if err != nil {
		return "", err
	}
	out := res.Render()
	if showPlots {
		out += "\n" + res.Plot()
	}
	return out, nil
}

func runFig9(small bool) (string, error) {
	cfg := experiments.DefaultFigure9Config()
	if small {
		cfg.DBSize, cfg.Queries = 3000, 8
	}
	res, err := experiments.RunFigure9(cfg)
	if err != nil {
		return "", err
	}
	out := res.Render()
	if showPlots {
		out += "\n" + res.Plot()
	}
	return out, nil
}

func runStructures(small bool) (string, error) {
	cfg := experiments.DefaultStructuresConfig()
	if small {
		cfg.DBSize, cfg.Queries = 800, 8
	}
	res, err := experiments.RunStructures(cfg)
	if err != nil {
		return "", err
	}
	return res.Render(), nil
}

func runFig10(small bool) (string, error) {
	cfg := experiments.DefaultFigure10Config()
	if small {
		cfg.DBSize, cfg.Queries = 5000, 8
	}
	res, err := experiments.RunFigure10(cfg)
	if err != nil {
		return "", err
	}
	out := res.Render()
	if showPlots {
		out += "\n" + res.Plot()
	}
	return out, nil
}

func runPruning(small bool) (string, error) {
	cfg := experiments.DefaultPruningConfig()
	if small {
		cfg.DBSize, cfg.Queries = 600, 8
	}
	res, err := experiments.RunPruningPower(cfg)
	if err != nil {
		return "", err
	}
	return res.Render(), nil
}
