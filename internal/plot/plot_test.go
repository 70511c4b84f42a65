package plot

import (
	"strings"
	"testing"
)

func TestRenderBasics(t *testing.T) {
	out := Render([]Series{
		{Name: "up", Values: []float64{0, 1, 2, 3}},
		{Name: "down", Values: []float64{3, 2, 1, 0}},
	}, Options{Title: "trends", Height: 5, XLabels: [2]string{"0.0", "0.3"}})
	if !strings.Contains(out, "trends") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "* up") || !strings.Contains(out, "+ down") {
		t.Errorf("missing legend:\n%s", out)
	}
	if !strings.Contains(out, "0.0") || !strings.Contains(out, "0.3") {
		t.Error("missing x labels")
	}
	// Axis labels for min and max.
	if !strings.Contains(out, "3") || !strings.Contains(out, "0") {
		t.Error("missing y bounds")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 1+5+1+1 { // title + rows + xlabels + legend
		t.Errorf("line count %d:\n%s", len(lines), out)
	}
}

func TestRenderMarkersLandCorrectly(t *testing.T) {
	// A single rising series: first point bottom-left, last top-right.
	out := Render([]Series{{Name: "s", Values: []float64{0, 10}}}, Options{Height: 4})
	lines := strings.Split(out, "\n")
	top := lines[0]
	bottom := lines[3]
	if top[len(top)-2] != '*' {
		t.Errorf("top-right marker missing: %q", top)
	}
	if !strings.Contains(bottom, "|*") {
		t.Errorf("bottom-left marker missing: %q", bottom)
	}
}

func TestRenderConstantSeries(t *testing.T) {
	out := Render([]Series{{Name: "flat", Values: []float64{5, 5, 5}}}, Options{})
	if out == "" || !strings.Contains(out, "flat") {
		t.Error("constant series render failed")
	}
}

func TestRenderEmpty(t *testing.T) {
	if Render(nil, Options{}) != "" {
		t.Error("nil series should render empty")
	}
	if Render([]Series{{Name: "e", Values: nil}}, Options{}) != "" {
		t.Error("empty values should render empty")
	}
}

func TestRenderMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Render([]Series{
		{Name: "a", Values: []float64{1}},
		{Name: "b", Values: []float64{1, 2}},
	}, Options{})
}

func TestRenderSinglePoint(t *testing.T) {
	out := Render([]Series{{Name: "pt", Values: []float64{7}}}, Options{Height: 3})
	if !strings.Contains(out, "*") {
		t.Errorf("single point missing:\n%s", out)
	}
}
