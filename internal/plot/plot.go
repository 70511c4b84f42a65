// Package plot renders small ASCII line charts for the experiment CLI: the
// paper's figures are line plots, and a terminal sketch of each curve makes
// the shape claims (crossovers, growth, who wins) visible at a glance
// without leaving the shell.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named curve.
type Series struct {
	Name   string
	Values []float64
	// Marker is the character used for this curve (assigned from a
	// default cycle when zero).
	Marker byte
}

// width is the plot area's width in characters.
const width = 60

// Options controls chart geometry.
type Options struct {
	// Height of the plot area in characters (default 16).
	Height int
	// Title is printed above the chart.
	Title string
	// XLabels are printed under the first and last column when given.
	XLabels [2]string
}

var defaultMarkers = []byte{'*', '+', 'o', 'x', '#', '@'}

// Render draws the series into a text chart. All series must have the same
// number of points (>= 1); the x axis is the point index, evenly spaced.
func Render(series []Series, opts Options) string {
	if len(series) == 0 {
		return ""
	}
	n := len(series[0].Values)
	for _, s := range series {
		if len(s.Values) != n {
			panic("plot: series length mismatch")
		}
	}
	if n == 0 {
		return ""
	}
	if opts.Height == 0 {
		opts.Height = 16
	}

	// Bounds.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for _, v := range s.Values {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if hi == lo {
		hi = lo + 1
	}

	grid := make([][]byte, opts.Height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		marker := s.Marker
		if marker == 0 {
			marker = defaultMarkers[si%len(defaultMarkers)]
		}
		for i, v := range s.Values {
			col := 0
			if n > 1 {
				col = i * (width - 1) / (n - 1)
			}
			row := int((hi - v) / (hi - lo) * float64(opts.Height-1))
			if row < 0 {
				row = 0
			}
			if row >= opts.Height {
				row = opts.Height - 1
			}
			grid[row][col] = marker
		}
	}

	var b strings.Builder
	if opts.Title != "" {
		b.WriteString(opts.Title)
		b.WriteByte('\n')
	}
	for r, row := range grid {
		switch r {
		case 0:
			fmt.Fprintf(&b, "%10.3g |%s|\n", hi, row)
		case opts.Height - 1:
			fmt.Fprintf(&b, "%10.3g |%s|\n", lo, row)
		default:
			fmt.Fprintf(&b, "%10s |%s|\n", "", row)
		}
	}
	if opts.XLabels[0] != "" || opts.XLabels[1] != "" {
		pad := width - len(opts.XLabels[0]) - len(opts.XLabels[1])
		if pad < 1 {
			pad = 1
		}
		fmt.Fprintf(&b, "%10s  %s%s%s\n", "", opts.XLabels[0], strings.Repeat(" ", pad), opts.XLabels[1])
	}
	// Legend.
	var legend []string
	for si, s := range series {
		marker := s.Marker
		if marker == 0 {
			marker = defaultMarkers[si%len(defaultMarkers)]
		}
		legend = append(legend, fmt.Sprintf("%c %s", marker, s.Name))
	}
	fmt.Fprintf(&b, "%10s  %s\n", "", strings.Join(legend, "   "))
	return b.String()
}
