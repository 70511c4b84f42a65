package index

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"warping/internal/core"
	"warping/internal/ts"
)

func TestGridIndexMatchesRTreeIndex(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	tr := core.NewPAA(testN, testDim)
	rt := New(tr, Config{})
	// Grid files need coarse cells in 8 dimensions: the probe count is
	// (cells per dim)^dim, so the cell edge is sized near the typical
	// query extent.
	gr := NewGrid(tr, 40)
	for i := 0; i < 300; i++ {
		s := randomWalk(r, testN)
		rt.MustAdd(int64(i), s)
		if err := gr.Add(int64(i), s); err != nil {
			t.Fatal(err)
		}
	}
	if gr.Len() != 300 {
		t.Fatalf("Len = %d", gr.Len())
	}
	for trial := 0; trial < 10; trial++ {
		q := randomWalk(r, testN)
		eps := float64(testN) * (0.03 + r.Float64()*0.05)
		delta := 0.05 + r.Float64()*0.15
		a, sa := rt.RangeQuery(q, eps, delta)
		b, sb := gr.RangeQuery(q, eps, delta)
		if len(a) != len(b) {
			t.Fatalf("trial %d: rtree %d vs grid %d matches", trial, len(a), len(b))
		}
		for i := range a {
			if a[i].ID != b[i].ID || math.Abs(a[i].Dist-b[i].Dist) > 1e-12 {
				t.Fatalf("trial %d match %d differs", trial, i)
			}
		}
		if sb.PageAccesses == 0 || sa.PageAccesses == 0 {
			t.Error("missing page accounting")
		}
	}
}

func TestGridIndexValidation(t *testing.T) {
	gr := NewGrid(core.NewPAA(testN, testDim), 2)
	if err := gr.Add(1, make(ts.Series, 3)); err == nil {
		t.Error("wrong length accepted")
	}
	if err := gr.Add(1, make(ts.Series, testN)); err != nil {
		t.Fatal(err)
	}
	if err := gr.Add(1, make(ts.Series, testN)); err == nil {
		t.Error("duplicate accepted")
	}
	// A malformed query must return ErrQueryLength, never panic.
	if _, _, err := gr.RangeQueryCtx(context.Background(), make(ts.Series, 2), 1, 0.1, Limits{}); !errors.Is(err, ErrQueryLength) {
		t.Errorf("RangeQueryCtx error = %v, want ErrQueryLength", err)
	}
	if out, _ := gr.RangeQuery(make(ts.Series, 2), 1, 0.1); out != nil {
		t.Errorf("RangeQuery on bad length = %v, want nil", out)
	}
}

// TestBaselineSurvivorCountsPinned: the baselines' range cascades prune
// exactly what they pruned as serving backends — golden counters on
// TestRangeSurvivorCountsPinned's corpus. The grid applies the fine box
// stage spatially, like the tree; the scan starts from the whole corpus and
// runs the box stage itself. The coarse column is an alias of the candidates
// since PR 28 (the scan's coarse stage let 75 through; LB_Keogh prunes the
// rest at the same threshold, so every later counter is the parent's).
func TestBaselineSurvivorCountsPinned(t *testing.T) {
	data, q, epsilon := pinnedCorpus()
	tr := core.NewPAA(testN, testDim)
	gr := NewGrid(tr, 40)
	scan := NewLinearScanTransform(tr, true)
	for i, x := range data {
		if err := gr.Add(int64(i), x); err != nil {
			t.Fatal(err)
		}
		if err := scan.Add(int64(i), x); err != nil {
			t.Fatal(err)
		}
	}
	_, st := gr.RangeQuery(q, epsilon, 0.1)
	if got, want := survivorsOf(st), (survivorCounts{51, 51, 19, 8, 8}); got != want {
		t.Errorf("grid: candidates/coarse/keogh/lb/dtw = %+v, want %+v", got, want)
	}
	_, st = scan.RangeQuery(q, epsilon, 0.1)
	if got, want := survivorsOf(st), (survivorCounts{300, 300, 19, 8, 8}); got != want {
		t.Errorf("scan: candidates/coarse/keogh/lb/dtw = %+v, want %+v", got, want)
	}
}
