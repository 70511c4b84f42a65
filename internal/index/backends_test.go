package index

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"warping/internal/core"
	"warping/internal/ts"
)

// LinearScan.Add returns an error on a length mismatch or a duplicate id; it
// never panics.
func TestLinearScanAddValidation(t *testing.T) {
	scan := NewLinearScan(testN, true)
	if err := scan.Add(1, make(ts.Series, 5)); err == nil {
		t.Error("wrong length accepted (previously panicked)")
	}
	if err := scan.Add(1, make(ts.Series, testN)); err != nil {
		t.Errorf("valid add failed: %v", err)
	}
	if err := scan.Add(1, make(ts.Series, testN)); err == nil {
		t.Error("duplicate id accepted")
	}
	if scan.Len() != 1 {
		t.Errorf("Len = %d after rejected adds, want 1", scan.Len())
	}
}

// The Index on either storage backend rejects bad adds and bad queries
// identically, with errors rather than panics.
func TestBackendsUniformValidation(t *testing.T) {
	tr := core.NewPAA(testN, testDim)
	paged := New(tr, Config{Pager: pagedSpace(t, 16)})
	defer paged.Close()
	for name, s := range map[string]*Index{"index/ram": New(tr, Config{}), "index/paged": paged} {
		if err := s.Add(1, make(ts.Series, 3)); err == nil {
			t.Errorf("%s: wrong length accepted", name)
		}
		if err := s.Add(1, make(ts.Series, testN)); err != nil {
			t.Errorf("%s: valid add failed: %v", name, err)
		}
		if err := s.Add(1, make(ts.Series, testN)); err == nil {
			t.Errorf("%s: duplicate id accepted", name)
		}
		bad := make(ts.Series, 9)
		if _, _, err := s.RangeQueryCtx(context.Background(), bad, 1, 0.1, Limits{}); !errors.Is(err, ErrQueryLength) {
			t.Errorf("%s: range err = %v, want ErrQueryLength", name, err)
		}
		if _, _, err := s.KNNCtx(context.Background(), bad, 1, 0.1, Limits{}); !errors.Is(err, ErrQueryLength) {
			t.Errorf("%s: knn err = %v, want ErrQueryLength", name, err)
		}
	}
}

// Concurrent adds, removes, kNN and range queries over one Index; meaningful
// under -race, where it is the proof that the Index's own lock is enough.
// (Named for the sharded composite it first stressed; the floor file knows
// the test by it.)
func TestShardedConcurrentStress(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	ix := New(core.NewPAA(testN, testDim), Config{})
	for i := 0; i < 200; i++ {
		if err := ix.Add(int64(i), randomWalk(r, testN)); err != nil {
			t.Fatal(err)
		}
	}
	queries := make([]ts.Series, 8)
	for i := range queries {
		queries[i] = randomWalk(r, testN)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 25; i++ {
				id := int64(1000 + w*100 + i)
				if err := ix.Add(id, randomWalk(rr, testN)); err != nil {
					t.Errorf("Add(%d): %v", id, err)
					return
				}
				// Two removals per add cross the compaction threshold, so
				// queries also race a repack.
				for old := int64(w*50 + 2*i); old < int64(w*50+2*i+2); old++ {
					if !ix.Remove(old) {
						t.Errorf("Remove(%d) failed", old)
						return
					}
				}
			}
		}(w)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				q := queries[(g+i)%len(queries)]
				if _, _, err := ix.KNNCtx(context.Background(), q, 3, 0.1, Limits{}); err != nil {
					t.Errorf("KNNCtx: %v", err)
					return
				}
				if _, _, err := ix.RangeQueryCtx(context.Background(), q, float64(testN)*0.04, 0.1, Limits{}); err != nil {
					t.Errorf("RangeQueryCtx: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if ix.Len() != 100 {
		t.Errorf("Len = %d, want 100", ix.Len())
	}
	if ix.compactions == 0 {
		t.Error("no compaction ran: the stress never raced a repack")
	}
}
