package index

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
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

// Concurrent adds, kNN and range queries over one Index; meaningful under
// -race, where it is the proof that the Index's own lock is enough. The
// writers add past deltaMergeMin, and the readers keep querying until the
// last add returns, so queries race a delta merge. (Named for the sharded
// composite it first stressed.)
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
	const writers, perWriter = 4, 210 // 200 + 840 adds cross deltaMergeMin once
	var writing sync.WaitGroup
	var adding atomic.Bool
	adding.Store(true)
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			rr := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				id := int64(1000 + w*perWriter + i)
				if err := ix.Add(id, randomWalk(rr, testN)); err != nil {
					t.Errorf("Add(%d): %v", id, err)
					return
				}
			}
		}(w)
	}
	var reading sync.WaitGroup
	for g := 0; g < 4; g++ {
		reading.Add(1)
		go func(g int) {
			defer reading.Done()
			for i := 0; i < 20 || adding.Load(); i++ {
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
	writing.Wait()
	adding.Store(false)
	reading.Wait()
	if want := 200 + writers*perWriter; ix.Len() != want {
		t.Errorf("Len = %d, want %d", ix.Len(), want)
	}
	if ix.base.Len() == 0 {
		t.Error("no delta merge ran: the stress never raced a repack")
	}
}
