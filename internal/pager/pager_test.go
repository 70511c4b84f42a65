package pager

import (
	"errors"
	"fmt"
	"io/fs"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"warping/internal/store"
)

func openSpace(t *testing.T, pageSize, poolPages int) *Space {
	t.Helper()
	sp, err := Open(Config{PageSize: pageSize, PoolPages: poolPages, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sp.Close() })
	return sp
}

// sealed builds a column of n w-float records, record(w, s) in slot s.
func sealed(t *testing.T, sp *Space, w, n int) *Column {
	t.Helper()
	col, err := sp.NewColumn(w)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < n; s++ {
		if err := col.Append(record(w, s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := col.Seal(); err != nil {
		t.Fatal(err)
	}
	return col
}

func record(w, slot int) []float64 {
	v := make([]float64, w)
	for i := range v {
		v[i] = float64(slot*1000 + i)
	}
	return v
}

// TestColumnThrash appends far more records than the pool holds and reads
// them all back through eviction pressure, in order and shuffled.
func TestColumnThrash(t *testing.T) {
	sp := openSpace(t, 512, 8)
	const w, n = 16, 2000 // 3 records/page -> 667 pages vs 8 frames
	col := sealed(t, sp, w, n)
	cur := col.Reader()
	defer cur.Release()
	check := func(s int) {
		got, err := cur.At(s)
		if err != nil {
			t.Fatalf("At(%d): %v", s, err)
		}
		want := record(w, s)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("slot %d float %d: got %v want %v", s, i, got[i], want[i])
			}
		}
	}
	for s := 0; s < n; s++ {
		check(s)
	}
	// A big backwards stride defeats the clock cache and forces misses.
	for s := n - 1; s >= 0; s -= 37 {
		check(s)
	}
	st := sp.Stats()
	if st.Misses == 0 || st.Evictions == 0 {
		t.Fatalf("expected misses and evictions under thrash, got %+v", st)
	}
	if st.Pinned > 1 {
		t.Fatalf("pinned %d frames, expected at most the cursor's one", st.Pinned)
	}
}

// TestByteColumn: records of a size that is no multiple of 8 pack
// (512−16)/36 = 13 to a page, read back byte for byte through eviction, and
// a record of the wrong size is refused, as is a float record in a column
// whose size is not a whole number of floats.
func TestByteColumn(t *testing.T) {
	sp := openSpace(t, 512, 8)
	const size, n = 36, 500 // 39 pages vs 8 frames
	col, err := sp.NewByteColumn(size)
	if err != nil {
		t.Fatal(err)
	}
	rec := func(s int) []byte {
		b := make([]byte, size)
		for i := range b {
			b[i] = byte(s*7 + i)
		}
		return b
	}
	for s := 0; s < n; s++ {
		if err := col.AppendBytes(rec(s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := col.AppendBytes(make([]byte, size+1)); err == nil {
		t.Error("a 37-byte record went into a 36-byte column")
	}
	if err := col.Append(make([]float64, 4)); err == nil {
		t.Error("four floats went into a 36-byte column")
	}
	if err := col.Seal(); err != nil {
		t.Fatal(err)
	}
	if got := col.f.NumPages(); got != (n+12)/13 {
		t.Errorf("%d pages for %d records, want %d", got, n, (n+12)/13)
	}
	cur := col.Reader()
	defer cur.Release()
	for s := n - 1; s >= 0; s -= 3 {
		got, err := cur.BytesAt(s)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(rec(s)) || cap(got) != size {
			t.Fatalf("slot %d: got %v (cap %d), want %v", s, got, cap(got), rec(s))
		}
	}
}

// TestColumnIsWriteOnce: building a column writes each page once, front to
// back, with one positional write outside the pool — the file grows by
// whole pages, the pool sees nothing — a record on the page still being
// filled cannot be read, and a sealed column takes no more records.
func TestColumnIsWriteOnce(t *testing.T) {
	fsys := store.NewFaultFS(store.OS())
	sp, err := Open(Config{PageSize: 512, PoolPages: 8, Dir: t.TempDir(), FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sp.Close() })
	const w, n = 2, 100 // 31 records a page: three full pages and one of 7
	col, err := sp.NewColumn(w)
	if err != nil {
		t.Fatal(err)
	}
	header := fsys.BytesWritten()
	for s := 0; s < n; s++ {
		if err := col.Append(record(w, s)); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := fsys.BytesWritten()-header, int64(3*512); got != want {
		t.Errorf("%d bytes written for three full pages, want %d", got, want)
	}
	if st := sp.Stats(); st.Resident != 0 || st.Hits+st.Misses != 0 {
		t.Errorf("the build went through the pool: %+v", st)
	}
	cur := col.Reader()
	defer cur.Release()
	if _, err := cur.At(n - 1); err == nil {
		t.Error("a record of the page being filled was read")
	}
	if err := col.Seal(); err != nil {
		t.Fatal(err)
	}
	if got, want := fsys.BytesWritten()-header, int64(4*512); got != want || col.f.NumPages() != 4 {
		t.Errorf("%d bytes in %d pages after Seal, want %d in 4", got, col.f.NumPages(), want)
	}
	if err := col.Append(record(w, n)); err == nil {
		t.Error("a sealed column took a record")
	}
	for _, s := range []int{0, 92, n - 1} {
		if got, err := cur.At(s); err != nil || got[0] != float64(s*1000) {
			t.Fatalf("slot %d: %v, %v", s, got, err)
		}
	}
}

// TestConcurrentReaders hammers one column from many goroutines with a pool
// far smaller than the data, proving pin coalescing and eviction are safe.
func TestConcurrentReaders(t *testing.T) {
	sp := openSpace(t, 512, 8)
	const w, n = 8, 1000
	col := sealed(t, sp, w, n)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cur := col.Reader()
			defer cur.Release()
			for i := 0; i < 3*n; i++ {
				s := (i*7 + g*13) % n
				got, err := cur.At(s)
				if err != nil {
					errs <- err
					return
				}
				if got[0] != float64(s*1000) {
					errs <- fmt.Errorf("slot %d: got %v", s, got[0])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// newPages writes a fresh file of sp with n pages, page i starting with
// float i. None of them is resident.
func newPages(t *testing.T, sp *Space, n int) *File {
	t.Helper()
	f, err := sp.NewFile(KindColumn)
	if err != nil {
		t.Fatal(err)
	}
	pg := sp.NewPage()
	for i := 0; i < n; i++ {
		pg.Floats()[0] = float64(i)
		if pid, err := f.AppendPage(pg); err != nil || pid != uint64(i) {
			t.Fatalf("page %d written as %d: %v", i, pid, err)
		}
	}
	return f
}

// TestPinMissAllocatesNothing: a pin that misses — clock eviction, one
// positional read, checksum — and its unpin allocate nothing.
func TestPinMissAllocatesNothing(t *testing.T) {
	sp := openSpace(t, 512, 8)
	const n = 64 // cycling 64 pages through 8 frames misses on every pin
	f := newPages(t, sp, n)
	pool := sp.Pool()
	var pid uint64
	var err error
	allocs := testing.AllocsPerRun(200, func() {
		fr, miss, perr := pool.Pin(f, pid%n)
		if perr != nil || !miss || fr.Floats()[0] != float64(pid%n) {
			err = fmt.Errorf("pin %d: miss %v, err %v", pid%n, miss, perr)
		}
		if perr == nil {
			pool.Unpin(fr)
		}
		pid++
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("a pin miss allocates %v times, want 0", allocs)
	}
	if st := sp.Stats(); st.Misses != 201 || st.Hits != 0 {
		t.Fatalf("%+v, want 201 misses and no hits", st)
	}
}

// gatedFS, once armed, holds the first positional page read at gate,
// announcing it on entered.
type gatedFS struct {
	store.FS
	armed         atomic.Bool
	entered, gate chan struct{}
}

type gatedFile struct {
	store.File
	fs *gatedFS
}

func gatedSpace(t *testing.T) (*Space, *gatedFS) {
	t.Helper()
	g := &gatedFS{FS: store.OS(), entered: make(chan struct{}), gate: make(chan struct{})}
	sp, err := Open(Config{PageSize: 512, PoolPages: 8, Dir: t.TempDir(), FS: g})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sp.Close() })
	return sp, g
}

func (g *gatedFS) OpenFile(name string, flag int, perm fs.FileMode) (store.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return gatedFile{f, g}, nil
}

func (f gatedFile) ReadAt(p []byte, off int64) (int, error) {
	if f.fs.armed.CompareAndSwap(true, false) {
		f.fs.entered <- struct{}{}
		<-f.fs.gate
	}
	return f.File.ReadAt(p, off)
}

type pinResult struct {
	fr   *Frame
	miss bool
	err  error
}

// pinAsync pins (f, pid) on its own goroutine and delivers the result.
func pinAsync(pool *Pool, f *File, pid uint64) <-chan pinResult {
	ch := make(chan pinResult, 1)
	go func() {
		fr, miss, err := pool.Pin(f, pid)
		ch <- pinResult{fr, miss, err}
	}()
	return ch
}

// TestPinWaitsForLoad: a pin of a page another pin is reading from disk
// waits for that read instead of issuing its own, and is counted as a hit
// and a wait.
func TestPinWaitsForLoad(t *testing.T) {
	sp, g := gatedSpace(t)
	f := newPages(t, sp, 1)
	pool := sp.Pool()
	g.armed.Store(true)
	first := pinAsync(pool, f, 0)
	<-g.entered // the first pin is reading page 0
	second := pinAsync(pool, f, 0)
	for pool.Stats().Waits == 0 {
		runtime.Gosched()
	}
	close(g.gate)
	a, b := <-first, <-second
	if a.err != nil || b.err != nil {
		t.Fatal(a.err, b.err)
	}
	pool.Unpin(a.fr)
	pool.Unpin(b.fr)
	if !a.miss || b.miss || a.fr != b.fr {
		t.Fatalf("misses %v, %v over frames %p, %p; want one read into one frame", a.miss, b.miss, a.fr, b.fr)
	}
	if st := sp.Stats(); st.Misses != 1 || st.Hits != 1 || st.Waits != 1 {
		t.Fatalf("%+v, want 1 miss, 1 hit, 1 wait", st)
	}
}

// TestOverflowUnderFullPins pins more pages than the pool has frames; the
// pool must overflow rather than deadlock, and shrink back afterwards.
func TestOverflowUnderFullPins(t *testing.T) {
	sp := openSpace(t, 512, 8)
	const n = 12
	col := sealed(t, sp, 60, n) // 1 record per 512B page
	curs := make([]Cursor, n)
	for s := 0; s < n; s++ {
		curs[s] = col.Reader()
		if _, err := curs[s].At(s); err != nil {
			t.Fatalf("pin %d: %v", s, err)
		}
	}
	st := sp.Stats()
	if st.Pinned != n {
		t.Fatalf("pinned %d, want %d", st.Pinned, n)
	}
	if st.Overflows == 0 {
		t.Fatalf("expected overflow frames with %d pins over %d frames: %+v", n, 8, st)
	}
	for s := range curs {
		curs[s].Release()
	}
	if err := sp.Pool().Reset(); err != nil {
		t.Fatal(err)
	}
	if st := sp.Stats(); st.Resident != 0 || st.Pinned != 0 {
		t.Fatalf("after reset: %+v", st)
	}
}

// TestOpenWipesStaleSpill proves spill files from a previous process are
// removed: page files are derived state, never reused across opens.
func TestOpenWipesStaleSpill(t *testing.T) {
	dir := t.TempDir()
	sp, err := Open(Config{PageSize: 512, PoolPages: 8, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	col, err := sp.NewColumn(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Append(record(4, 1)); err != nil {
		t.Fatal(err)
	}
	if err := col.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	sp2, err := Open(Config{PageSize: 512, PoolPages: 8, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer sp2.Close()
	// The first file created in the fresh space reuses id 0; creation must
	// not collide with a stale file.
	col2, err := sp2.NewColumn(4)
	if err != nil {
		t.Fatal(err)
	}
	if n := col2.f.NumPages(); n != 0 {
		t.Fatalf("fresh column has %d pages", n)
	}
}

// TestRemoveColumn drops a column and proves its pool pages are gone.
func TestRemoveColumn(t *testing.T) {
	sp := openSpace(t, 512, 8)
	col := sealed(t, sp, 4, 100)
	cur := col.Reader()
	for s := 0; s < 100; s += 10 {
		if _, err := cur.At(s); err != nil {
			t.Fatal(err)
		}
	}
	cur.Release()
	if st := sp.Stats(); st.Resident == 0 {
		t.Fatalf("reads left nothing resident: %+v", st)
	}
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	if st := sp.Stats(); st.Resident != 0 {
		t.Fatalf("resident pages after remove: %+v", st)
	}
}

// TestFitPageSize checks records always fit one page.
func TestFitPageSize(t *testing.T) {
	cases := []struct{ w, cfg, want int }{
		{4, 0, DefaultPageSize},
		{4, 512, 512},
		{100, 512, 1024},           // 100*8+16 = 816 -> 1024
		{1022, 0, DefaultPageSize}, // 1022*8+16 = 8192 fits exactly
		{1023, 0, 2 * DefaultPageSize},
		{4, 300, 512}, // non-power-of-two rounds up past MinPageSize
	}
	for _, c := range cases {
		if got := (Config{PageSize: c.cfg}).FitPageSize(c.w); got != c.want {
			t.Errorf("FitPageSize(w=%d, cfg=%d) = %d, want %d", c.w, c.cfg, got, c.want)
		}
	}
}

// TestTornPageDetected writes a page, tears a rewrite of it mid-page, and
// proves a direct read of the torn page reports a checksum error rather
// than returning garbage.
func TestTornPageDetected(t *testing.T) {
	fsys := store.NewFaultFS(store.OS())
	dir := t.TempDir()
	path := dir + "/torn.pages"
	pf, err := store.CreatePageFile(fsys, path, 512, KindColumn)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	for i := range buf[store.PageHeaderSize:] {
		buf[store.PageHeaderSize+i] = byte(i)
	}
	pid := pf.Allocate()
	if err := pf.WritePage(pid, buf); err != nil {
		t.Fatal(err)
	}
	// Tear halfway through the overwrite of the same page.
	fsys.KillAfterBytes(256)
	for i := range buf[store.PageHeaderSize:] {
		buf[store.PageHeaderSize+i] = byte(i + 1)
	}
	if err := pf.WritePage(pid, buf); !errors.Is(err, store.ErrInjected) {
		t.Fatalf("torn write: %v", err)
	}
	pf.Close()
	pf2, err := store.OpenPageFile(store.OS(), path, KindColumn)
	if err != nil {
		t.Fatal(err)
	}
	defer pf2.Close()
	if err := pf2.ReadPage(pid, buf); !errors.Is(err, store.ErrChecksum) {
		t.Fatalf("read of torn page: %v, want ErrChecksum", err)
	}
}

// TestResetZeroesCounters proves Reset leaves a clean stat baseline: a
// pool that has seen misses, evictions and overflow frames reports all
// counters — overflows included — as zero afterwards, so cold-cache
// benchmarks that reuse a pool measure only their own traffic.
func TestResetZeroesCounters(t *testing.T) {
	sp := openSpace(t, 512, 8)
	const n = 12
	col := sealed(t, sp, 60, n+1) // 1 record per 512B page
	// Pin past capacity to force overflow frames, then release.
	curs := make([]Cursor, n)
	for s := 0; s < n; s++ {
		curs[s] = col.Reader()
		if _, err := curs[s].At(s); err != nil {
			t.Fatalf("pin %d: %v", s, err)
		}
	}
	for s := range curs {
		curs[s].Release()
	}
	if st := sp.Stats(); st.Misses == 0 || st.Overflows == 0 {
		t.Fatalf("setup did not exercise the counters: %+v", st)
	}
	if err := sp.Pool().Reset(); err != nil {
		t.Fatal(err)
	}
	st := sp.Stats()
	if st.Hits != 0 || st.Misses != 0 || st.Evictions != 0 || st.Overflows != 0 || st.Resident != 0 {
		t.Fatalf("counters survived Reset: %+v", st)
	}
	// The next pins are real cold misses counted from the clean baseline.
	r := col.Reader()
	for _, s := range []int{0, n} {
		got, err := r.At(s)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != float64(s*1000) {
			t.Fatalf("slot %d: got %v", s, got[0])
		}
	}
	r.Release()
	if st := sp.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("post-reset baseline dirty: %+v", st)
	}
}
