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
	const w, n = 16, 2000 // 31 records/page -> ~65 pages vs 8 frames
	col, err := sp.NewColumn(w)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < n; s++ {
		if err := col.Append(record(w, s)); err != nil {
			t.Fatal(err)
		}
	}
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
	if st.Misses == 0 || st.Evictions == 0 || st.Writeback == 0 {
		t.Fatalf("expected misses/evictions/writebacks under thrash, got %+v", st)
	}
	if st.Pinned > 1 {
		t.Fatalf("pinned %d frames, expected at most the cursor's one", st.Pinned)
	}
}

// TestConcurrentReaders hammers one column from many goroutines with a pool
// far smaller than the data, proving pin coalescing and eviction are safe.
func TestConcurrentReaders(t *testing.T) {
	sp := openSpace(t, 512, 8)
	const w, n = 8, 1000
	col, err := sp.NewColumn(w)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < n; s++ {
		if err := col.Append(record(w, s)); err != nil {
			t.Fatal(err)
		}
	}
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

// newPages fills a fresh file of sp with n written, unpinned, clean pages
// and empties the pool.
func newPages(t *testing.T, sp *Space, n int) *File {
	t.Helper()
	f, err := sp.NewFile(KindColumn)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		fr, err := sp.Pool().PinNew(f, f.Allocate())
		if err != nil {
			t.Fatal(err)
		}
		fr.Floats()[0] = float64(i)
		sp.Pool().Unpin(fr)
	}
	if err := sp.Pool().Reset(); err != nil {
		t.Fatal(err)
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

// gatedFS, once armed, holds the first positional page read (or write,
// with writes set) at gate, announcing it on entered.
type gatedFS struct {
	store.FS
	writes        bool
	armed         atomic.Bool
	entered, gate chan struct{}
}

type gatedFile struct {
	store.File
	fs *gatedFS
}

func gatedSpace(t *testing.T, writes bool) (*Space, *gatedFS) {
	t.Helper()
	g := &gatedFS{FS: store.OS(), writes: writes, entered: make(chan struct{}), gate: make(chan struct{})}
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

func (g *gatedFS) hold(write bool) {
	if write == g.writes && g.armed.CompareAndSwap(true, false) {
		g.entered <- struct{}{}
		<-g.gate
	}
}

func (f gatedFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.hold(false)
	return f.File.ReadAt(p, off)
}

func (f gatedFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.hold(true)
	return f.File.WriteAt(p, off)
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
	sp, g := gatedSpace(t, false)
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

// TestPinAfterSlowWriteback: a pin writing its victim back while a second
// pin loads the same page into another frame takes that frame afterwards;
// the page is never resident twice.
func TestPinAfterSlowWriteback(t *testing.T) {
	sp, g := gatedSpace(t, true)
	f := newPages(t, sp, 9)
	pool := sp.Pool()
	for pid := uint64(0); pid < 8; pid++ { // every frame holds a dirty page
		fr, _, err := pool.Pin(f, pid)
		if err != nil {
			t.Fatal(err)
		}
		pool.MarkDirty(fr)
		pool.Unpin(fr)
	}
	before := sp.Stats()
	g.armed.Store(true)
	first := pinAsync(pool, f, 8)
	<-g.entered // the first pin is writing its victim back
	b := <-pinAsync(pool, f, 8)
	close(g.gate)
	a := <-first
	if a.err != nil || b.err != nil {
		t.Fatal(a.err, b.err)
	}
	pool.Unpin(a.fr)
	pool.Unpin(b.fr)
	if a.miss || !b.miss || a.fr != b.fr || a.fr.Floats()[0] != 8 {
		t.Fatalf("misses %v, %v over frames %p, %p; want the second pin's read shared", a.miss, b.miss, a.fr, b.fr)
	}
	pool.lock()
	held := 0
	for _, fr := range pool.allFrames() {
		if fr.state != frameEmpty && fr.file == f && fr.pid == 8 {
			held++
		}
	}
	pool.unlock()
	st := sp.Stats()
	if held != 1 || st.Misses-before.Misses != 1 || st.Hits-before.Hits != 1 || st.Writeback-before.Writeback != 2 {
		t.Fatalf("page 8 in %d frames; %+v after %+v, want 1 more miss, hit and 2 writebacks", held, st, before)
	}
}

// TestOverflowUnderFullPins pins more pages than the pool has frames; the
// pool must overflow rather than deadlock, and shrink back afterwards.
func TestOverflowUnderFullPins(t *testing.T) {
	sp := openSpace(t, 512, 8)
	col, err := sp.NewColumn(60) // 1 record per 512B page
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	for s := 0; s < n; s++ {
		if err := col.Append(record(60, s)); err != nil {
			t.Fatal(err)
		}
	}
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
	if err := sp.Pool().FlushAll(); err != nil {
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
	if col2.Len() != 0 {
		t.Fatalf("fresh column has %d records", col2.Len())
	}
}

// TestRemoveColumn drops a column and proves its pool pages are gone.
func TestRemoveColumn(t *testing.T) {
	sp := openSpace(t, 512, 8)
	col, err := sp.NewColumn(4)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 100; s++ {
		if err := col.Append(record(4, s)); err != nil {
			t.Fatal(err)
		}
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

// buildAndThrash appends n records and reads them back with a stride that
// forces evict-writebacks, returning the first error.
func buildAndThrash(fsys store.FS, dir string, n int) error {
	sp, err := Open(Config{PageSize: 512, PoolPages: 8, Dir: dir, FS: fsys})
	if err != nil {
		return err
	}
	defer sp.Close()
	const w = 16
	col, err := sp.NewColumn(w)
	if err != nil {
		return err
	}
	for s := 0; s < n; s++ {
		if err := col.Append(record(w, s)); err != nil {
			return err
		}
	}
	cur := col.Reader()
	defer cur.Release()
	for s := 0; s < n; s += 29 {
		got, err := cur.At(s)
		if err != nil {
			return err
		}
		if got[0] != float64(s*1000) {
			return fmt.Errorf("slot %d: silent corruption: got %v", s, got[0])
		}
	}
	return sp.Pool().FlushAll()
}

// TestFaultSweepEvictWriteback kills the filesystem at every byte offset of
// the spill write stream — tearing file headers, page writes, and
// evict-writebacks at every possible boundary — and proves (a) the failure
// always surfaces as an error, never a panic or silent corruption, and (b)
// a fresh Space on the same directory recovers: stale spill is wiped and a
// full rebuild round-trips.
func TestFaultSweepEvictWriteback(t *testing.T) {
	const n = 400 // ~13 pages over an 8-frame pool: steady writeback traffic
	// Find the total bytes a clean run writes, to bound the sweep.
	probe := store.NewFaultFS(store.OS())
	dir := t.TempDir()
	if err := buildAndThrash(probe, dir, n); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	total := probe.BytesWritten()
	if total == 0 {
		t.Fatal("clean run wrote nothing")
	}
	step := int64(1)
	if testing.Short() || total > 4096 {
		step = total / 997 // ~1000 offsets, always hitting odd boundaries
		if step == 0 {
			step = 1
		}
	}
	for off := int64(0); off < total; off += step {
		ffs := store.NewFaultFS(store.OS())
		ffs.KillAfterBytes(off)
		dir := t.TempDir()
		err := buildAndThrash(ffs, dir, n)
		if err == nil {
			t.Fatalf("offset %d: kill did not surface", off)
		}
		if !errors.Is(err, store.ErrInjected) {
			// Secondary effects (checksum of a torn page read back) are
			// acceptable; silent corruption is not.
			if !errors.Is(err, store.ErrChecksum) && !errors.Is(err, store.ErrTruncated) {
				t.Fatalf("offset %d: unexpected error %v", off, err)
			}
		}
		// Recovery: a fresh space over the same directory (torn spill
		// files on disk) must wipe and rebuild without error.
		if err := buildAndThrash(store.OS(), dir, n); err != nil {
			t.Fatalf("offset %d: recovery failed: %v", off, err)
		}
	}
}

// TestTornPageDetected writes a page, tears its writeback mid-page, and
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
	col, err := sp.NewColumn(60) // 1 record per 512B page
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	for s := 0; s < n; s++ {
		if err := col.Append(record(60, s)); err != nil {
			t.Fatal(err)
		}
	}
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
	// A page appended with the overflow frames idle takes a frame the
	// pool still tracks, so Reset writes it back and empties it too.
	if err := col.Append(record(60, n)); err != nil {
		t.Fatal(err)
	}
	if err := sp.Pool().Reset(); err != nil {
		t.Fatal(err)
	}
	st := sp.Stats()
	if st.Hits != 0 || st.Misses != 0 || st.Evictions != 0 || st.Writeback != 0 || st.Overflows != 0 {
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
