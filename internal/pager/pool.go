package pager

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"warping/internal/store"
)

// Frame is one pooled page, or a page buffer a file's builder fills before
// File.AppendPage writes it (Space.NewPage). A pinned frame's memory is
// stable: it cannot be evicted or repurposed until every pin is released.
// Accessors expose the payload (the page minus its 16-byte checksum header)
// as bytes, words, or float64s; the frame arena is 8-aligned, so the
// reinterpretations are safe. A pooled frame is never written: pages do not
// change once on disk, so evicting one discards it.
type Frame struct {
	words []uint64 // full page, pageSize/8 words
	// word packs the frame's state (bits 0–1), its generation (bits 2–31,
	// bumped by every move out of ready or empty) and its pin count (bits
	// 32–63), so one CAS pins a ready frame and one CAS evicts an unpinned
	// one, and a hit and an eviction cannot both win.
	word atomic.Uint64
	// file and pid name the page the frame holds. They change only while
	// the frame is not ready — empty, or loading under its loader's pin —
	// under the pool mutex.
	file atomic.Pointer[File]
	pid  atomic.Uint64
	ref  atomic.Bool   // clock reference bit
	hits atomic.Uint64 // pins served from this frame without the mutex
}

const (
	frameEmpty uint64 = iota
	frameLoading
	frameReady
)

const (
	stateMask = 1<<2 - 1
	genOne    = 1 << 2
	genMask   = 1<<32 - genOne
	pinOne    = 1 << 32
)

func frameState(w uint64) uint64 { return w & stateMask }
func framePins(w uint64) uint64  { return w >> 32 }

const headerWords = store.PageHeaderSize / 8

// Bytes returns the full page including its header (for codec-level work).
func (fr *Frame) Bytes() []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(&fr.words[0])), len(fr.words)*8)
}

// Words returns the page payload as uint64 words.
func (fr *Frame) Words() []uint64 { return fr.words[headerWords:] }

// Uint32s returns the page payload as 32-bit words: 2i and 2i+1 share
// word i of Words.
func (fr *Frame) Uint32s() []uint32 {
	w := fr.words[headerWords:]
	return unsafe.Slice((*uint32)(unsafe.Pointer(&w[0])), 2*len(w))
}

// Stats is a point-in-time snapshot of pool counters, and the /stats
// "buffer_pool" section as it stands. Misses are real disk reads — the
// physical counterpart of the per-query logical_pages counter.
type Stats struct {
	PageSize  int    `json:"page_size"`
	PoolPages int    `json:"pool_pages"`
	Resident  int    `json:"resident"`  // frames holding a valid page
	Pinned    int    `json:"pinned"`    // frames with at least one pin
	Hits      uint64 `json:"hits"`      // pins served from the pool
	Misses    uint64 `json:"misses"`    // pins that read from disk
	Waits     uint64 `json:"waits"`     // pins that waited out another pin's load (counted as hits too)
	Evictions uint64 `json:"evictions"` // resident pages discarded for reuse
	Overflows uint64 `json:"overflows"` // transient frames allocated with all pinned
}

// HitRate returns hits/(hits+misses), or 0 when the pool is untouched: a
// monitoring surface must not claim a perfect rate (or NaN) before the
// first lookup.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// MarshalJSON adds the derived "hit_rate" to the counters.
func (s Stats) MarshalJSON() ([]byte, error) {
	type counters Stats
	return json.Marshal(struct {
		counters
		HitRate float64 `json:"hit_rate"`
	}{counters(s), s.HitRate()})
}

// Pool is a fixed-capacity read cache with clock eviction. One pool serves
// every file of a Space; each File holds the table of its resident frames,
// indexed by page id. The pool only reads: a page reaches disk through
// File.AppendPage, before any pin of it, and never changes after, so no
// frame is dirty and an evicted page is simply dropped.
//
// Concurrency contract. Pin, Unpin and Stats may be called from any number
// of goroutines. A hit takes no lock and writes no pool-wide word: it loads
// the frame from the file's table (an atomic pointer to a slice of atomic
// frame pointers, grown copy-on-write under the mutex), checks that the
// frame's word says ready and that the frame still maps (file, pid), and
// CASes that same word to one more pin, so a frame that was evicted or
// reloaded in between — its generation moved — fails the CAS and the pin
// takes the slow path. The mapping is checked before the CAS, not after it,
// so not even a passing pin lands on a frame that holds another page:
// dropFile and Reset see only real pins. A hit is counted in its frame. Unpin is one atomic
// decrement. Misses, the clock, Reset, dropFile and Stats hold the mutex.
// An eviction CASes (ready or empty, no pins) to (loading, the loader's
// pin, next generation), so a pinned frame is never repurposed. A miss
// reads its page outside the mutex, gated by the frame's loading state, so
// concurrent pins of the same page coalesce onto one read: they wait on
// loaded and look again.
type Pool struct {
	pageSize int

	mu     sync.Mutex
	loaded sync.Cond // on mu; broadcast when a load completes
	frames []*Frame  // fixed clock ring
	extra  []*Frame  // transient overflow frames, reclaimed before evicting
	hand   int

	// hits counts the slow path's hits plus those of discarded overflow
	// frames; Stats adds every live frame's own count.
	hits, misses, waits, evictions, overflows uint64
}

func newPool(pageSize, poolPages int) *Pool {
	p := &Pool{
		pageSize: pageSize,
		frames:   make([]*Frame, poolPages),
	}
	p.loaded.L = &p.mu
	// One aligned arena for all fixed frames; a []uint64 backing guarantees
	// 8-byte alignment for the float64 reinterpretation.
	words := pageSize / 8
	arena := make([]uint64, words*poolPages)
	for i := range p.frames {
		p.frames[i] = &Frame{words: arena[i*words : (i+1)*words : (i+1)*words]}
	}
	return p
}

// frameTable maps a file's page ids to the frames holding them.
type frameTable []atomic.Pointer[Frame]

// frame returns the frame the table names for page pid of f, or nil.
func (f *File) frame(pid uint64) *Frame {
	if t := f.table.Load(); t != nil && pid < uint64(len(*t)) {
		return (*t)[pid].Load()
	}
	return nil
}

// setFrame names fr as the frame of page pid of f, growing the table by a
// copy when pid is past its end. Pool locked.
func (f *File) setFrame(pid uint64, fr *Frame) {
	t := f.table.Load()
	if t == nil || pid >= uint64(len(*t)) {
		if fr == nil {
			return
		}
		n := max(f.NumPages(), pid+1)
		if t != nil {
			n = max(n, 2*uint64(len(*t)))
		}
		grown := make(frameTable, n)
		if t != nil {
			for i := range *t {
				grown[i].Store((*t)[i].Load())
			}
		}
		t = &grown
		f.table.Store(t)
	}
	(*t)[pid].Store(fr)
}

// inRange refuses a page id the file never wrote before it can size the
// frame table.
func (f *File) inRange(pid uint64) error {
	if n := f.NumPages(); pid >= n {
		return fmt.Errorf("pager: page (%d,%d) out of range (%d pages)", f.id, pid, n)
	}
	return nil
}

// Pin fixes page (f, pid) in memory and returns its frame, plus whether the
// pin missed (read from disk) — the unit of real page-access accounting.
// Coalescing onto another goroutine's in-flight load counts as a hit and a
// wait: the I/O is charged to the query that initiated it. Every Pin must be
// paired with an Unpin, and a pinned frame is read, never written.
func (p *Pool) Pin(f *File, pid uint64) (fr *Frame, miss bool, err error) {
	if fr := f.pinResident(pid); fr != nil {
		return fr, false, nil
	}
	return p.pinSlow(f, pid)
}

// pinResident pins page pid of f if a ready frame holds it, without the
// pool mutex, and returns nil otherwise.
func (f *File) pinResident(pid uint64) *Frame {
	fr := f.frame(pid)
	if fr == nil {
		return nil
	}
	for {
		w := fr.word.Load()
		if frameState(w) != frameReady || fr.file.Load() != f || fr.pid.Load() != pid {
			return nil
		}
		// The mapping read above belongs to w's generation unless the frame
		// left ready since, and then the word moved and the CAS fails.
		if fr.word.CompareAndSwap(w, w+pinOne) {
			break
		}
	}
	if !fr.ref.Load() {
		fr.ref.Store(true)
	}
	fr.hits.Add(1)
	return fr
}

// pinSlow is Pin under the mutex: a page another pin is loading is waited
// for, and a page no frame holds is read into a frame grabFrame frees.
func (p *Pool) pinSlow(f *File, pid uint64) (*Frame, bool, error) {
	if err := f.inRange(pid); err != nil {
		return nil, false, err
	}
	p.mu.Lock()
	waited := false
	for fr := f.frame(pid); fr != nil; fr = f.frame(pid) {
		if frameState(fr.word.Load()) == frameReady {
			// Under the mutex a ready frame stays ready; only its pins move.
			fr.word.Add(pinOne)
			fr.ref.Store(true)
			p.hits++
			p.mu.Unlock()
			return fr, false, nil
		}
		// Another pin is reading this page; wait and look again.
		if !waited {
			p.waits++
			waited = true
		}
		p.loaded.Wait()
	}
	fr := p.grabFrame(f, pid)
	p.misses++
	p.mu.Unlock()

	rerr := f.pf.ReadPage(pid, fr.Bytes())

	p.mu.Lock()
	if rerr != nil {
		f.setFrame(pid, nil)
		fr.file.Store(nil)
		fr.word.Store(fr.word.Load()&genMask | frameEmpty)
	} else {
		fr.ref.Store(true)
		fr.word.Add(frameReady - frameLoading)
	}
	p.loaded.Broadcast()
	p.mu.Unlock()
	if rerr != nil {
		return nil, true, rerr
	}
	return fr, true, nil
}

// PinNew writes page pid of f, which the caller took from f.Allocate, as a
// zeroed page and pins it; the frame must not be written. Only the frozen
// benchmark harness calls it (bench/sut.go fills a probe file with it);
// ROADMAP item 2(a) drops it with that call. Builders use AppendPage.
func (p *Pool) PinNew(f *File, pid uint64) (*Frame, error) {
	if err := f.pf.WritePage(pid, make([]byte, p.pageSize)); err != nil {
		return nil, err
	}
	fr, _, err := p.Pin(f, pid)
	return fr, err
}

// FlushAll does nothing: the pool never holds a page disk does not. The
// frozen benchmark harness still calls it (bench/sut.go); ROADMAP item 2(a)
// drops it with that call.
func (p *Pool) FlushAll() error { return nil }

// Unpin releases one pin.
func (p *Pool) Unpin(fr *Frame) {
	if w := fr.word.Add(^uint64(pinOne - 1)); int64(w) < 0 {
		fr.word.Add(pinOne)
		panic("pager: Unpin of unpinned frame")
	}
}

// evict takes fr, whose word was w, out of service if w holds no pin (a
// loading frame holds its loader's): one CAS to state with pins pins and the
// next generation. It fails when a pin came first. A ready frame's page
// leaves its file's table. Pool locked.
func (p *Pool) evict(fr *Frame, w, state, pins uint64) bool {
	if framePins(w) != 0 || !fr.word.CompareAndSwap(w, pins*pinOne|(w+genOne)&genMask|state) {
		return false
	}
	if frameState(w) == frameReady {
		fr.file.Load().setFrame(fr.pid.Load(), nil)
		fr.file.Store(nil)
	}
	fr.ref.Store(false)
	return true
}

// grabFrame returns a frame registered as page (f, pid) in state
// frameLoading with the caller's pin, ready for the caller to fill: the
// victim findVictim picks, or only when every frame is pinned, a new
// transient overflow frame. Pool locked.
func (p *Pool) grabFrame(f *File, pid uint64) *Frame {
	fr := p.findVictim()
	if fr == nil {
		// Every frame pinned: allocate a transient frame rather than
		// deadlock. It joins the reclaim list and shrinks back under
		// pool pressure.
		p.overflows++
		fr = &Frame{words: make([]uint64, p.pageSize/8)}
		fr.word.Store(pinOne | frameLoading)
		p.extra = append(p.extra, fr)
	}
	fr.file.Store(f)
	fr.pid.Store(pid)
	f.setFrame(pid, fr)
	return fr
}

// findVictim picks an evictable frame by a clock scan of the ring (two
// sweeps: the first clears reference bits), after discarding every
// unpinned overflow frame, which keeps steady-state memory at PoolPages. A
// loading frame carries its loader's pin, so only empty and ready frames
// qualify. The frame it returns is evicted to loading with one pin. Returns
// nil when every frame is pinned.
func (p *Pool) findVictim() *Frame {
	for i := 0; i < len(p.extra); {
		fr := p.extra[i]
		w := fr.word.Load()
		if !p.evict(fr, w, frameEmpty, 0) {
			i++
			continue
		}
		if frameState(w) == frameReady {
			p.evictions++
		}
		p.hits += fr.hits.Load()
		p.extra[i] = p.extra[len(p.extra)-1]
		p.extra[len(p.extra)-1] = nil
		p.extra = p.extra[:len(p.extra)-1]
	}
	n := len(p.frames)
	for scanned := 0; scanned < 2*n; scanned++ {
		fr := p.frames[p.hand]
		p.hand = (p.hand + 1) % n
		w := fr.word.Load()
		if framePins(w) != 0 {
			continue
		}
		if fr.ref.Load() {
			fr.ref.Store(false)
			continue
		}
		if p.evict(fr, w, frameLoading, 1) {
			if frameState(w) == frameReady {
				p.evictions++
			}
			return fr
		}
	}
	return nil
}

// dropFile discards every resident page of f. The caller guarantees that no
// page of f is pinned, and so that none is loading; a pinned page fails it.
func (p *Pool) dropFile(f *File) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	t := f.table.Load()
	if t == nil {
		return nil
	}
	for pid := range *t {
		if fr := (*t)[pid].Load(); fr != nil && !p.evict(fr, fr.word.Load(), frameEmpty, 0) {
			return fmt.Errorf("pager: dropping file %d with page %d pinned", f.id, pid)
		}
	}
	f.table.Store(nil)
	return nil
}

// allFrames returns the ring plus overflow frames; call with the pool locked.
func (p *Pool) allFrames() []*Frame {
	all := make([]*Frame, 0, len(p.frames)+len(p.extra))
	all = append(all, p.frames...)
	all = append(all, p.extra...)
	return all
}

// Reset empties the pool — every later pin is a cold miss — and zeroes every
// stat counter (overflows included), so a benchmark that reuses the pool
// starts from a clean stat baseline. Fails if any page is pinned.
func (p *Pool) Reset() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	all := p.allFrames()
	for _, fr := range all {
		if w := fr.word.Load(); framePins(w) != 0 {
			return fmt.Errorf("pager: Reset with page (%d,%d) pinned", fr.file.Load().id, fr.pid.Load())
		}
	}
	for _, fr := range all {
		if w := fr.word.Load(); frameState(w) != frameEmpty && !p.evict(fr, w, frameEmpty, 0) {
			return fmt.Errorf("pager: Reset with page (%d,%d) pinned", fr.file.Load().id, fr.pid.Load())
		}
		fr.hits.Store(0)
	}
	p.extra = nil
	p.hits, p.misses, p.waits, p.evictions, p.overflows = 0, 0, 0, 0, 0
	return nil
}

// Stats snapshots the counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := Stats{
		PageSize:  p.pageSize,
		PoolPages: len(p.frames),
		Hits:      p.hits,
		Misses:    p.misses,
		Waits:     p.waits,
		Evictions: p.evictions,
		Overflows: p.overflows,
	}
	for _, fr := range p.allFrames() {
		w := fr.word.Load()
		if frameState(w) != frameEmpty {
			s.Resident++
		}
		if framePins(w) > 0 {
			s.Pinned++
		}
		s.Hits += fr.hits.Load()
	}
	return s
}
