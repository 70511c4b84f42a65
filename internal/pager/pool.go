package pager

import (
	"encoding/json"
	"fmt"
	"sync"
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
	file  *File
	pid   uint64
	pins  int
	ref   bool // clock reference bit
	state uint8
}

const (
	frameEmpty uint8 = iota
	frameLoading
	frameReady
)

const headerWords = store.PageHeaderSize / 8

// Bytes returns the full page including its header (for codec-level work).
func (fr *Frame) Bytes() []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(&fr.words[0])), len(fr.words)*8)
}

// Words returns the page payload as uint64 words.
func (fr *Frame) Words() []uint64 { return fr.words[headerWords:] }

// Floats returns the page payload as float64s.
func (fr *Frame) Floats() []float64 {
	w := fr.words[headerWords:]
	return unsafe.Slice((*float64)(unsafe.Pointer(&w[0])), len(w))
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
// frame is dirty and an evicted page is simply dropped. A miss reads its page
// outside the pool mutex, gated by the frame's loading state, so concurrent
// pins of the same page coalesce onto one read: they wait on loaded and look
// again.
type Pool struct {
	pageSize int

	mu     sync.Mutex
	loaded sync.Cond // on mu; broadcast when a load completes
	frames []*Frame  // fixed clock ring
	extra  []*Frame  // transient overflow frames, reclaimed before evicting
	hand   int

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

func (p *Pool) lock()   { p.mu.Lock() }
func (p *Pool) unlock() { p.mu.Unlock() }

// frame returns the frame holding page pid of f, or nil. Pool locked.
func (f *File) frame(pid uint64) *Frame {
	if pid < uint64(len(f.frames)) {
		return f.frames[pid]
	}
	return nil
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
	if err := f.inRange(pid); err != nil {
		return nil, false, err
	}
	p.lock()
	waited := false
	for fr = f.frame(pid); fr != nil && fr.state == frameLoading; fr = f.frame(pid) {
		// Another pin is reading this page; wait and look again.
		if !waited {
			p.waits++
			waited = true
		}
		p.loaded.Wait()
	}
	if fr != nil {
		fr.pins++
		fr.ref = true
		p.hits++
		p.unlock()
		return fr, false, nil
	}
	fr = p.grabFrame(f, pid)
	p.misses++
	p.unlock()

	rerr := f.pf.ReadPage(pid, fr.Bytes())

	p.lock()
	if rerr != nil {
		f.frames[pid] = nil
		fr.state = frameEmpty
		fr.file = nil
		fr.pins = 0
	} else {
		fr.state = frameReady
		fr.ref = true
	}
	p.loaded.Broadcast()
	p.unlock()
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
	p.lock()
	if fr.pins <= 0 {
		p.unlock()
		panic("pager: Unpin of unpinned frame")
	}
	fr.pins--
	p.unlock()
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
		p.extra = append(p.extra, fr)
	}
	if fr.state == frameReady {
		fr.file.frames[fr.pid] = nil
		p.evictions++
	}
	for uint64(len(f.frames)) <= pid {
		f.frames = append(f.frames, nil)
	}
	f.frames[pid] = fr
	fr.file = f
	fr.pid = pid
	fr.pins = 1
	fr.ref = false
	fr.state = frameLoading
	return fr
}

// findVictim picks an evictable frame by a clock scan of the ring (two
// sweeps: the first clears reference bits), after discarding every
// unpinned overflow frame, which keeps steady-state memory at PoolPages. A
// loading frame carries its loader's pin, so only empty and ready frames
// qualify. Returns nil when every frame is pinned.
func (p *Pool) findVictim() *Frame {
	for i := 0; i < len(p.extra); {
		fr := p.extra[i]
		if fr.pins != 0 {
			i++
			continue
		}
		if fr.state == frameReady {
			fr.file.frames[fr.pid] = nil
			fr.state = frameEmpty
			fr.file = nil
			p.evictions++
		}
		p.extra[i] = p.extra[len(p.extra)-1]
		p.extra[len(p.extra)-1] = nil
		p.extra = p.extra[:len(p.extra)-1]
	}
	n := len(p.frames)
	for scanned := 0; scanned < 2*n; scanned++ {
		fr := p.frames[p.hand]
		p.hand = (p.hand + 1) % n
		if fr.pins != 0 {
			continue
		}
		if fr.ref {
			fr.ref = false
			continue
		}
		return fr
	}
	return nil
}

// dropFile discards every resident page of f. The caller guarantees that no
// page of f is pinned, and so that none is loading.
func (p *Pool) dropFile(f *File) error {
	p.lock()
	defer p.unlock()
	for _, fr := range f.frames {
		if fr != nil && fr.pins != 0 {
			return fmt.Errorf("pager: dropping file %d with page %d pinned", f.id, fr.pid)
		}
	}
	for _, fr := range f.frames {
		if fr != nil {
			fr.state = frameEmpty
			fr.file = nil
			fr.ref = false
		}
	}
	f.frames = nil
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
	p.lock()
	defer p.unlock()
	all := p.allFrames()
	for _, fr := range all {
		if fr.pins != 0 {
			return fmt.Errorf("pager: Reset with page (%d,%d) pinned", fr.file.id, fr.pid)
		}
	}
	for _, fr := range all {
		if fr.state != frameEmpty {
			fr.file.frames[fr.pid] = nil
			fr.state = frameEmpty
			fr.file = nil
			fr.ref = false
		}
	}
	p.extra = nil
	p.hits, p.misses, p.waits, p.evictions, p.overflows = 0, 0, 0, 0, 0
	return nil
}

// Stats snapshots the counters.
func (p *Pool) Stats() Stats {
	p.lock()
	defer p.unlock()
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
		if fr.state != frameEmpty {
			s.Resident++
		}
		if fr.pins > 0 {
			s.Pinned++
		}
	}
	return s
}
