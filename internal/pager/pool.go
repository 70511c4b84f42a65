package pager

import (
	"encoding/json"
	"fmt"
	"sync"
	"unsafe"

	"warping/internal/store"
)

// Frame is one pooled page. A pinned frame's memory is stable: it cannot be
// evicted or repurposed until every pin is released. Accessors expose the
// payload (the page minus its 16-byte checksum header) as bytes, words, or
// float64s; the frame arena is 8-aligned, so the reinterpretations are safe.
type Frame struct {
	words []uint64 // full page, pageSize/8 words
	file  *File
	pid   uint64
	pins  int
	dirty bool
	ref   bool // clock reference bit
	state uint8
}

const (
	frameEmpty uint8 = iota
	frameLoading
	frameReady
	frameFlushing
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
	Resident  int    `json:"resident"`   // frames holding a valid page
	Pinned    int    `json:"pinned"`     // frames with at least one pin
	Hits      uint64 `json:"hits"`       // pins served from the pool
	Misses    uint64 `json:"misses"`     // pins that read from disk
	Waits     uint64 `json:"waits"`      // pins that waited out another pin's load or a writeback (counted as hits too)
	Evictions uint64 `json:"evictions"`  // resident pages discarded for reuse
	Writeback uint64 `json:"writebacks"` // dirty pages written to disk
	Overflows uint64 `json:"overflows"`  // transient frames allocated with all pinned
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

// Pool is a fixed-capacity buffer pool with clock eviction. One pool serves
// every file of a Space; each File holds the table of its resident frames,
// indexed by page id. Disk I/O — miss loads and dirty writebacks — happens
// outside the pool mutex, gated by per-frame loading/flushing states, so
// concurrent pins of the same page coalesce onto one read and never observe
// a page mid-writeback: they wait on moved and look again.
type Pool struct {
	pageSize int

	mu     sync.Mutex
	moved  sync.Cond // on mu; broadcast when a load or flush completes
	frames []*Frame  // fixed clock ring
	extra  []*Frame  // transient overflow frames, reclaimed before evicting
	hand   int

	hits, misses, waits, evictions, writebacks, overflows uint64
}

func newPool(pageSize, poolPages int) *Pool {
	p := &Pool{
		pageSize: pageSize,
		frames:   make([]*Frame, poolPages),
	}
	p.moved.L = &p.mu
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

// inRange refuses a page id the file never allocated before it can size
// the frame table.
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
// paired with an Unpin.
func (p *Pool) Pin(f *File, pid uint64) (fr *Frame, miss bool, err error) {
	if err := f.inRange(pid); err != nil {
		return nil, false, err
	}
	p.lock()
	waited := false
	for {
		if fr = f.frame(pid); fr == nil {
			// grabFrame may drop the lock to write a dirty victim back; if
			// another pin claimed the page meanwhile, it hands back nothing
			// and the page is looked up again.
			if fr, err = p.grabFrame(f, pid); fr != nil || err != nil {
				break
			}
			continue
		}
		switch fr.state {
		case frameReady:
			fr.pins++
			fr.ref = true
			p.hits++
			p.unlock()
			return fr, false, nil
		case frameLoading, frameFlushing:
			// Another goroutine is moving this page; wait and re-check.
			if !waited {
				p.waits++
				waited = true
			}
			p.moved.Wait()
		default:
			p.unlock()
			return nil, false, fmt.Errorf("pager: page (%d,%d) in unexpected state %d", f.id, pid, fr.state)
		}
	}
	p.misses++
	p.unlock()
	if err != nil {
		return nil, true, err
	}

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
	p.moved.Broadcast()
	p.unlock()
	if rerr != nil {
		return nil, true, rerr
	}
	return fr, true, nil
}

// PinNew fixes a freshly allocated page without reading disk: the frame
// comes back zeroed, dirty, and pinned. The caller must have obtained pid
// from f.Allocate() and be its only writer.
func (p *Pool) PinNew(f *File, pid uint64) (*Frame, error) {
	if err := f.inRange(pid); err != nil {
		return nil, err
	}
	p.lock()
	var fr *Frame
	var err error
	if f.frame(pid) == nil {
		fr, err = p.grabFrame(f, pid)
	}
	if fr == nil {
		p.unlock()
		if err == nil {
			err = fmt.Errorf("pager: PinNew of resident page (%d,%d)", f.id, pid)
		}
		return nil, err
	}
	clear(fr.words)
	fr.state = frameReady
	fr.ref = true
	fr.dirty = true
	p.unlock()
	return fr, nil
}

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

// MarkDirty flags a pinned frame's page for writeback before eviction.
func (p *Pool) MarkDirty(fr *Frame) {
	p.lock()
	fr.dirty = true
	p.unlock()
}

// grabFrame returns a frame registered as page (f, pid) in state
// frameLoading with one guard pin, ready for the caller to fill. Called and
// returns with the pool locked; may unlock around victim writeback, and
// returns (nil, nil) when another pin registered the page meanwhile.
// Preference order: findVictim's pick, and only when every frame is pinned,
// a new transient overflow frame.
func (p *Pool) grabFrame(f *File, pid uint64) (*Frame, error) {
	fr := p.findVictim()
	if fr == nil {
		// Every frame pinned: allocate a transient frame rather than
		// deadlock. It joins the reclaim list and shrinks back under
		// pool pressure.
		p.overflows++
		fr = &Frame{words: make([]uint64, p.pageSize/8)}
		p.extra = append(p.extra, fr)
	}
	if fr.state == frameReady && fr.dirty {
		// Write the victim back outside the lock. The flushing state
		// plus guard pin keep it out of other scans, and concurrent
		// pins of the victim's page wait on moved.
		fr.state = frameFlushing
		fr.pins = 1
		vf, vpid := fr.file, fr.pid
		p.unlock()
		werr := vf.pf.WritePage(vpid, fr.Bytes())
		p.lock()
		p.writebacks++
		fr.pins = 0
		fr.state = frameReady
		p.moved.Broadcast()
		if werr != nil {
			// Keep the page resident and dirty; surface the error.
			return nil, werr
		}
		fr.dirty = false
		if f.frame(pid) != nil {
			// The victim stays resident, now clean, for a later scan.
			return nil, nil
		}
		// Waiters woken by the broadcast re-check under the lock we now
		// hold, so the frame is still ours to take.
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
	fr.dirty = false
	fr.ref = false
	fr.state = frameLoading
	return fr, nil
}

// findVictim picks an evictable frame: first a dirty unpinned overflow
// frame (it needs the writeback path), then a clock scan of the ring (two
// sweeps: the first clears reference bits). Clean unpinned overflow frames
// it meets are discarded, which keeps steady-state memory at PoolPages.
// Returns nil when every frame is pinned.
func (p *Pool) findVictim() *Frame {
	for i := 0; i < len(p.extra); {
		fr := p.extra[i]
		if fr.pins != 0 || (fr.state != frameReady && fr.state != frameEmpty) {
			i++
			continue
		}
		if fr.state == frameReady && fr.dirty {
			return fr
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
		if fr.pins != 0 || (fr.state != frameReady && fr.state != frameEmpty) {
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

// FlushAll writes back every dirty resident page of every file.
func (p *Pool) FlushAll() error {
	p.lock()
	var first error
	for _, fr := range p.allFrames() {
		if fr.state != frameReady || !fr.dirty {
			continue
		}
		fr.state = frameFlushing
		fr.pins++
		vf, vpid := fr.file, fr.pid
		p.unlock()
		werr := vf.pf.WritePage(vpid, fr.Bytes())
		p.lock()
		p.writebacks++
		fr.pins--
		fr.state = frameReady
		p.moved.Broadcast()
		if werr != nil {
			if first == nil {
				first = werr
			}
			continue
		}
		fr.dirty = false
	}
	p.unlock()
	return first
}

// dropFile discards every resident page of f without writeback. The caller
// guarantees no page of f is pinned, but an eviction-writeback of an f page
// (triggered by any other pool user) may be in flight — those are waited
// out, not errors.
func (p *Pool) dropFile(f *File) error {
	p.lock()
	defer p.unlock()
	for busy := true; busy; {
		busy = false
		for _, fr := range f.frames {
			if fr == nil {
				continue
			}
			if fr.state == frameFlushing || fr.state == frameLoading {
				busy = true
				break
			}
			if fr.pins != 0 {
				return fmt.Errorf("pager: dropping file %d with page %d pinned", f.id, fr.pid)
			}
		}
		if busy {
			p.moved.Wait()
		}
	}
	for _, fr := range f.frames {
		if fr != nil {
			fr.state = frameEmpty
			fr.file = nil
			fr.dirty = false
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

// Reset flushes all dirty pages and then empties the pool — every later pin
// is a cold miss — and zeroes every stat counter (overflows included), so a
// benchmark that reuses the pool starts from a clean stat baseline. Fails
// if any page is pinned.
func (p *Pool) Reset() error {
	if err := p.FlushAll(); err != nil {
		return err
	}
	p.lock()
	defer p.unlock()
	all := p.allFrames()
	for _, fr := range all {
		if fr.state == frameEmpty {
			continue
		}
		if fr.pins != 0 || fr.state != frameReady {
			return fmt.Errorf("pager: Reset with page (%d,%d) pinned", fr.file.id, fr.pid)
		}
	}
	for _, fr := range all {
		if fr.state != frameEmpty {
			fr.file.frames[fr.pid] = nil
			fr.state = frameEmpty
			fr.file = nil
			fr.dirty = false
			fr.ref = false
		}
	}
	p.extra = nil
	p.hits, p.misses, p.waits, p.evictions, p.writebacks, p.overflows = 0, 0, 0, 0, 0, 0
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
		Writeback: p.writebacks,
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
