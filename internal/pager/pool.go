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
	wait  chan struct{} // closed when a load or flush completes
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
// every file of a Space; pages are keyed by (file id, page id). Disk I/O —
// miss loads and dirty writebacks — happens outside the pool mutex, gated
// by per-frame loading/flushing states so concurrent pins of the same page
// coalesce onto one read and never observe a page mid-writeback.
type Pool struct {
	pageSize int

	mu     sync.Mutex
	table  map[pageKey]*Frame
	frames []*Frame // fixed clock ring
	extra  []*Frame // transient overflow frames, reclaimed before evicting
	hand   int

	hits, misses, evictions, writebacks, overflows uint64
}

type pageKey struct {
	file uint32
	pid  uint64
}

func newPool(pageSize, poolPages int) *Pool {
	p := &Pool{
		pageSize: pageSize,
		table:    make(map[pageKey]*Frame, poolPages),
		frames:   make([]*Frame, poolPages),
	}
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

// Pin fixes page (f, pid) in memory and returns its frame, plus whether the
// pin missed (read from disk) — the unit of real page-access accounting.
// Coalescing onto another goroutine's in-flight load counts as a hit: the
// I/O is charged to the query that initiated it. Every Pin must be paired
// with an Unpin.
func (p *Pool) Pin(f *File, pid uint64) (fr *Frame, miss bool, err error) {
	key := pageKey{f.id, pid}
	p.lock()
	for {
		fr, ok := p.table[key]
		if !ok {
			break
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
			wait := fr.wait
			p.unlock()
			<-wait
			p.lock()
		default:
			p.unlock()
			return nil, false, fmt.Errorf("pager: page (%d,%d) in unexpected state %d", f.id, pid, fr.state)
		}
	}
	p.misses++
	fr, err = p.grabFrame(key, f, pid)
	if err != nil {
		p.unlock()
		return nil, true, err
	}
	p.unlock()

	rerr := f.pf.ReadPage(pid, fr.Bytes())

	p.lock()
	close(fr.wait)
	fr.wait = nil
	if rerr != nil {
		delete(p.table, key)
		fr.state = frameEmpty
		fr.file = nil
		fr.pins = 0
		p.unlock()
		return nil, true, rerr
	}
	fr.state = frameReady
	fr.ref = true
	p.unlock()
	return fr, true, nil
}

// PinNew fixes a freshly allocated page without reading disk: the frame
// comes back zeroed, dirty, and pinned. The caller must have obtained pid
// from f.Allocate() and be its only writer.
func (p *Pool) PinNew(f *File, pid uint64) (*Frame, error) {
	key := pageKey{f.id, pid}
	p.lock()
	if _, ok := p.table[key]; ok {
		p.unlock()
		return nil, fmt.Errorf("pager: PinNew of resident page (%d,%d)", f.id, pid)
	}
	fr, err := p.grabFrame(key, f, pid)
	if err != nil {
		p.unlock()
		return nil, err
	}
	clear(fr.words)
	close(fr.wait)
	fr.wait = nil
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

// grabFrame returns a frame registered under key in state frameLoading with
// one guard pin, ready for the caller to fill. Called and returns with the
// pool locked; may unlock around victim writeback. Preference order:
// reclaim an unpinned overflow frame, clock-evict from the ring, and only
// when every fixed frame is pinned, allocate a transient overflow frame.
func (p *Pool) grabFrame(key pageKey, f *File, pid uint64) (*Frame, error) {
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
		// pins of the victim's page wait on fr.wait.
		fr.state = frameFlushing
		fr.pins = 1
		fr.wait = make(chan struct{})
		vf, vpid := fr.file, fr.pid
		p.unlock()
		werr := vf.pf.WritePage(vpid, fr.Bytes())
		p.lock()
		p.writebacks++
		close(fr.wait)
		fr.wait = nil
		fr.pins = 0
		fr.state = frameReady
		if werr != nil {
			// Keep the page resident and dirty; surface the error.
			return nil, werr
		}
		fr.dirty = false
		// Waiters woken by the close re-check the table under the lock
		// we now hold, so the frame is still ours to take.
	}
	if fr.state == frameReady {
		delete(p.table, pageKey{fr.file.id, fr.pid})
		p.evictions++
	}
	fr.file = f
	fr.pid = pid
	fr.pins = 1
	fr.dirty = false
	fr.ref = false
	fr.state = frameLoading
	fr.wait = make(chan struct{})
	p.table[key] = fr
	return fr, nil
}

// findVictim picks an evictable frame: first an unpinned overflow frame,
// then a clock scan of the ring (two sweeps: the first clears reference
// bits). Returns nil when every frame is pinned.
func (p *Pool) findVictim() *Frame {
	for i, fr := range p.extra {
		if fr.pins == 0 && (fr.state == frameReady || fr.state == frameEmpty) {
			if fr.state == frameReady && fr.dirty {
				// Dirty overflow frames still need the writeback path;
				// hand them to the caller like any dirty victim.
				return fr
			}
			// Clean: unlink from the overflow list and discard — the
			// caller gets a ring frame or a fresh one. Shrinking here
			// keeps steady-state memory at PoolPages.
			if fr.state == frameReady {
				delete(p.table, pageKey{fr.file.id, fr.pid})
				p.evictions++
			}
			p.extra[i] = p.extra[len(p.extra)-1]
			p.extra = p.extra[:len(p.extra)-1]
			return fr
		}
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
		fr.wait = make(chan struct{})
		vf, vpid := fr.file, fr.pid
		p.unlock()
		werr := vf.pf.WritePage(vpid, fr.Bytes())
		p.lock()
		p.writebacks++
		close(fr.wait)
		fr.wait = nil
		fr.pins--
		fr.state = frameReady
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
rescan:
	for {
		for _, fr := range p.allFrames() {
			if fr.state == frameEmpty || fr.file != f {
				continue
			}
			if fr.state == frameFlushing || fr.state == frameLoading {
				wait := fr.wait
				p.unlock()
				<-wait
				p.lock()
				continue rescan
			}
			if fr.pins != 0 {
				return fmt.Errorf("pager: dropping file %d with page %d pinned", f.id, fr.pid)
			}
		}
		break
	}
	for _, fr := range p.allFrames() {
		if fr.state != frameEmpty && fr.file == f {
			delete(p.table, pageKey{fr.file.id, fr.pid})
			fr.state = frameEmpty
			fr.file = nil
			fr.dirty = false
			fr.ref = false
		}
	}
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
			delete(p.table, pageKey{fr.file.id, fr.pid})
			fr.state = frameEmpty
			fr.file = nil
			fr.dirty = false
			fr.ref = false
		}
	}
	p.extra = nil
	p.hits, p.misses, p.evictions, p.writebacks, p.overflows = 0, 0, 0, 0, 0
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
