package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call. All spans of one query share its number. Work
// that cannot be seen from outside a call (the envelope inside NewPlan, the
// kernels inside KNNPlan, everything inside QueryCtx) is executed again
// standalone on the same inputs and attached as a child flagged replayed;
// such a child starts, by convention, where its parent starts.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a request
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Workload string `json:"workload"`
	Query    int    `json:"query"`
	Replayed bool   `json:"replayed,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	workload string
	origin   time.Time
	spans    []span
}

func (t *tracer) add(parent int, name string, query int, start time.Time, d time.Duration, replayed bool) int {
	s := start.Sub(t.origin).Nanoseconds()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, StartNS: s, EndNS: s + d.Nanoseconds(),
		Workload: t.workload, Query: query, Replayed: replayed})
	return len(t.spans) - 1
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// selfTimes sums, per span name, duration minus the children's durations
// (never below zero: a replayed child can run longer than the original).
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		self[baseName(s.Name)] += time.Duration(max(s.EndNS-s.StartNS-child[s.ID], 0))
	}
	return self
}

// baseName drops the "#round" suffix of per-round spans.
func baseName(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '#' {
			return name[:i]
		}
	}
	return name
}

// layerTimes is what the traced run measured, summed over its queries.
type layerTimes struct {
	queries int

	serial, httpBase           time.Duration // the same hums over HTTP, one at a time; and GET /healthz
	plain                      time.Duration // the in-process request with tracing off
	request                    time.Duration // the same with tracing on
	decode                     time.Duration // pitch workloads: JSON body to pitch series
	wavDecode, audioTrack      time.Duration
	qbhQuery                   time.Duration
	normalize, plan            time.Duration // replays, from here down
	envelope, apply            time.Duration
	knn                        time.Duration
	rounds                     int
	cacheHits                  int
	cacheHit                   time.Duration
	kernels                    kernelCost
	kernelEstimate, pagedRange time.Duration // Σ response stage count × unit cost; paged range searches
}

// tracedRun is one traced pass over the first n pool hums.
type tracedRun struct {
	e  *env
	w  workload
	tw *twin
	hs *humSet
	ft *featureTree
	pp *pagedProbe // nil unless the workload is paged
	ck *checker
	tr *tracer
	// the child's base URL and the query path with its parameters
	base, query string
}

// request performs, in this process, the calls the child's handler makes
// for hum h. With tr nil nothing is recorded.
func (t *tracedRun) request(h *humQuery, qi int, tr *tracer, lt *layerTimes) (pitch []float64, ctr queryCounters, qs int, err error) {
	start := time.Now()
	root := -1
	if tr != nil {
		root = tr.add(-1, "request", qi, start, 0, false)
	}
	step := func(name string, sum *time.Duration, fn func() error) error {
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		if tr != nil {
			*sum += d
			qs = tr.add(root, name, qi, t0, d, false)
		}
		return err
	}
	if t.w.wav {
		var samples []float64
		var rate int
		if err = step("wav.decode", &lt.wavDecode, func() (err error) { samples, rate, err = decodeWAV(h.body); return }); err != nil {
			return
		}
		_ = step("audio.track", &lt.audioTrack, func() error { pitch = trackPitch(samples, rate); return nil })
	} else if err = step("server.decode", &lt.decode, func() (err error) { pitch, err = decodePitchBody(h.body); return }); err != nil {
		return
	}
	err = step("qbh.query", &lt.qbhQuery, func() (err error) { ctr, err = t.tw.query(pitch); return })
	total := time.Since(start)
	if tr == nil {
		lt.plain += total
		return
	}
	lt.request += total
	tr.spans[root].EndNS = tr.spans[root].StartNS + total.Nanoseconds()
	return
}

// run makes four passes over the first n pool hums, each pass back to back
// so the child and the twin stay as warm as they are under load: over HTTP
// to the child one request at a time, a bare GET beside each for the cost
// of the HTTP hop itself; in process untraced; in process traced; and the
// standalone replays of the steps hidden inside the traced calls.
func (t *tracedRun) run(n int) (layerTimes, error) {
	lt := layerTimes{queries: n}
	hum := func(qi int) (*humQuery, int) { return &t.hs.pool[qi%len(t.hs.pool)], qi % len(t.hs.pool) }
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	for qi := 0; qi < n; qi++ {
		t0 := time.Now()
		resp, err := hc.Get(t.base + "/healthz")
		if err != nil {
			return lt, err
		}
		resp.Body.Close()
		lt.httpBase += time.Since(t0)
		h, idx := hum(qi)
		_, lat, _ := t.ck.query(hc, t.base+t.query, h, idx)
		lt.serial += lat
	}
	for qi := 0; qi < n; qi++ {
		h, _ := hum(qi)
		if _, _, _, err := t.request(h, qi, nil, &lt); err != nil {
			return lt, err
		}
	}
	type done struct {
		pitch []float64
		ctr   queryCounters
		qs    int
	}
	traced := make([]done, n)
	for qi := range traced {
		h, _ := hum(qi)
		var err error
		d := &traced[qi]
		if d.pitch, d.ctr, d.qs, err = t.request(h, qi, t.tr, &lt); err != nil {
			return lt, err
		}
	}
	for qi, d := range traced {
		qs := t.tr.spans[d.qs]
		start := t.tr.origin.Add(time.Duration(qs.StartNS))
		t.tr.add(qs.Parent, "server.http", qi, start, lt.httpBase/time.Duration(n), true)
		if d.ctr.cached {
			lt.cacheHits++
			lt.cacheHit += time.Duration(qs.EndNS - qs.StartNS)
		}
		if err := t.replay(d.pitch, d.ctr, qi, d.qs, start, &lt); err != nil {
			return lt, err
		}
	}
	return lt, nil
}

// replay re-executes the steps QueryCtx took, one by one, and attaches
// them under its span qs.
func (t *tracedRun) replay(pitch []float64, ctr queryCounters, qi, qs int, start time.Time, lt *layerTimes) error {
	tr, tw := t.tr, t.tw
	r0 := time.Now()
	q := tw.normalize(pitch)
	d := time.Since(r0)
	lt.normalize += d
	tr.add(qs, "ts.normalize", qi, start, d, true)
	qp, dPlan, err := tw.plan(q)
	if err != nil {
		return err
	}
	lt.plan += dPlan
	lt.envelope += qp.envelope
	lt.apply += qp.apply
	ps := tr.add(qs, "index.plan", qi, start, dPlan, true)
	tr.add(ps, "dtw.envelope", qi, start, qp.envelope, true)
	tr.add(ps, "core.apply_envelope", qi, start, qp.apply, true)
	if ctr.cached {
		return nil
	}
	// The growth loop of qbh.System.queryPlan: widen k until the k nearest
	// phrases cover topK distinct songs.
	var cutoff float64
	lastRound := -1
	for k := max(topK*4, 8); ; k = min(k*2, tw.numPhrases()) {
		r0 = time.Now()
		matches, _, err := tw.knnRound(qp, k)
		d = time.Since(r0)
		if err != nil {
			return err
		}
		lt.knn += d
		lt.rounds++
		lastRound = tr.add(qs, fmt.Sprintf("index.knn#%d", lt.rounds), qi, start, d, true)
		songs := map[int64]bool{}
		cutoff = 0
		for _, m := range matches {
			songs[m.song] = true
			cutoff = max(cutoff, m.dist)
		}
		if len(songs) >= topK || k >= tw.numPhrases() {
			break
		}
	}
	// The kernels inside the last round: unit costs measured on this
	// query's own candidates, times the stage counts the twin reported.
	kc := t.ft.replay(q, qp, cutoff)
	lt.kernels.add(kc)
	per := func(d time.Duration, n int) time.Duration { return d / time.Duration(max(n, 1)) }
	tr.add(lastRound, "rtree.range", qi, start, kc.rangeSearch, true)
	for _, s := range []struct {
		name string
		d    time.Duration
	}{
		{"dtw.lb_keogh", per(kc.keogh, kc.keoghN) * time.Duration(ctr.coarse)},
		{"dtw.lb_improved", per(kc.improved, kc.improvedN) * time.Duration(ctr.keogh)},
		{"dtw.banded", per(kc.banded, kc.bandedN) * time.Duration(ctr.exact)},
	} {
		tr.add(lastRound, s.name, qi, start, s.d, true)
		lt.kernelEstimate += s.d
	}
	if t.pp != nil {
		items, d, err := t.pp.rangeSearch(qp, cutoff, t.ft.items)
		if err != nil {
			return err
		}
		t.ft.items = items
		lt.pagedRange += d
	}
	return nil
}

func (c *kernelCost) add(o kernelCost) {
	c.keogh += o.keogh
	c.improved += o.improved
	c.banded += o.banded
	c.keoghN += o.keoghN
	c.improvedN += o.improvedN
	c.bandedN += o.bandedN
	c.node += o.node
	c.rangeSearch += o.rangeSearch
}

// ingestLayers times the write path's layers on scratch copies: n uploads
// through a scratch durable database and WAL, their phrases into a scratch
// index and R*-tree.
type ingestTimes struct {
	n                                    int
	add, snapshot, walAppend, midiDecode time.Duration
	walBytes                             int64
	phrases                              int
	indexAdd, rtreeInsert                time.Duration
}

func (e *env) ingestLayers(tw *twin, ft *featureTree, n int) (ingestTimes, error) {
	it := ingestTimes{n: n}
	dir := filepath.Join(e.tmp, "ingest-probe")
	ip, err := newIngestProbe(dir, e.melodies)
	if err != nil {
		return it, err
	}
	defer ip.close()
	var series [][]float64
	before := ip.walBytes()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		m, err := decodeMIDI(e.adds[i])
		it.midiDecode += time.Since(t0)
		if err != nil {
			return it, err
		}
		t0 = time.Now()
		if err := ip.add(fmt.Sprintf("probe-%d", i), m); err != nil {
			return it, err
		}
		it.add += time.Since(t0)
		t0 = time.Now()
		if err := ip.walAppend(e.adds[i]); err != nil {
			return it, err
		}
		it.walAppend += time.Since(t0)
		for _, ph := range segmentPhrases(m) {
			series = append(series, tw.normalizeMelody(ph))
		}
	}
	it.walBytes = ip.walBytes() - before
	t0 := time.Now()
	if err := ip.snapshot(); err != nil {
		return it, err
	}
	it.snapshot = time.Since(t0)
	it.phrases = len(series)
	if it.indexAdd, err = tw.indexAdd(series); err != nil {
		return it, err
	}
	it.rtreeInsert = ft.insert(tw, series)
	return it, nil
}
