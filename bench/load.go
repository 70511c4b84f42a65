package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

const distTol = 1e-9

// checker decides whether a query response is right, and counts.
type checker struct {
	tw        *twin
	hs        *humSet
	baseSongs int
	// uploads are the melodies the writer posts, in order. It is the only
	// writer, so upload i becomes song baseSongs+i and a distance to a song
	// outside the base corpus can be checked even before its ack arrives.
	uploads []melody

	attempted, failed, shed atomic.Int64
	failMu                  sync.Mutex
	failures                []string // the first few, for the report
}

func (ck *checker) fail(format string, args ...interface{}) {
	ck.failed.Add(1)
	ck.failMu.Lock()
	if len(ck.failures) < 8 {
		ck.failures = append(ck.failures, fmt.Sprintf(format, args...))
	}
	ck.failMu.Unlock()
}

// songDist is the exact distance from designated hum i to one song.
func (ck *checker) songDist(i int, song int64) (float64, bool) {
	o := ck.hs.oracles[i]
	if song >= 0 && song < int64(ck.baseSongs) {
		return o.bySong[song], true
	}
	if song < 0 || song >= int64(ck.baseSongs+len(ck.uploads)) {
		return 0, false
	}
	best := math.Inf(1)
	for _, ph := range segmentPhrases(ck.uploads[song-int64(ck.baseSongs)]) {
		best = min(best, bandedDTW(o.q, ck.tw.normalizeMelody(ph), bandRadius()))
	}
	return best, true
}

// compare checks one answer to designated hum i against the oracle: every
// returned distance is exact, the ranking ascends, and no base-corpus song
// closer than the last returned one is missing. On a static corpus that is
// equality with the brute-force top k, ids, order and distances.
func (ck *checker) compare(i int, resp queryJSON) error {
	if resp.Degraded {
		return fmt.Errorf("degraded answer")
	}
	if want := min(topK, ck.baseSongs); len(resp.Matches) != want {
		return fmt.Errorf("%d matches, want %d", len(resp.Matches), want)
	}
	returned := make(map[int64]bool, len(resp.Matches))
	for r, m := range resp.Matches {
		want, ok := ck.songDist(i, m.SongID)
		if !ok {
			return fmt.Errorf("rank %d: unknown song %d", r+1, m.SongID)
		}
		if math.Abs(m.Dist-want) > distTol {
			return fmt.Errorf("rank %d: song %d at %.12g, exact distance is %.12g", r+1, m.SongID, m.Dist, want)
		}
		if r > 0 && m.Dist < resp.Matches[r-1].Dist {
			return fmt.Errorf("rank %d out of order", r+1)
		}
		returned[m.SongID] = true
	}
	last := resp.Matches[len(resp.Matches)-1].Dist
	for s, d := range ck.hs.oracles[i].bySong {
		if d >= 0 && d < last-distTol && !returned[int64(s)] {
			return fmt.Errorf("song %d at %.12g is closer than the last returned (%.12g) but missing", s, d, last)
		}
	}
	return nil
}

// query is one operation: post hum h (pool index idx, or -1 for a cold hum),
// read the whole answer, check it. The latency ends when the body is read.
func (ck *checker) query(hc *http.Client, url string, h *humQuery, idx int) (queryJSON, time.Duration, bool) {
	ck.attempted.Add(1)
	t0 := time.Now()
	resp, err := hc.Post(url, "application/octet-stream", bytes.NewReader(h.body))
	if err != nil {
		ck.fail("POST %s: %v", url, err)
		return queryJSON{}, 0, false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if resp.StatusCode == http.StatusTooManyRequests {
		ck.shed.Add(1)
	}
	if err != nil || resp.StatusCode != http.StatusOK {
		ck.fail("POST %s: status %d, %v: %.200s", url, resp.StatusCode, err, body)
		return queryJSON{}, lat, false
	}
	var qr queryJSON
	if err := json.Unmarshal(body, &qr); err != nil {
		ck.fail("POST %s: %v", url, err)
		return qr, lat, false
	}
	if qr.Degraded {
		ck.fail("hum %d: degraded answer", idx)
		return qr, lat, false
	}
	if idx >= 0 && idx < len(ck.hs.oracles) {
		if err := ck.compare(idx, qr); err != nil {
			ck.fail("hum %d: %v", idx, err)
			return qr, lat, false
		}
	}
	return qr, lat, true
}

// reciprocalRank of the hummed song within the answer.
func reciprocalRank(qr queryJSON, song int64) float64 {
	for r, m := range qr.Matches {
		if m.SongID == song {
			return 1 / float64(r+1)
		}
	}
	return 0
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns},
	}
}

// schedule is the fixed order in which a phase draws hums: pool indices,
// or -1-n for the n-th cold hum.
func (e *env) schedule(w workload, hs *humSet) []int {
	r := e.rng(4 << 20)
	n := 1 << 15
	out := make([]int, 0, n)
	if !w.wav {
		for len(out) < n {
			out = append(out, r.Perm(len(hs.pool))...)
		}
		return out
	}
	zipf := rand.NewZipf(r, zipfS, 1, uint64(len(hs.pool)-1))
	cold := 0
	for len(out) < n {
		if r.Float64() < coldShare && len(hs.cold) > 0 {
			out = append(out, -1-cold%len(hs.cold))
			cold++
		} else {
			out = append(out, int(zipf.Uint64()))
		}
	}
	return out
}

func pick(hs *humSet, s int) (*humQuery, int) {
	if s < 0 {
		return &hs.cold[-1-s], -1
	}
	return &hs.pool[s], s
}

// sample is one completed operation of a phase.
type sample struct {
	at   time.Duration // completion, since the phase began
	lat  time.Duration
	late time.Duration // open loop: how long after its due time it was sent
	ok   bool
	adj  float64 // closed loop: the latency in ms at the reference probe reading; see adjust
}

// The sandbox behaves as if each of its cores were one half of a physical core
// whose other half belongs to someone else: for milliseconds at a time, and
// for most of some minutes and little of others, code that was keeping the
// core busy every cycle takes up to twice as long, while a chain of dependent
// multiplies takes what it always takes and steal time stays at zero. The
// program's latency follows (over ten minutes hum-ram's median moved between
// 2.6 and 4.0 ms and wav-hot's between 12.4 and 21.3), and no statistic within
// a 20-second run removes it. So the closed loop measures it: between
// requests, at most every probeEvery, each client times a short counting loop,
// one iteration a cycle when the core is its own and two when it is shared,
// and the timing metrics are reported at a fixed reading of it: see adjust.
const (
	probeLen   = 200 * time.Microsecond
	probeEvery = 10 * time.Millisecond
	// probeAround is how far either side of a request the readings that
	// describe it are taken from. The sharing flickers faster than a request
	// lasts, so one reading is a coin toss; what moves slowly, and what the
	// latency follows, is the share of the time the core is shared.
	probeAround = 500 * time.Millisecond
	// refProbeNS is the probe reading the timing metrics are reported at, in
	// the middle of the range this sandbox moves in (0.37 with the core to
	// itself, 0.73 sharing it all the time), so that a run is adjusted up or
	// down by a little rather than always one way by a lot.
	refProbeNS = 0.5
)

// reading is one probe result: when, and the nanoseconds one iteration took.
type reading struct {
	at time.Duration
	ns float64
}

// probeSink takes the loop's result, so that the loop is not compiled away.
var probeSink atomic.Uint64

// probe counts in a loop of one add for about d and returns the nanoseconds
// one iteration took.
func probe(d time.Duration) float64 {
	a, n := uint64(0), 0
	t0 := time.Now()
	for time.Since(t0) < d {
		for i := uint64(0); i < 2000; i++ {
			a += i
		}
		n += 2000
	}
	probeSink.Add(a)
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// capReadings bounds every reading by 2.2 times the 5th percentile of all:
// sharing a core costs up to a factor of two, so anything beyond was a
// reading interrupted by the scheduler and says nothing more than "shared".
func capReadings(ns []float64) {
	ceil := 2.2 * quantile(ns, 0.05)
	for i := range ns {
		ns[i] = min(ns[i], ceil)
	}
}

// probeUntil takes a reading every probeEvery until stop is closed and
// returns their mean: what the core sharing was while something else (a
// set-up) ran.
func probeUntil(stop <-chan struct{}) float64 {
	var ns []float64
	for {
		ns = append(ns, probe(probeLen))
		select {
		case <-stop:
			capReadings(ns)
			return mean(ns)
		case <-time.After(probeEvery):
		}
	}
}

// closed runs `clients` callers back to back for d: each sends its next
// request only when the previous answer is in, so nothing queues. It also
// returns the callers' probe readings, in no particular order.
func closed(ck *checker, url string, hs *humSet, sched []int, next *atomic.Int64, clients int, d time.Duration) ([]sample, []reading) {
	hc := newHTTPClient(clients)
	defer hc.CloseIdleConnections()
	var mu sync.Mutex
	var res []sample
	var probes []reading
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []sample
			var readings []reading
			for time.Since(start) < d {
				if n := len(readings); n == 0 || time.Since(start)-readings[n-1].at >= probeEvery {
					readings = append(readings, reading{at: time.Since(start), ns: probe(probeLen)})
				}
				h, idx := pick(hs, sched[int(next.Add(1)-1)%len(sched)])
				_, lat, ok := ck.query(hc, url, h, idx)
				local = append(local, sample{at: time.Since(start), lat: lat, ok: ok})
			}
			readings = append(readings, reading{at: time.Since(start), ns: probe(probeLen)})
			mu.Lock()
			res = append(res, local...)
			probes = append(probes, readings...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return res, probes
}

// adjust fills in every sample's latency at the reference probe reading,
// lat * (refProbeNS/p)^g, where p is the mean of the readings taken within
// probeAround of the middle of the request, and returns g and the median p.
// Between runs made minutes apart the workloads' latencies go as p to a power
// between 0.5 (hum-paged: page reads and lock waits do not care) and 1.3
// (wav-hot), so g is the least-squares slope of log latency on log p over the
// run's own samples, held towards 1 by a prior worth as much as samples whose
// log p has a standard deviation of 0.1: a run whose sharing hardly varied
// says little about its slope and gets g near 1, a run that saw both ends
// mostly its own.
func adjust(res []sample, probes []reading) (g, medianP float64) {
	if len(res) == 0 || len(probes) == 0 {
		return 0, 0
	}
	sort.Slice(probes, func(i, j int) bool { return probes[i].at < probes[j].at })
	ns := make([]float64, len(probes))
	for i, p := range probes {
		ns[i] = p.ns
	}
	capReadings(ns)
	sums := make([]float64, len(ns)+1) // prefix sums
	for i, x := range ns {
		sums[i+1] = sums[i] + x
	}
	at := func(t time.Duration) int { // first reading not before t
		return sort.Search(len(probes), func(i int) bool { return probes[i].at >= t })
	}
	n := float64(len(res))
	ps, r, y := make([]float64, len(res)), make([]float64, len(res)), make([]float64, len(res))
	var mr, my float64
	for i, s := range res {
		mid := s.at - s.lat/2
		lo, hi := at(mid-probeAround), at(mid+probeAround)
		if lo == hi { // none that close: the nearest one
			hi = min(max(hi, 1), len(probes))
			lo = hi - 1
		}
		ps[i] = (sums[hi] - sums[lo]) / float64(hi-lo)
		r[i], y[i] = math.Log(ps[i]/refProbeNS), math.Log(ms(s.lat))
		mr, my = mr+r[i]/n, my+y[i]/n
	}
	const prior = 0.1 * 0.1 // variance of log p the prior at slope 1 stands for
	sxy, sxx := prior*n, prior*n
	for i := range res {
		sxy += (r[i] - mr) * (y[i] - my)
		sxx += (r[i] - mr) * (r[i] - mr)
	}
	g = sxy / sxx
	for i := range res {
		res[i].adj = ms(res[i].lat) * math.Exp(-g*r[i])
	}
	return g, median(ps)
}

// open sends on a Poisson schedule at `rate` whatever the server is doing.
// Latency runs from the moment a request was due, so a stall is charged to
// every request it delays; how late the generator itself ran is recorded.
func open(ck *checker, url string, hs *humSet, sched []int, next *atomic.Int64, r *rand.Rand, rate float64, d time.Duration) []sample {
	hc := newHTTPClient(64)
	defer hc.CloseIdleConnections()
	var mu sync.Mutex
	var res []sample
	var wg sync.WaitGroup
	start := time.Now()
	for due := time.Duration(0); ; {
		due += time.Duration(r.ExpFloat64() / rate * float64(time.Second))
		if due > d {
			break
		}
		time.Sleep(time.Until(start.Add(due)))
		late := time.Since(start) - due
		h, idx := pick(hs, sched[int(next.Add(1)-1)%len(sched)])
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, lat, ok := ck.query(hc, url, h, idx)
			mu.Lock()
			res = append(res, sample{at: time.Since(start), lat: late + lat, late: late, ok: ok})
			mu.Unlock()
		}()
	}
	wg.Wait()
	return res
}

// writer posts one upload every 1/writeRate seconds until stop is closed,
// one at a time. Latency runs from the due time.
type writerResult struct {
	lats  []time.Duration
	acked []int64
	bytes int64
}

func (ck *checker) write(base string, adds [][]byte, stop <-chan struct{}) writerResult {
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	var res writerResult
	start := time.Now()
	period := time.Duration(float64(time.Second) / writeRate)
	for i, body := range adds {
		due := start.Add(time.Duration(i) * period)
		select {
		case <-stop:
			return res
		case <-time.After(time.Until(due)):
		}
		ck.attempted.Add(1)
		resp, err := hc.Post(fmt.Sprintf("%s/songs?title=upload-%d", base, i), "audio/midi", bytes.NewReader(body))
		if err != nil {
			ck.fail("POST /songs: %v", err)
			continue
		}
		var sj songJSON
		err = json.NewDecoder(resp.Body).Decode(&sj)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusCreated {
			ck.fail("POST /songs: status %d, %v", resp.StatusCode, err)
			continue
		}
		if want := int64(ck.baseSongs + i); sj.ID != want {
			ck.fail("upload %d got id %d, want %d", i, sj.ID, want)
			continue
		}
		res.lats = append(res.lats, time.Since(due))
		res.acked = append(res.acked, sj.ID)
		res.bytes += int64(len(body))
	}
	return res
}

// windowStats are the timing metrics of a closed phase, at the reference
// probe reading: the median and 90th percentile of the adjusted latencies of the
// whole phase, and the rate at which its callers got correct answers, which
// for back-to-back callers is their number over the mean adjusted latency.
// The raw values are kept beside them. The phase is also cut into n equal
// windows by completion time; the per-window values are kept for the report
// and their disagreement is the in-run spread.
type windowStats struct {
	qps, p50, p90                      float64
	rawQPS, rawP50, rawP90             float64
	n                                  int
	qpsByWindow, p50ByWindow, p90ByWin []float64
}

// timing is qps, p50 and p90 of one set of samples from `clients` callers.
func timing(res []sample, clients int, lat func(sample) float64) (qps, p50, p90 float64) {
	var lats []float64
	var busy float64
	good := 0
	for _, s := range res {
		lats = append(lats, lat(s))
		busy += lat(s)
		if s.ok {
			good++
		}
	}
	return ratio(1000*float64(clients*good), busy), quantile(lats, 0.5), quantile(lats, 0.9)
}

func windowed(res []sample, clients, n int, d time.Duration) windowStats {
	adj := func(s sample) float64 { return s.adj }
	ws := windowStats{n: len(res)}
	ws.qps, ws.p50, ws.p90 = timing(res, clients, adj)
	ws.rawQPS, ws.rawP50, ws.rawP90 = timing(res, clients, func(s sample) float64 { return ms(s.lat) })
	width := d / time.Duration(n)
	byWin := make([][]sample, n)
	for _, s := range res {
		// An answer completing after the last window closed joins it.
		w := min(int(s.at/width), n-1)
		byWin[w] = append(byWin[w], s)
	}
	for _, win := range byWin {
		qps, p50, p90 := timing(win, clients, adj)
		ws.qpsByWindow = append(ws.qpsByWindow, qps)
		ws.p50ByWindow = append(ws.p50ByWindow, p50)
		ws.p90ByWin = append(ws.p90ByWin, p90)
	}
	return ws
}

func latencies(res []sample) (lat, late []float64) {
	for _, s := range res {
		lat, late = append(lat, ms(s.lat)), append(late, ms(s.late))
	}
	sort.Float64s(lat)
	sort.Float64s(late)
	return lat, late
}
