// Command qbhload is an open-loop load generator for a qbhd server: it
// fires queries at a target rate with Poisson arrivals — never waiting for
// a response before sending the next request, so server queueing shows up
// as latency instead of being hidden by a closed feedback loop — and
// reports the latency distribution and error budget as JSON.
//
//	qbhload -addr http://localhost:8080 -qps 50 -duration 10s
//
// The query mix is a fixed pool of simulated hums (the same singer model
// cmd/qbh uses) drawn with Zipf skew, the shape of real QBH traffic where
// a handful of trending songs dominate: with the default skew most
// requests repeat a popular query verbatim, which is exactly the workload
// a -result-cache-bytes server absorbs. The report counts responses
// served with "cached": true so cache efficacy is visible end to end.
//
// Exit status is non-zero when -max-error-rate is exceeded, or when
// -expect-cached is set and no response was served from cache — the CI
// smoke contract.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"warping"
)

func main() {
	addr := flag.String("addr", "http://localhost:8080", "qbhd base URL")
	qps := flag.Float64("qps", 20, "target arrival rate (open loop: arrivals never wait for completions)")
	duration := flag.Duration("duration", 5*time.Second, "how long to generate load")
	pool := flag.Int("pool", 16, "number of distinct hum queries in the pool")
	zipfS := flag.Float64("zipf-s", 1.5, "Zipf skew of the query mix (>1; higher = more repeats of the popular queries)")
	top := flag.Int("top", 5, "result count per query")
	delta := flag.Float64("delta", 0.1, "warping band width as a fraction of series length")
	seed := flag.Int64("seed", 1, "RNG seed for the query pool and arrival process")
	maxErrorRate := flag.Float64("max-error-rate", -1, "fail (exit 1) when the error rate exceeds this fraction (negative = report only)")
	expectCached := flag.Bool("expect-cached", false, "fail (exit 1) unless at least one response was served from the result cache")
	flag.Parse()

	queries := buildQueries(*seed, *pool)
	rep := drive(*addr, queries, *qps, *duration, *zipfS, *top, *delta, *seed)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *maxErrorRate >= 0 && rep.ErrorRate > *maxErrorRate {
		fmt.Fprintf(os.Stderr, "error rate %.4f exceeds budget %.4f\n", rep.ErrorRate, *maxErrorRate)
		os.Exit(1)
	}
	if *expectCached && rep.Cached == 0 {
		fmt.Fprintln(os.Stderr, "no response was served from the result cache")
		os.Exit(1)
	}
}

// buildQueries renders a pool of distinct simulated hums. Each entry is a
// different phrase (or a different rendition), so repeats in the Zipf draw
// are verbatim repeats of one query — the duplicate traffic a result
// cache is for.
func buildQueries(seed int64, n int) [][]float64 {
	r := rand.New(rand.NewSource(seed))
	singer := warping.GoodSinger()
	var phrases []warping.Melody
	for _, s := range warping.BuiltinSongs() {
		phrases = append(phrases, warping.SegmentPhrases(s.Melody, 10, 25)...)
	}
	for _, s := range warping.GenerateSongs(seed+1, 8, 200, 400) {
		phrases = append(phrases, warping.SegmentPhrases(s.Melody, 10, 25)...)
	}
	out := make([][]float64, 0, n)
	for len(out) < n {
		m := phrases[r.Intn(len(phrases))]
		hum := warping.Hum(singer, m, r)
		if len(hum) < 10 {
			continue
		}
		out = append(out, []float64(hum))
	}
	return out
}

// Report is the JSON SLO summary printed after a load run.
type Report struct {
	TargetQPS   float64 `json:"target_qps"`
	AchievedQPS float64 `json:"achieved_qps"`
	DurationSec float64 `json:"duration_sec"`
	Sent        int     `json:"sent"`
	Completed   int     `json:"completed"`
	Errors      int     `json:"errors"`
	Shed        int     `json:"shed"` // 429 responses (admission control)
	Degraded    int     `json:"degraded"`
	Cached      int     `json:"cached"`
	ErrorRate   float64 `json:"error_rate"`
	ShedRate    float64 `json:"shed_rate"`
	CacheRate   float64 `json:"cache_hit_rate"`
	Latency     LatMS   `json:"latency_ms"`
}

// LatMS is the completed-request latency distribution in milliseconds.
type LatMS struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Max  float64 `json:"max"`
}

// outcome is one request's result.
type outcome struct {
	lat      time.Duration
	status   int
	cached   bool
	degraded bool
	err      bool
}

// drive runs the open-loop workload and aggregates the report. Arrival
// times follow a Poisson process at the target rate; each arrival fires in
// its own goroutine regardless of how many requests are still in flight.
func drive(addr string, queries [][]float64, qps float64, duration time.Duration, zipfS float64, top int, delta float64, seed int64) Report {
	r := rand.New(rand.NewSource(seed + 2))
	zipf := rand.NewZipf(r, zipfS, 1, uint64(len(queries)-1))
	client := &http.Client{Timeout: 30 * time.Second}
	url := fmt.Sprintf("%s/query/pitch?top=%d&delta=%g", addr, top, delta)

	bodies := make([][]byte, len(queries))
	for i, q := range queries {
		b, err := json.Marshal(q)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		bodies[i] = b
	}

	var mu sync.Mutex
	var results []outcome
	var wg sync.WaitGroup
	sent := 0
	start := time.Now()
	next := start
	for {
		gap := time.Duration(r.ExpFloat64() / qps * float64(time.Second))
		next = next.Add(gap)
		if next.Sub(start) > duration {
			break
		}
		time.Sleep(time.Until(next))
		body := bodies[zipf.Uint64()]
		sent++
		wg.Add(1)
		go func(body []byte) {
			defer wg.Done()
			o := fire(client, url, body)
			mu.Lock()
			results = append(results, o)
			mu.Unlock()
		}(body)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := Report{TargetQPS: qps, DurationSec: elapsed.Seconds(), Sent: sent}
	var lats []time.Duration
	for _, o := range results {
		switch {
		case o.err:
			rep.Errors++
		case o.status == http.StatusTooManyRequests:
			rep.Shed++
		case o.status != http.StatusOK:
			rep.Errors++
		default:
			rep.Completed++
			lats = append(lats, o.lat)
			if o.cached {
				rep.Cached++
			}
			if o.degraded {
				rep.Degraded++
			}
		}
	}
	if sent > 0 {
		rep.ErrorRate = float64(rep.Errors) / float64(sent)
		rep.ShedRate = float64(rep.Shed) / float64(sent)
	}
	if rep.Completed > 0 {
		rep.CacheRate = float64(rep.Cached) / float64(rep.Completed)
	}
	rep.AchievedQPS = float64(rep.Completed) / elapsed.Seconds()
	rep.Latency = summarize(lats)
	return rep
}

// fire sends one query and classifies the response.
func fire(client *http.Client, url string, body []byte) outcome {
	start := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return outcome{err: true}
	}
	defer resp.Body.Close()
	var qr struct {
		Cached   bool `json:"cached"`
		Degraded bool `json:"degraded"`
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			return outcome{err: true}
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return outcome{lat: time.Since(start), status: resp.StatusCode, cached: qr.Cached, degraded: qr.Degraded}
}

// summarize reduces the latency sample to the reported distribution.
func summarize(lats []time.Duration) LatMS {
	if len(lats) == 0 {
		return LatMS{}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var sum time.Duration
	for _, l := range lats {
		sum += l
	}
	q := func(p float64) float64 {
		i := int(p * float64(len(lats)-1))
		return float64(lats[i]) / float64(time.Millisecond)
	}
	return LatMS{
		Mean: float64(sum) / float64(len(lats)) / float64(time.Millisecond),
		P50:  q(0.50),
		P95:  q(0.95),
		P99:  q(0.99),
		P999: q(0.999),
		Max:  float64(lats[len(lats)-1]) / float64(time.Millisecond),
	}
}
