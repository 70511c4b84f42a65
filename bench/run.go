package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// metric is one reported number. Spread is the in-run disagreement,
// (max-min)/median, of the windows or set-ups behind it; 0 for a single value.
type metric struct {
	Name    string    `json:"name"`
	Kind    string    `json:"kind"` // end_to_end or per_layer
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Samples int       `json:"samples"`
	Spread  float64   `json:"spread"`
	Windows []float64 `json:"windows,omitempty"`
}

type workloadResult struct {
	Name      string `json:"name"`
	Correct   bool   `json:"correct"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	Late      bool   `json:"late"` // open-phase generator lateness p99 above 5 ms
	InputsSHA string `json:"inputs_sha256"`
	// Sharing is what the closed phase's timing metrics were adjusted by
	// and what they read before: see adjust.
	Sharing  *sharingReport `json:"sharing,omitempty"`
	Failures []string       `json:"failures,omitempty"`
	Metrics  []metric       `json:"metrics"`
	// Attribution is each layer's self time as a share of the traced
	// requests' time plus the bare HTTP hop, by span name; traced runs only.
	Attribution map[string]float64 `json:"attribution,omitempty"`
}

// sharingReport is the adjustment of one closed phase to the reference
// probe reading.
type sharingReport struct {
	ProbeNS    float64 `json:"probe_ns"`     // median over the requests of the reading around each
	RefProbeNS float64 `json:"ref_probe_ns"` // the reading the metrics are reported at
	Exponent   float64 `json:"exponent"`     // latency taken to go as reading^exponent; see adjust
	RawSetup   float64 `json:"raw_setup_s"`
	RawQPS     float64 `json:"raw_closed_qps"`
	RawP50     float64 `json:"raw_query_p50_ms"`
	RawP90     float64 `json:"raw_query_p90_ms"`
}

// put records a metric; windows are the per-window or per-set-up values
// behind it, if any.
func (r *workloadResult) put(kind, name, unit string, value float64, samples int, windows []float64) {
	r.Metrics = append(r.Metrics, metric{Name: name, Kind: kind, Unit: unit, Value: value, Samples: samples,
		Spread: spread(windows), Windows: windows})
}

const lateLimitMS = 5.0

// windowLen is the length of one closed-phase window: long enough to hold
// a whole snapshot cycle of ingest-mixed and, on the slowest workload,
// more than ten samples beyond the 90th percentile.
const windowLen = 2 * time.Second

// inputs is everything one workload feeds the program.
type inputs struct {
	hs    *humSet
	adds  [][]byte // uploads, writer workloads only
	sched []int    // order in which the phases draw hums
	sha   string
}

// prepare generates the inputs of w for phases lasting `active` in all.
func (e *env) prepare(w workload, active time.Duration) (inputs, error) {
	hs, err := e.hums(w.wav)
	if err != nil {
		return inputs{}, err
	}
	in := inputs{hs: hs, sched: e.schedule(w, hs)}
	if w.writer {
		n := int(writeRate*active.Seconds()) + 8
		if err := e.uploads(max(n, e.sc.traced)); err != nil {
			return inputs{}, err
		}
		in.adds = e.adds[:n]
	}
	in.sha = inputsHash(e.midis, hs, in.adds, in.sched)
	return in, nil
}

// run executes one workload: set-up (several times), the closed phase, and
// with tracing on the open phase and the in-process traced run.
func (e *env) run(w workload) (res workloadResult, err error) {
	res.Name = w.name
	closedFor := time.Duration(e.seconds * float64(time.Second))
	var openFor time.Duration
	if e.trace == 1 {
		// A traced invocation shares its time between a shorter closed
		// phase (for the counters), the open phase and the traced run.
		closedFor, openFor = closedFor*2/5, closedFor*3/10
	} else if e.trace > 1 {
		openFor = closedFor * 3 / 10
	}
	in, err := e.prepare(w, closedFor+openFor)
	if err != nil {
		return res, err
	}
	hs, adds, sched := in.hs, in.adds, in.sched
	res.InputsSHA = in.sha
	ck := &checker{tw: e.tw, hs: hs, baseSongs: len(e.melodies)}
	for _, b := range adds {
		m, err := decodeMIDI(b)
		if err != nil {
			return res, err
		}
		ck.uploads = append(ck.uploads, m)
	}

	path := "/query/pitch"
	if w.wav {
		path = "/query"
	}
	query := fmt.Sprintf("%s?top=%d&delta=%g", path, topK, queryDelta)

	// Set-up: exec, ready, one warm-up pass. Repeated so setup_s is a
	// median; the last child is the one measured.
	dataDir := filepath.Join(e.tmp, "data-"+w.name)
	var srv *child
	var setups, rawSetups []float64 // at the reference probe reading, and as measured
	var warm []queryJSON
	for i := 0; i < e.sc.setups; i++ {
		if srv != nil {
			srv.kill()
		}
		if err := os.RemoveAll(dataDir); err != nil {
			return res, err
		}
		stop, shared := make(chan struct{}), make(chan float64)
		go func() { shared <- probeUntil(stop) }()
		t0 := time.Now()
		srv, err = e.start(w, dataDir)
		if err == nil {
			warm = e.warmUp(ck, srv.base+query, hs)
		}
		took := time.Since(t0).Seconds()
		close(stop)
		p := <-shared
		if err != nil {
			return res, err
		}
		setups = append(setups, took*refProbeNS/p)
		rawSetups = append(rawSetups, took)
	}
	defer func() { srv.kill() }()

	var before, after statsJSON
	if err := srv.getJSON("/stats", &before); err != nil {
		return res, err
	}
	clients := e.clients
	var wr writerResult
	stopWriter, writerDone := make(chan struct{}), make(chan struct{})
	if w.writer {
		clients = 1
		go func() {
			wr = ck.write(srv.base, adds, stopWriter)
			close(writerDone)
		}()
	} else {
		close(writerDone)
	}
	var next atomic.Int64
	cl, probes := closed(ck, srv.base+query, hs, sched, &next, clients, closedFor)
	var op []sample
	if openFor > 0 {
		op = open(ck, srv.base+query, hs, sched, &next, e.rng(5<<20), w.openRate, openFor)
	}
	close(stopWriter)
	<-writerDone
	if err := srv.getJSON("/stats", &after); err != nil {
		return res, err
	}

	var layers *layerReport
	if e.trace >= 1 {
		// Before the child goes: the traced pass compares against it.
		if layers, err = e.layers(w, srv.base, query, hs, ck); err != nil {
			return res, err
		}
	}

	rss, err := srv.rssMiB()
	if err != nil {
		return res, err
	}
	var recoverS float64
	if w.writer {
		// Crash and recover: every acknowledged upload must be there.
		srv.kill()
		t0 := time.Now()
		if srv, err = e.start(w, dataDir); err != nil {
			return res, err
		}
		var songs []songJSON
		if err := srv.getJSON("/songs", &songs); err != nil {
			return res, err
		}
		recoverS = time.Since(t0).Seconds()
		have := make(map[int64]bool, len(songs))
		for _, s := range songs {
			have[s.ID] = true
		}
		ck.attempted.Add(1)
		for _, id := range wr.acked {
			if !have[id] {
				ck.fail("acknowledged song %d lost across SIGKILL", id)
				break
			}
		}
	}
	var stored int64
	if w.flags.data {
		if stored, err = dirBytes(dataDir); err != nil {
			return res, err
		}
	}
	srv.kill()

	// ---- end-to-end metrics ----
	g, probeNS := adjust(cl, probes)
	ws := windowed(cl, clients, max(int(closedFor/windowLen), 1), closedFor)
	res.Sharing = &sharingReport{ProbeNS: probeNS, RefProbeNS: refProbeNS, Exponent: g, RawSetup: median(rawSetups), RawQPS: ws.rawQPS, RawP50: ws.rawP50, RawP90: ws.rawP90}
	var rr []float64
	for i, qr := range warm {
		rr = append(rr, reciprocalRank(qr, hs.pool[i].song))
	}
	if e.trace != 1 {
		res.put("end_to_end", "setup_s", "s", median(setups), len(setups), setups)
		res.put("end_to_end", "closed_qps", "1/s", ws.qps, ws.n, ws.qpsByWindow)
		res.put("end_to_end", "query_p50_ms", "ms", ws.p50, ws.n, ws.p50ByWindow)
		res.put("end_to_end", "query_p90_ms", "ms", ws.p90, ws.n, ws.p90ByWin)
		res.put("end_to_end", "mrr", "ratio", mean(rr), len(rr), nil)
		res.put("end_to_end", "rss_mb", "MiB", rss, 1, nil)
	}
	if layers != nil {
		res.Attribution = layers.attribution
		e.report(w, &res, layers, phases{warm: warm, closed: cl, probeNS: probeNS, open: op, before: before, after: after,
			writes: wr, recoverS: recoverS, stored: stored, ck: ck})
	}
	res.Attempted, res.Failed = ck.attempted.Load(), ck.failed.Load()
	res.Failures = ck.failures
	res.Correct = res.Failed == 0
	return res, nil
}

// warmUp sends the first sc.warm pool hums once each, in order, on the
// usual number of connections, and returns their answers: the fixed set mrr
// and the per-query index.* counts are taken over. On wav-hot it also
// fills the result cache with every hot hum's answer.
func (e *env) warmUp(ck *checker, url string, hs *humSet) []queryJSON {
	n := min(e.sc.warm, len(hs.pool))
	out := make([]queryJSON, n)
	hc := newHTTPClient(e.clients)
	defer hc.CloseIdleConnections()
	_ = parallel(n, func(i int) error {
		out[i], _, _ = ck.query(hc, url, &hs.pool[i], i)
		return nil
	})
	return out
}
