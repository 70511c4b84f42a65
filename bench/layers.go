package main

import (
	"math"
	"path/filepath"
	"time"
)

// layerReport is what the traced pass and the standalone probes measured.
type layerReport struct {
	lt          layerTimes
	ing         ingestTimes
	pins        struct{ hit, miss, read time.Duration }
	attribution map[string]float64
}

const pinProbes = 2000 // pins and page reads the pager probe times

// layers runs the traced pass against the live child at base, and the
// standalone probes of the layers this workload exercises.
func (e *env) layers(w workload, base, query string, hs *humSet, ck *checker) (*layerReport, error) {
	rep := &layerReport{}
	tw := e.tw
	if w.paged {
		// The traced copy pages through a pool of the child's size, so its
		// kNN rounds pay for pins and page reads as the child's do.
		var err error
		if tw, err = buildPagedTwin(e.melodies, filepath.Join(e.tmp, "twin-pages"), e.sc.poolPages); err != nil {
			return nil, err
		}
		defer tw.close()
	}
	t := &tracedRun{w: w, tw: tw, hs: hs, ft: e.tw.newFeatureTree(), ck: ck, base: base, query: query}
	if w.flags.resultCacheBytes > 0 {
		tw.enableCache(w.flags.resultCacheBytes)
		defer tw.enableCache(0)
		// Fill it, as the warm-up pass filled the child's.
		for i := 0; i < e.sc.traced; i++ {
			if _, _, _, err := t.request(&hs.pool[i%len(hs.pool)], i, nil, &layerTimes{}); err != nil {
				return nil, err
			}
		}
	}
	if w.paged {
		var err error
		if t.pp, err = newPagedProbe(filepath.Join(e.tmp, "paged-probe"), e.sc.poolPages, t.ft); err != nil {
			return nil, err
		}
		defer t.pp.close()
		if rep.pins.hit, rep.pins.miss, rep.pins.read, err = t.pp.pin(pinProbes, e.rng(6<<20)); err != nil {
			return nil, err
		}
	}
	t.tr = &tracer{workload: w.name, origin: time.Now()}
	var err error
	if rep.lt, err = t.run(e.sc.traced); err != nil {
		return nil, err
	}
	if err := t.tr.write(filepath.Join(e.outDir, "trace-"+w.name+".jsonl")); err != nil {
		return nil, err
	}
	rep.attribution = map[string]float64{}
	for name, self := range t.tr.selfTimes() {
		rep.attribution[name] = ratio(float64(self), float64(rep.lt.request+rep.lt.httpBase))
	}
	if w.writer {
		if rep.ing, err = e.ingestLayers(e.tw, t.ft, e.sc.traced); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// phases is what the load generator saw of the child.
type phases struct {
	warm          []queryJSON
	closed, open  []sample
	probeNS       float64   // median core-sharing probe reading of the closed phase
	before, after statsJSON // GET /stats around the closed and open phases
	writes        writerResult
	recoverS      float64
	stored        int64
	ck            *checker
}

// report emits every per-layer metric. A metric whose layer the workload
// does not exercise reads 0.
func (e *env) report(w workload, res *workloadResult, rep *layerReport, in phases) {
	lt, ing := rep.lt, rep.ing
	nq := float64(lt.queries)
	miss := float64(lt.queries - lt.cacheHits) // traced queries that ran the cascade
	put := func(name, unit string, value float64, samples int) {
		if math.IsNaN(value) || math.IsInf(value, 0) {
			value = 0
		}
		res.put("per_layer", name, unit, value, samples, nil)
	}
	perQ := func(d time.Duration, n float64) float64 { return ratio(us(d), n) }

	// audio front end (wav-hot)
	put("wav.decode_ms", "ms", perQ(lt.wavDecode, nq)/1000, lt.queries)
	put("audio.track_ms", "ms", perQ(lt.audioTrack, nq)/1000, lt.queries)
	var frames float64
	if w.wav {
		for _, qr := range in.warm {
			frames += float64(qr.VoicedFrames)
		}
	}
	put("audio.frames", "count", ratio(frames, float64(len(in.warm))), len(in.warm))

	// per-query constants
	put("ts.normalize_us", "us", perQ(lt.normalize, nq), lt.queries)
	put("dtw.envelope_us", "us", perQ(lt.envelope, nq), lt.queries)
	put("core.apply_envelope_us", "us", perQ(lt.apply, nq), lt.queries)
	put("index.plan_us", "us", perQ(lt.plan, nq), lt.queries)

	// the cascade: times from the traced run, counts from the warm-up answers
	put("index.knn_ms", "ms", perQ(lt.knn, miss)/1000, int(miss))
	put("index.rounds_per_query", "count", ratio(float64(lt.rounds), miss), int(miss))
	var c queryCounters
	var returned int
	for _, qr := range in.warm {
		c.candidates += qr.Candidates
		c.coarse += qr.CoarseSurvivors
		c.keogh += qr.KeoghSurvivors
		c.lb += qr.LBSurvivors
		c.exact += qr.ExactDTW
		c.logicalPages += qr.LogicalPages
		c.pageAccesses += qr.PageAccesses
		returned += len(qr.Matches)
	}
	nw := float64(len(in.warm))
	put("index.candidates", "count", ratio(float64(c.candidates), nw), len(in.warm))
	put("index.coarse_survivors", "count", ratio(float64(c.coarse), nw), len(in.warm))
	put("index.keogh_survivors", "count", ratio(float64(c.keogh), nw), len(in.warm))
	put("index.lb_survivors", "count", ratio(float64(c.lb), nw), len(in.warm))
	put("index.exact_dtw", "count", ratio(float64(c.exact), nw), len(in.warm))
	put("index.useful_ratio", "ratio", ratio(float64(returned), float64(c.exact)), c.exact)
	put("index.logical_pages", "count", ratio(float64(c.logicalPages), nw), len(in.warm))
	put("index.page_accesses", "count", ratio(float64(c.pageAccesses), nw), len(in.warm))

	// kernels, replayed on the candidates of each traced query
	k := lt.kernels
	put("dtw.lb_keogh_ns", "ns", ratio(float64(k.keogh.Nanoseconds()), float64(k.keoghN)), k.keoghN)
	put("dtw.lb_improved_ns", "ns", ratio(float64(k.improved.Nanoseconds()), float64(k.improvedN)), k.improvedN)
	put("dtw.banded_ns", "ns", ratio(float64(k.banded.Nanoseconds()), float64(k.bandedN)), k.bandedN)
	put("dtw.kernel_share", "ratio", ratio(float64(lt.kernelEstimate), float64(lt.knn)), int(miss))

	// R*-tree
	put("rtree.range_us", "us", perQ(k.rangeSearch, miss), int(miss))
	put("rtree.nodes_per_query", "count", ratio(float64(k.node), miss), int(miss))
	put("rtree.paged_range_us", "us", perQ(lt.pagedRange, miss), int(miss))
	put("rtree.insert_us", "us", perQ(ing.rtreeInsert, float64(ing.phrases)), ing.phrases)

	// buffer pool: counts from the child's /stats over both load phases
	bp, bp0 := in.after.BufferPool, in.before.BufferPool
	nLoad := len(in.closed) + len(in.open)
	hits, misses := float64(bp.Hits-bp0.Hits), float64(bp.Misses-bp0.Misses)
	put("pager.hit_ratio", "ratio", ratio(hits, hits+misses), int(hits+misses))
	put("pager.miss_per_query", "count", ratio(misses, float64(nLoad)), nLoad)
	put("pager.evict_per_query", "count", ratio(float64(bp.Evictions-bp0.Evictions), float64(nLoad)), nLoad)
	put("pager.pin_hit_ns", "ns", ratio(float64(rep.pins.hit.Nanoseconds()), pinProbes), pinProbes)
	put("pager.pin_miss_us", "us", ratio(us(rep.pins.miss), pinProbes), pinProbes)
	put("store.page_read_us", "us", ratio(us(rep.pins.read), pinProbes), pinProbes)

	// qbh
	put("qbh.query_ms", "ms", perQ(lt.qbhQuery, nq)/1000, lt.queries)
	put("qbh.self_us", "us", perQ(max(lt.qbhQuery-lt.normalize-lt.plan-lt.knn, 0), nq), lt.queries)
	put("qbh.build_s", "s", e.buildS, 1)
	rc, rc0 := in.after.ResultCache, in.before.ResultCache
	cHits, cMisses := float64(rc.Hits-rc0.Hits), float64(rc.Misses-rc0.Misses)
	put("qbh.cache_hit_ratio", "ratio", ratio(cHits, cHits+cMisses), int(cHits+cMisses))
	put("qbh.cache_hit_us", "us", perQ(lt.cacheHit, float64(lt.cacheHits)), lt.cacheHits)
	put("qbh.cache_invalidations", "count", float64(rc.Invalidations-rc0.Invalidations), 1)

	// write path
	n := float64(ing.n)
	put("qbh.add_ms", "ms", perQ(ing.add, n)/1000, ing.n)
	put("index.add_us", "us", perQ(ing.indexAdd, float64(ing.phrases)), ing.phrases)
	put("midi.decode_us", "us", perQ(ing.midiDecode, n), ing.n)
	put("qbh.snapshot_ms", "ms", ms(ing.snapshot), 1)
	put("store.wal_append_us", "us", perQ(ing.walAppend, n), ing.n)
	put("store.wal_bytes_per_add", "B", ratio(float64(ing.walBytes), n), ing.n)
	du, du0 := in.after.Durability, in.before.Durability
	acked := float64(len(in.writes.acked))
	put("store.fsyncs_per_add", "count", ratio(float64(du.WALSyncs-du0.WALSyncs), acked), len(in.writes.acked))
	put("store.snapshots", "count", float64(du.Snapshots-du0.Snapshots), 1)
	put("store.snapshot_bytes", "B", float64(du.SnapshotBytes), 1)

	// server and load generator
	put("server.decode_us", "us", perQ(lt.decode, nq), lt.queries)
	put("server.http_us", "us", perQ(lt.httpBase, nq), lt.queries)
	put("server.overhead_us", "us", perQ(max(lt.serial-lt.plain, 0), nq), lt.queries)
	lat, _ := latencies(in.closed)
	put("server.query_p99_ms", "ms", quantile(lat, 0.99), len(lat))
	olat, olate := latencies(in.open)
	put("server.open_p50_ms", "ms", quantile(olat, 0.5), len(olat))
	put("server.open_p99_ms", "ms", quantile(olat, 0.99), len(olat))
	lateP99 := quantile(olate, 0.99)
	put("server.open_late_p99_ms", "ms", lateP99, len(olate))
	res.Late = lateP99 > lateLimitMS
	attempted := float64(in.ck.attempted.Load())
	put("server.shed_ratio", "ratio", ratio(float64(in.ck.shed.Load()), attempted), int(attempted))

	// what the gate cannot carry on every workload, reported here
	adds := durationsMS(in.writes.lats)
	put("add_p50_ms", "ms", quantile(adds, 0.5), len(adds))
	put("add_p90_ms", "ms", quantile(adds, 0.9), len(adds))
	put("recover_s", "s", in.recoverS, 1)
	put("stored_ratio", "ratio", ratio(float64(in.stored), float64(e.midiBytes+in.writes.bytes)), 1)
	put("fail_ratio", "ratio", ratio(float64(in.ck.failed.Load()), attempted), int(attempted))

	// validity of the attribution: the share of the serial HTTP request
	// the in-process request and the bare HTTP round trip account for, and
	// what recording spans costs
	put("bench.trace_coverage", "ratio", ratio(float64(lt.request+lt.httpBase), float64(lt.serial)), lt.queries)
	put("bench.trace_overhead", "ratio", ratio(float64(lt.request), float64(lt.plain)), lt.queries)
	// how shared the cores were: the per-layer times above are as measured,
	// and read higher when this does
	put("bench.probe_ns", "ns", in.probeNS, len(in.closed))
	put("harness_s", "s", e.harness.Seconds(), 1)
}
