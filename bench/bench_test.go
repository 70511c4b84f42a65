package main

import (
	"math"
	"regexp"
	"sort"
	"testing"
	"time"
)

// TestSmoke runs all four workloads at smoke scale against a real qbhd
// child, with tracing on so every code path executes, and holds the output
// to BENCHMARK.json: every metric it names is emitted exactly once per
// workload, finite and well spelled, and nothing else is.
func TestSmoke(t *testing.T) {
	e, err := newEnv(scales["smoke"], 1, 0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	spec, err := loadSpec(e.root)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{} // name -> unit
	for _, m := range spec.EndToEnd {
		want[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want[m.Name] = m.Unit
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	spelled := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, spec.Workloads[i].Name, w.name)
		}
		res, err := e.run(w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, res.Failed, res.Attempted, res.Failures)
		}
		seen := map[string]bool{}
		for _, m := range res.Metrics {
			switch {
			case seen[m.Name]:
				t.Errorf("%s: %s emitted twice", w.name, m.Name)
			case want[m.Name] == "":
				t.Errorf("%s: %s is not in BENCHMARK.json", w.name, m.Name)
			case want[m.Name] != m.Unit:
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w.name, m.Name, m.Unit, want[m.Name])
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s: %s = %v", w.name, m.Name, m.Value)
			case !spelled.MatchString(m.Name):
				t.Errorf("%s: bad metric name %q", w.name, m.Name)
			}
			if m.Kind == "end_to_end" && m.Value == 0 {
				t.Errorf("%s: gated metric %s is 0", w.name, m.Name)
			}
			seen[m.Name] = true
		}
		for name := range want {
			if !seen[name] {
				t.Errorf("%s: %s missing", w.name, name)
			}
		}
	}

	t.Run("oracle", func(t *testing.T) { oracleRejects(t, e) })
	t.Run("inputs", func(t *testing.T) { inputsFollowSeed(t, e) })
}

// oracleRejects: the comparer accepts the brute-force answer and rejects
// it with two ids swapped, one distance perturbed, or marked degraded.
func oracleRejects(t *testing.T, e *env) {
	hs, err := e.hums(false)
	if err != nil {
		t.Fatal(err)
	}
	ck := &checker{tw: e.tw, hs: hs, baseSongs: len(e.melodies)}
	var exact queryJSON
	for s, d := range hs.oracles[0].bySong {
		exact.Matches = append(exact.Matches, matchJSON{SongID: int64(s), Dist: d})
	}
	sort.Slice(exact.Matches, func(i, j int) bool { return exact.Matches[i].Dist < exact.Matches[j].Dist })
	exact.Matches = exact.Matches[:topK]
	if err := ck.compare(0, exact); err != nil {
		t.Fatalf("exact answer rejected: %v", err)
	}
	mutate := func(fn func(*queryJSON)) queryJSON {
		q := exact
		q.Matches = append([]matchJSON(nil), exact.Matches...)
		fn(&q)
		return q
	}
	for name, q := range map[string]queryJSON{
		"swapped ids": mutate(func(q *queryJSON) {
			q.Matches[1].SongID, q.Matches[2].SongID = q.Matches[2].SongID, q.Matches[1].SongID
		}),
		"perturbed distance": mutate(func(q *queryJSON) { q.Matches[3].Dist += 1e-6 }),
		"degraded":           mutate(func(q *queryJSON) { q.Degraded = true }),
		"missing closer song": mutate(func(q *queryJSON) {
			var far matchJSON
			for s, d := range hs.oracles[0].bySong {
				if d > far.Dist {
					far = matchJSON{SongID: int64(s), Dist: d}
				}
			}
			copy(q.Matches, q.Matches[1:])
			q.Matches[topK-1] = far
		}),
	} {
		if err := ck.compare(0, q); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// inputsFollowSeed: the same seed gives the same inputs, another seed others.
func inputsFollowSeed(t *testing.T, e *env) {
	sha := func(seed int64) map[string]string {
		e2, err := newEnv(e.sc, seed, e.seconds, e.trace)
		if err != nil {
			t.Fatal(err)
		}
		defer e2.close()
		out := map[string]string{}
		for _, w := range workloads {
			in, err := e2.prepare(w, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			out[w.name] = in.sha
		}
		return out
	}
	a, b, c := sha(7), sha(7), sha(8)
	for _, w := range workloads {
		if a[w.name] != b[w.name] {
			t.Errorf("%s: seed 7 gave two different inputs", w.name)
		}
		if a[w.name] == c[w.name] {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", w.name)
		}
	}
}

// TestAdjust: requests are reported at the reference probe reading by the
// readings around them, with the exponent their own run shows; an
// interrupted reading counts as a shared core, no more.
func TestAdjust(t *testing.T) {
	at := func(sec float64) time.Duration { return time.Duration(sec * float64(time.Second)) }
	var probes []reading
	for i := 0; i < 100; i++ { // one second unshared, one shared, with one reading interrupted
		probes = append(probes, reading{at: at(float64(i) / 100), ns: refProbeNS}, reading{at: at(3 + float64(i)/100), ns: 2 * refProbeNS})
	}
	probes[21].ns = 500
	run := func(sharedLat time.Duration) (float64, []sample) {
		var res []sample
		for i := 0; i < 50; i++ {
			res = append(res, sample{at: at(float64(i) / 50), lat: 4 * time.Millisecond}, sample{at: at(3 + float64(i)/50), lat: sharedLat})
		}
		res = append(res, sample{at: at(9), lat: sharedLat}) // no reading within probeAround: the nearest
		g, _ := adjust(res, probes)
		return g, res
	}
	g, res := run(8 * time.Millisecond) // latency follows the probe
	if math.Abs(g-1) > 0.01 {
		t.Errorf("latency proportional to the probe: exponent %.3f, want 1", g)
	}
	for i, s := range res {
		if math.Abs(s.adj-4) > 0.02 {
			t.Errorf("sample %d: %v adjusted to %.3f ms, want 4", i, s.lat, s.adj)
		}
	}
	if g, _ := run(4 * time.Millisecond); g > 0.1 { // latency ignores the probe
		t.Errorf("latency independent of the probe: exponent %.3f, want near 0", g)
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		a, b, spread, bound float64
		higher              bool
		want                string
	}{
		{10, 10.5, 0.02, 0.1, false, "ok"},
		{10, 11.5, 0.02, 0.1, false, "worse"},
		{10, 8, 0.02, 0.1, false, "ok"},           // lower is better and it got lower
		{100, 85, 0.02, 0.1, true, "worse"},       // higher is better and it fell
		{100, 120, 0.02, 0.1, true, "ok"},         //
		{10, 11.5, 0.2, 0.1, false, "unresolved"}, // noise wider than the bound
	} {
		if got, _ := verdict(c.a, c.b, c.spread, c.bound, c.higher); got != c.want {
			t.Errorf("verdict(%v -> %v, spread %v, bound %v, higher=%v) = %s, want %s", c.a, c.b, c.spread, c.bound, c.higher, got, c.want)
		}
	}
}
