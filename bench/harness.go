package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// scale sizes a run. full is what BENCHMARK.json gates; smoke exists so
// `go test ./...` can drive every code path in seconds.
type scale struct {
	name       string
	songs      int // corpus size
	pool       int // distinct hums of a pitch workload
	hot        int // distinct repeated hums of wav-hot
	warm       int // hums of the warm-up pass; mrr and the index.* counts are taken over them
	designated int // warm-up hums that also get a brute-force oracle
	setups     int // times the child is set up; setup_s is their median
	traced     int // queries of the traced run
	poolPages  int // hum-paged buffer pool, about a fifth of its page files
}

var scales = map[string]scale{
	"full":  {name: "full", songs: 500, pool: 256, hot: 64, warm: 64, designated: 24, setups: 3, traced: 64, poolPages: 256},
	"smoke": {name: "smoke", songs: 40, pool: 8, hot: 4, warm: 4, designated: 4, setups: 1, traced: 4, poolPages: 16},
}

// workload is one traffic mix against one qbhd configuration. Why each
// exists is recorded in BENCHMARK.json and README.md.
type workload struct {
	name     string
	flags    serverFlags
	paged    bool    // -pool-pages from the scale: the corpus is served out of core
	wav      bool    // POST /query with WAV bodies instead of /query/pitch
	writer   bool    // a paced POST /songs writer runs beside one reader
	openRate float64 // arrivals per second of the informational open phase
}

const (
	// wav-hot: every recording lasts between these bounds. The server's
	// cost for a WAV is proportional to its length and Zipf puts a third of
	// the traffic on one hum, so without the band the latency of a run
	// would be the length of whichever hum the seed ranked first.
	wavSecondsMin, wavSecondsMax = 5.5, 6.5

	coldShare = 0.05 // wav-hot: share of requests that are never-repeated hums
	zipfS     = 1.2  // wav-hot: skew over the hot hums
	writeRate = 10.0 // ingest-mixed: POST /songs per second

	// corpusSeed generates the songs of every run, whatever its -seed. Two
	// corpora of this size differ in what a query costs by a tenth either
	// way (denser or sparser feature space, so more or fewer candidates),
	// which is more than the differences the benchmark exists to resolve;
	// the hums, their order and the uploads do follow -seed.
	corpusSeed = 1
)

// The open rates are frozen at roughly half of what the closed phase
// sustained on the 2-core reference box with the full scale.
var workloads = []workload{
	{name: "hum-ram", openRate: 200},
	{name: "hum-paged", openRate: 40, paged: true, flags: serverFlags{data: true}},
	{name: "wav-hot", openRate: 35, wav: true, flags: serverFlags{resultCacheBytes: 64 << 20}},
	{name: "ingest-mixed", openRate: 50, writer: true, flags: serverFlags{data: true, snapshotInterval: 2 * time.Second}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// humQuery is one query: who was hummed, the request body, and (for designated
// hums) the pitch series the server will derive from that body.
type humQuery struct {
	song  int64
	body  []byte
	pitch []float64
}

// oracle is the exact answer for one designated hum: the best banded-DTW
// distance of every base-corpus song.
type oracle struct {
	q      []float64 // normal form of the query
	bySong []float64
}

// humSet is the query population of one kind of workload.
type humSet struct {
	pool    []humQuery // repeated hums; the first sc.warm are the warm-up pass
	cold    []humQuery // wav-hot only: each sent at most once
	oracles []oracle   // for pool[:sc.designated]
}

// env is everything the workloads of one invocation share.
type env struct {
	root    string // module root
	outDir  string // bench/out
	tmp     string // removed on exit
	qbhd    string // child binary
	sc      scale
	seed    int64
	seconds float64
	trace   int
	clients int

	harness time.Duration // input generation and oracle time, outside setup_s
	buildS  float64       // of which building the twin, the program's own start-up work

	midiDir   string
	midis     [][]byte
	midiBytes int64
	melodies  []melody
	tw        *twin
	sets      map[bool]*humSet // by workload.wav
	adds      [][]byte         // ingest-mixed uploads

	mu       sync.Mutex
	children map[*child]struct{}
}

// findRoot walks up from the working directory to the module root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, filepath.FromSlash(qbhdPackage))); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: run from inside the repository (no go.mod with cmd/qbhd above the working directory)")
		}
		dir = parent
	}
}

func newEnv(sc scale, seed int64, seconds float64, trace int) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, outDir: filepath.Join(root, "bench", "out"), sc: sc, seed: seed, seconds: seconds,
		trace: trace, clients: min(runtime.NumCPU(), 4), sets: map[bool]*humSet{}, children: map[*child]struct{}{}}
	if err := os.MkdirAll(filepath.Join(e.outDir, "bin"), 0o755); err != nil {
		return nil, err
	}
	if e.tmp, err = os.MkdirTemp(e.outDir, "tmp-"); err != nil {
		return nil, err
	}
	// Built once per checkout; go build decides whether it is stale.
	e.qbhd = filepath.Join(e.outDir, "bin", "qbhd")
	build := exec.Command("go", "build", "-o", e.qbhd, qbhdPackage)
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		e.close()
		return nil, fmt.Errorf("building qbhd: %v\n%s", err, out)
	}
	return e, nil
}

// close kills every child still running and removes the temp dirs. Safe to
// call more than once and from the signal handler.
func (e *env) close() {
	e.mu.Lock()
	kids := make([]*child, 0, len(e.children))
	for c := range e.children {
		kids = append(kids, c)
	}
	e.mu.Unlock()
	for _, c := range kids {
		c.kill()
	}
	_ = os.RemoveAll(e.tmp)
}

// timed charges fn to harness_s.
func (e *env) timed(fn func() error) error {
	t0 := time.Now()
	defer func() { e.harness += time.Since(t0) }()
	return fn()
}

// streamSeed derives an independent RNG seed per (run seed, stream).
func (e *env) streamSeed(stream int64) int64 {
	return int64(uint64(e.seed)*0x9E3779B97F4A7C15 + uint64(stream)*0xBF58476D1CE4E5B9)
}

func (e *env) rng(stream int64) *rand.Rand { return rand.New(rand.NewSource(e.streamSeed(stream))) }

// corpus generates the songs, writes them as the -mididir qbhd reads, and
// builds the twin over the melodies decoded from those bytes.
func (e *env) corpus() error {
	if e.tw != nil {
		return nil
	}
	return e.timed(func() (err error) {
		if e.midis, e.melodies, err = genCorpus(corpusSeed, e.sc.songs); err != nil {
			return err
		}
		e.midiDir = filepath.Join(e.tmp, "midi")
		if err := os.MkdirAll(e.midiDir, 0o755); err != nil {
			return err
		}
		for i, b := range e.midis {
			// %06d keeps directory order equal to id order.
			if err := os.WriteFile(filepath.Join(e.midiDir, fmt.Sprintf("%06d.mid", i)), b, 0o644); err != nil {
				return err
			}
			e.midiBytes += int64(len(b))
		}
		t0 := time.Now()
		e.tw, err = buildTwin(e.melodies)
		e.buildS = time.Since(t0).Seconds()
		return err
	})
}

// parallel runs fn(i) for i in [0,n) on at most NumCPU goroutines and
// returns the first error.
func parallel(n int, fn func(i int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, n)
	sem := make(chan struct{}, runtime.NumCPU())
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// hums generates the query population for pitch or WAV workloads. Songs
// are drawn without replacement while they last, so no two hums share a
// phrase and the result cache's quantised key cannot confuse them. Each
// hum has its own RNG stream, so the output does not depend on the
// scheduling of the goroutines that render them.
func (e *env) hums(wav bool) (*humSet, error) {
	if hs := e.sets[wav]; hs != nil {
		return hs, nil
	}
	if err := e.corpus(); err != nil {
		return nil, err
	}
	hs := &humSet{}
	err := e.timed(func() error {
		nPool, nCold, stream := e.sc.pool, 0, int64(1<<20)
		if wav {
			nPool, stream = e.sc.hot, 2<<20
			// Enough never-repeated hums for a box half again as fast as the
			// reference one (about 145 requests/s over the closed and open
			// phases); the schedule wraps around if they still run out.
			nCold = int(coldShare*200*e.seconds*1.3) + 8
		}
		picks, err := e.pickRenditions(nPool+nCold, stream, wav)
		if err != nil {
			return err
		}
		all := make([]humQuery, len(picks))
		err = parallel(len(all), func(i int) error {
			pk := picks[i]
			h := humQuery{song: int64(pk.song)}
			if !wav {
				h.pitch = renderContour(pk.phrase, e.rng(pk.src))
				h.body, _ = json.Marshal(h.pitch)
				all[i] = h
				return nil
			}
			b, err := renderWAV(pk.phrase, e.rng(pk.src))
			if err != nil {
				return err
			}
			if i < e.sc.designated {
				samples, rate, err := decodeWAV(b)
				if err != nil {
					return err
				}
				h.pitch = trackPitch(samples, rate)
			}
			h.body = b
			all[i] = h
			return nil
		})
		if err != nil {
			return err
		}
		hs.pool, hs.cold = all[:nPool], all[nPool:]
		hs.oracles = make([]oracle, min(e.sc.designated, nPool))
		band := bandRadius()
		return parallel(len(hs.oracles), func(i int) error {
			o := oracle{q: e.tw.normalize(hs.pool[i].pitch), bySong: make([]float64, len(e.melodies))}
			for s := range o.bySong {
				o.bySong[s] = -1
			}
			for j, x := range e.tw.normals {
				d := bandedDTW(o.q, x, band)
				if s := e.tw.songOf[j]; o.bySong[s] < 0 || d < o.bySong[s] {
					o.bySong[s] = d
				}
			}
			hs.oracles[i] = o
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	e.sets[wav] = hs
	return hs, nil
}

// rendition is one performance to render: a phrase of a song and the RNG
// stream the singer draws from.
type rendition struct {
	song   int
	phrase melody
	src    int64
}

// pickRenditions chooses n performances, walking a seeded permutation of
// the songs so that none is hummed twice before all have been. A WAV
// rendition must last between wavSecondsMin and wavSecondsMax; the length is
// known from the cheap pitch contour, and the audio is rendered later from
// an RNG in the same state. A song whose phrases are all too long or too
// short is passed over.
func (e *env) pickRenditions(n int, stream int64, wav bool) ([]rendition, error) {
	const tries = 16 // renditions sized per visit to a song
	order := e.rng(stream).Perm(len(e.melodies))
	picks := make([]rendition, 0, n)
	for visit := 0; len(picks) < n; visit++ {
		if visit >= 4*len(order)+4*n {
			return nil, fmt.Errorf("bench: only %d of %d hums fit %g-%g s on this corpus", len(picks), n, wavSecondsMin, wavSecondsMax)
		}
		song := order[visit%len(order)]
		phrases := segmentPhrases(e.melodies[song])
		for try := 0; try < tries; try++ {
			src := stream + 1 + int64(visit*tries+try)
			ph := phrases[e.rng(-src).Intn(len(phrases))]
			if s := humSeconds(ph, e.rng(src)); s < 1 || wav && (s < wavSecondsMin || s > wavSecondsMax) {
				continue
			}
			picks = append(picks, rendition{song: song, phrase: ph, src: src})
			break
		}
	}
	return picks, nil
}

// uploads generates the songs the ingest-mixed writer posts.
func (e *env) uploads(n int) error {
	if len(e.adds) >= n {
		return nil
	}
	return e.timed(func() (err error) {
		e.adds, _, err = genCorpus(e.streamSeed(3<<20), n)
		return err
	})
}

// inputsHash fingerprints everything a workload feeds the program.
func inputsHash(midis [][]byte, hs *humSet, adds [][]byte, sched []int) string {
	h := sha256.New()
	put := func(b []byte) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	for _, b := range midis {
		put(b)
	}
	for _, hm := range hs.pool {
		put(hm.body)
	}
	for _, hm := range hs.cold {
		put(hm.body)
	}
	for _, b := range adds {
		put(b)
	}
	for _, s := range sched {
		put([]byte(strconv.Itoa(s)))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ---- the child process ---------------------------------------------------

type child struct {
	e    *env
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *os.File
	done chan struct{}
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// start execs qbhd for workload w and waits until /readyz answers 200.
// stderr goes to bench/out/qbhd-<workload>.log.
func (e *env) start(w workload, dataDir string) (*child, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	flags := w.flags
	if w.paged {
		flags.poolPages = e.sc.poolPages
	}
	logf, err := os.OpenFile(filepath.Join(e.outDir, "qbhd-"+w.name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	c := &child{e: e, base: "http://" + addr, log: logf, done: make(chan struct{})}
	c.cmd = exec.Command(e.qbhd, qbhdArgs(addr, e.midiDir, dataDir, flags)...)
	c.cmd.Stderr = logf
	if err := c.cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	e.mu.Lock()
	e.children[c] = struct{}{}
	e.mu.Unlock()
	go func() {
		_ = c.cmd.Wait()
		close(c.done)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-c.done:
			c.kill()
			return nil, fmt.Errorf("qbhd exited during start-up; see %s", logf.Name())
		default:
		}
		if resp, err := http.Get(c.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.kill()
	return nil, fmt.Errorf("qbhd not ready after 60s; see %s", logf.Name())
}

// kill SIGKILLs the child and waits for it to be reaped.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	<-c.done
	c.e.mu.Lock()
	if _, ok := c.e.children[c]; ok {
		delete(c.e.children, c)
		c.log.Close()
	}
	c.e.mu.Unlock()
}

// rssMiB is the child's peak resident set (VmHWM).
func (c *child) rssMiB() (float64, error) {
	const key = "VmHWM:"
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func (c *child) getJSON(path string, v interface{}) error {
	resp, err := http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return err
	})
	return total, err
}
