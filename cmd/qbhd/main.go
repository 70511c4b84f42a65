// Command qbhd serves a query-by-humming system over HTTP.
//
//	qbhd -addr :8080 -songs 500            # generated demo database
//	qbhd -addr :8080 -mididir ./corpus     # index a directory of .mid files
//	qbhd -addr :8080 -data /var/lib/qbhd   # durable: snapshot + write-ahead log
//
// API (JSON responses):
//
//	GET  /stats
//	GET  /songs
//	POST /query?top=5&delta=0.1      body: mono 16-bit PCM WAV hum
//	POST /query/pitch?top=5          body: JSON array of MIDI pitches
//	POST /songs?title=Name           body: Standard MIDI File
//	GET  /healthz                    liveness probe
//	GET  /readyz                     readiness probe (503 while draining)
//
// With -data, the database lives in a data directory: a checksummed
// snapshot plus a write-ahead log. POST /songs is acknowledged only after
// the write is fsynced (group-committed within 2 ms), the WAL is
// compacted into a fresh snapshot in the background (at least every
// -snapshot-interval) and on graceful shutdown, and startup recovers
// snapshot + WAL tail after a crash. The
// other database flags then only seed the very first start; afterwards
// the directory is the source of truth.
//
// -pool-pages N (with -data) moves the phrase column (one exact record per
// phrase: a float64 base and one byte per point) and the base tree's leaves
// out of core: they live in two page files under <data>/pages (internal
// nodes stay on the heap), each written once by the build or a later merge
// (uploads in between wait in RAM), and are served
// through a fixed-size, read-only buffer pool of N pages (8192 bytes each,
// widened if one normal-form series would not fit). Queries then touch disk only
// on pool misses, and GET /stats grows a buffer_pool block (hits, misses,
// evictions, hit rate) while each query response reports real page faults
// in page_accesses next to the paper's logical count in logical_pages. The
// page files are derived state — wiped and rebuilt on startup — so
// enabling, disabling, or resizing the pool across restarts is always safe.
//
// -result-cache-bytes N caches verified rankings under the exact identity
// of the query (result size, warping width, every normal-form sample), so
// a repeated hum is answered without touching the index and with its own
// answer; every upload invalidates the whole cache by bumping the corpus
// epoch.
// Responses served from cache carry "cached": true and GET /stats grows a
// result_cache block (the bench wav-hot workload's Zipf traffic exercises
// it).
//
// The phrase index is one STR-packed R-tree plus a flat delta of the
// phrases uploaded since, behind one RWMutex: queries share the read lock,
// an upload takes the write lock once per phrase to append it, and the
// upload that fills the delta to a quarter of the tree repacks both under
// that lock. RAM and -pool-pages nodes pack the same tree, so they report
// the same counters but page_accesses.
//
// -role selects the node's place in a replicated deployment:
//
//	qbhd -role primary -data /var/lib/qbhd -group g1 -min-sync 1
//	qbhd -role follower -data /var/lib/qbhd-f -group g1 -peers http://primary:8080
//	qbhd -role coordinator -groups 'g1=http://a:8080,http://b:8080;g2=http://c:8080'
//
// A primary is a durable node that additionally ships its songs to
// followers, in the order they were added (and, with -min-sync N,
// withholds write acks until N followers confirm). A follower's first
// start pulls all of the primary's songs from its -peers URL and builds
// its database from them with this binary's index options; it then tails
// the primary's new songs, serves reads, and rejects writes with 421;
// POST /replica/promote turns it into a primary. A coordinator holds no
// data and no index options: it forwards each hum to the POST
// /query/pitch of one replica per group and merges the answers, so every
// replica plans the query with the options its own database was built
// with. It asks every replica for /replica/state every 500 ms; a query
// skips the replicas that did not answer and moves on to a group's next
// replica when one fails, and partial results are marked "degraded" when
// no replica of a group answers. It writes each upload to the primary of
// the group its title hashes to.
//
// The groups are static: the coordinator routes over the -groups it was
// started with, and a change of layout is a restart with new flags. In a
// group of exactly two replicas the coordinator promotes the follower
// itself: when neither replica has answered those asks as primary 4 times
// in a row while the follower answers, it POSTs /replica/promote to the
// follower. In a group of three or more the other followers would keep
// pulling from the dead primary, so promotion there is manual.
//
// Flags are checked as a whole before anything is opened, bootstrapped or
// built: a combination no role can run with (a follower without -peers,
// -pool-pages without -data, a coordinator without -groups, ...) or with a
// flag the chosen role never reads (-result-cache-bytes on a coordinator,
// -min-sync off a replica, -data or -pool-pages on a coordinator) exits
// with status 2 and leaves no data directory behind.
//
// SIGINT/SIGTERM trigger a graceful shutdown: /readyz flips to 503,
// in-flight requests drain for up to 15 s, then the process exits. The
// handler runs with the server's constant limits: max(GOMAXPROCS, 2) admission
// slots, a 2 s wait for one before 429, a 15 s per-query deadline, and
// 100 000 exact DTWs per query before an answer is marked degraded.
//
// -pprof addr serves the net/http/pprof profiling endpoints on a separate
// private listener (off by default; never exposed on the API address).
//
// Example:
//
//	go run ./cmd/qbh -target twinkle -wavout hum.wav
//	curl -s --data-binary @hum.wav 'localhost:8080/query?top=3' | jq
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"warping/internal/audio"
	"warping/internal/midi"
	"warping/internal/pager"
	"warping/internal/qbh"
	"warping/internal/replica"
	"warping/internal/server"
)

// options holds the value of every qbhd flag.
type options struct {
	addr             string
	songCount        int
	midiDir          string
	dataDir          string
	snapInterval     time.Duration
	pprofAddr        string
	role             string
	group            string
	peers            string
	groupsSpec       string
	minSync          int
	poolPages        int
	resultCacheBytes int64
}

const (
	// groupCommit is the WAL fsync batching window for uploads under -data.
	// DurableOptions' zero value fsyncs every write instead.
	groupCommit = 2 * time.Millisecond
	// drainTimeout bounds the graceful-shutdown drain.
	drainTimeout = 15 * time.Second
)

// registerFlags defines every qbhd flag on fs. It is the one list of flags:
// main parses it, and the package test holds the doc comment above and
// README's Operations section to it, in both directions.
func registerFlags(fs *flag.FlagSet) *options {
	o := new(options)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&o.songCount, "songs", 200, "number of generated songs for the demo database (plus the builtins); -1 starts with no songs at all")
	fs.StringVar(&o.midiDir, "mididir", "", "index a directory of .mid files instead of generating")
	fs.StringVar(&o.dataDir, "data", "", "durable data directory (snapshot + write-ahead log); empty = memory only")
	fs.DurationVar(&o.snapInterval, "snapshot-interval", 5*time.Minute, "compact the WAL into a snapshot at least this often (0 = threshold-only)")
	fs.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this private address (e.g. localhost:6060); empty = disabled")
	fs.StringVar(&o.role, "role", "standalone", "standalone, primary, follower, or coordinator")
	fs.StringVar(&o.group, "group", "default", "shard group name (primary and follower roles)")
	fs.StringVar(&o.peers, "peers", "", "follower: the primary's base URL to bootstrap and pull from, e.g. http://primary:8080")
	fs.StringVar(&o.groupsSpec, "groups", "", `coordinator topology: "name=url,url;name=url" — one entry per shard group, replica URLs comma-separated; a two-replica group's follower is promoted automatically when its primary stops answering`)
	fs.IntVar(&o.minSync, "min-sync", 0, "primary: acknowledge a write only after this many followers confirm it (0 = asynchronous)")
	fs.IntVar(&o.poolPages, "pool-pages", 0, "out-of-core paged storage: buffer-pool capacity in pages (0 = all-in-RAM; requires -data, spills to <data>/pages)")
	fs.Int64Var(&o.resultCacheBytes, "result-cache-bytes", 0, "normalized-query result cache budget in bytes (0 = disabled): a repeated query, identical in its normal form, is answered from cache until the next upload, responses served this way carry \"cached\": true, and GET /stats grows a result_cache block")
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	if err := o.validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// validate rejects every flag combination no role can run with, and every
// flag the chosen role would silently ignore, before anything is opened,
// bootstrapped or built: a misconfigured start leaves no data directory
// behind.
func (o *options) validate() error {
	replicated := o.role == "primary" || o.role == "follower"
	holdsData := replicated || o.role == "standalone"
	switch {
	case o.role != "standalone" && o.role != "coordinator" && !replicated:
		return fmt.Errorf("unknown -role %q (standalone, primary, follower, or coordinator)", o.role)
	case !holdsData && (o.dataDir != "" || o.poolPages > 0 || o.resultCacheBytes > 0):
		return fmt.Errorf("-role %s holds no database: -data, -pool-pages and -result-cache-bytes do not apply", o.role)
	case !replicated && o.minSync > 0:
		return fmt.Errorf("-min-sync applies to -role primary or follower, not %s", o.role)
	case replicated && o.dataDir == "":
		return fmt.Errorf("-role %s requires -data: a replica's songs are durable before they are shipped or acknowledged", o.role)
	case o.role == "follower" && o.peers == "":
		return errors.New("-role follower requires -peers with the primary's base URL")
	case o.poolPages > 0 && o.dataDir == "":
		return errors.New("-pool-pages requires -data: paged storage spills under the data directory")
	case o.role == "coordinator":
		_, err := parseGroups(o.groupsSpec)
		return err
	}
	return nil
}

// service is what a role's constructor hands run.
type service struct {
	handler http.Handler
	// setReady flips /readyz.
	setReady func(bool)
	// closers run in order once the listener has drained.
	closers []func()
}

// run builds the role's service and serves it until SIGINT/SIGTERM.
func run(o *options) error {
	if o.pprofAddr != "" {
		go servePprof(o.pprofAddr)
	}
	var svc service
	var err error
	switch o.role {
	case "coordinator":
		svc, err = newCoordinator(o)
	case "primary", "follower":
		svc, err = newReplica(o)
	default:
		svc, err = newStandalone(o)
	}
	if err != nil {
		return err
	}
	srv := &http.Server{
		Addr:              o.addr,
		Handler:           logRequests(svc.handler),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", o.addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Drain: stop advertising readiness, then let in-flight requests
	// finish within the deadline.
	log.Printf("shutting down, draining for up to %v", drainTimeout)
	svc.setReady(false)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("drain deadline exceeded, closing: %v", err)
		_ = srv.Close()
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("serve error: %v", err)
	}
	for _, c := range svc.closers {
		c()
	}
	log.Printf("shutdown complete")
	return nil
}

func apiService(h *server.Handler, closers ...func()) service {
	return service{handler: h, setReady: h.SetReady, closers: closers}
}

// newCoordinator holds no data: it fans out over the groups named by
// -groups.
func newCoordinator(o *options) (service, error) {
	groups, _ := parseGroups(o.groupsSpec) // validate has seen it parse
	coord, err := server.NewCoordinator(groups)
	if err != nil {
		return service{}, err
	}
	log.Printf("coordinator ready: %d shard group(s)", len(groups))
	return apiService(server.NewBackend(coord), func() { _ = coord.Close() }), nil
}

// newStandalone serves one database: in memory, or durable under -data.
func newStandalone(o *options) (service, error) {
	if o.dataDir != "" {
		d, err := openDurable(o, o.durableOptions())
		if err != nil {
			return service{}, err
		}
		return apiService(server.NewBackend(d), closeDurable(d)), nil
	}
	sys, err := buildSystem(o.midiDir, o.songCount, nil)
	if err != nil {
		return service{}, err
	}
	enableResultCache(sys.EnableResultCache, o.resultCacheBytes)
	log.Printf("database ready: %d songs, %d phrases, pitch kernel %s",
		sys.NumSongs(), sys.NumPhrases(), audio.Kernel())
	collectBuildGarbage()
	return apiService(server.NewBackend(sys)), nil
}

// newReplica serves a durable database as a member of a replica group.
func newReplica(o *options) (service, error) {
	dopts := o.durableOptions()
	if o.role == "follower" {
		// A fresh follower builds its first database from the primary's
		// songs, with this node's own options, rather than from -songs or
		// -mididir; a directory that already holds a snapshot recovers
		// from it and builds nothing.
		songs, err := replica.BootstrapFromPrimary(o.dataDir, o.peers)
		if err != nil {
			return service{}, fmt.Errorf("bootstrap from %s: %v", o.peers, err)
		}
		pcfg := dopts.ResolvePager(o.dataDir)
		dopts.Build = func() (*qbh.System, error) { return qbh.Build(songs, systemOptions(pcfg)) }
	}
	d, err := openDurable(o, dopts)
	if err != nil {
		return service{}, err
	}
	n, err := replica.NewNode(d, replica.NodeConfig{
		Group:            o.group,
		Role:             replica.Role(o.role),
		PrimaryURL:       o.peers,
		MinSyncFollowers: o.minSync,
	})
	if err != nil {
		_ = d.Close()
		return service{}, err
	}
	log.Printf("replica ready: %s in group %q (min-sync %d)", o.role, o.group, o.minSync)
	h := server.NewBackend(n)
	// The replication endpoints are cluster-internal: only replicated
	// roles expose them.
	n.Mount(h)
	// Stop tailing the primary before compacting the local store.
	return apiService(h, n.Stop, closeDurable(d)), nil
}

// openDurable recovers (or, on the very first start, builds) the database
// under -data.
func openDurable(o *options, dopts qbh.DurableOptions) (*qbh.Durable, error) {
	d, err := qbh.OpenDurable(o.dataDir, dopts)
	if err != nil {
		return nil, err
	}
	enableResultCache(d.EnableResultCache, o.resultCacheBytes)
	log.Printf("durable database ready in %s: %d songs, %d phrases, pitch kernel %s",
		o.dataDir, d.NumSongs(), d.NumPhrases(), audio.Kernel())
	collectBuildGarbage()
	return d, nil
}

// durableOptions are the data directory's options under the flags: uploads
// group-committed within groupCommit, and a builder that comes up in the
// storage mode the node runs in, so a first paged start builds the corpus
// once.
func (o *options) durableOptions() qbh.DurableOptions {
	dopts := qbh.DurableOptions{GroupCommit: groupCommit, SnapshotInterval: o.snapInterval}
	if o.poolPages > 0 {
		dopts.Pager = &pager.Config{PoolPages: o.poolPages}
	}
	pcfg := dopts.ResolvePager(o.dataDir)
	dopts.Build = func() (*qbh.System, error) { return buildSystem(o.midiDir, o.songCount, pcfg) }
	return dopts
}

// closeDurable is the final compaction: it folds the WAL into the snapshot
// so the next start recovers instantly from a clean directory.
func closeDurable(d *qbh.Durable) func() {
	return func() {
		if err := d.Close(); err != nil {
			log.Printf("closing data dir: %v", err)
		} else {
			log.Printf("data dir compacted and closed")
		}
	}
}

// collectBuildGarbage runs one collection once the database is ready.
// Whether the build's last GC cycle ran before or after its temporaries
// died (the per-phrase normal forms and their leaf-ordered copy, ≈ 20 MB at
// 500 songs) decides the heap goal the node serves under — 38 or 57 MB —
// and so its resident size, run to run. One collection here makes it the
// live corpus every time.
func collectBuildGarbage() { runtime.GC() }

// enableResultCache wires the -result-cache-bytes flag into a built (or
// recovered) system; it defaults to off.
func enableResultCache(enable func(int64), cacheBytes int64) {
	if cacheBytes > 0 {
		enable(cacheBytes)
		log.Printf("result cache enabled: %d byte budget", cacheBytes)
	}
}

// parseGroups decodes the -groups topology spec: semicolon-separated
// groups, each "name=url,url" with replica URLs comma-separated.
func parseGroups(spec string) ([]server.GroupSpec, error) {
	if spec == "" {
		return nil, fmt.Errorf("-role coordinator requires -groups (e.g. 'g1=http://a:8080,http://b:8080;g2=http://c:8080')")
	}
	var groups []server.GroupSpec
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, urls, ok := strings.Cut(entry, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad -groups entry %q: want name=url,url", entry)
		}
		g := server.GroupSpec{Name: strings.TrimSpace(name)}
		for _, u := range strings.Split(urls, ",") {
			if u = strings.TrimSpace(u); u != "" {
				g.Replicas = append(g.Replicas, u)
			}
		}
		if len(g.Replicas) == 0 {
			return nil, fmt.Errorf("group %q has no replica URLs", g.Name)
		}
		groups = append(groups, g)
	}
	return groups, nil
}

// buildSystem builds the initial database: decoded from midiDir, or
// generated. pcfg, when non-nil, builds it out-of-core in that page space.
// One unreadable or unparseable file does not keep the daemon down: it is
// logged and left out. songCount < 0 starts empty.
func buildSystem(midiDir string, songCount int, pcfg *pager.Config) (*qbh.System, error) {
	songs, err := midi.LoadCorpus(midiDir, songCount, func(name string, err error) {
		log.Printf("skipping %s: %v", name, err)
	})
	if err != nil {
		return nil, err
	}
	return qbh.Build(songs, systemOptions(pcfg))
}

// systemOptions are the index options every qbhd database is built with;
// pcfg, when non-nil, builds it out-of-core in that page space.
func systemOptions(pcfg *pager.Config) qbh.Options {
	opts := qbh.Options{PhraseMin: 10, PhraseMax: 25}
	if pcfg != nil {
		opts.Pager = *pcfg
	}
	return opts
}

// servePprof exposes the runtime profiling endpoints on a dedicated
// listener, never on the public API mux: the flag should point at a
// loopback or otherwise private address. An explicit mux (rather than
// importing pprof for its DefaultServeMux side effect) keeps the public
// server free of profiling handlers even if it ever switches to the
// default mux.
func servePprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	log.Printf("pprof listening on %s (keep this address private)", addr)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("pprof server: %v", err)
	}
}

func logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		log.Printf("%s %s (%v)", r.Method, r.URL.Path, time.Since(start).Round(time.Millisecond))
	})
}
