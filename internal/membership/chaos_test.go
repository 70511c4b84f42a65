// Membership chaos tests: replicas and seeds run as real OS processes
// (the test binary re-execed in helper mode) and die by SIGKILL. The
// parent asserts the cluster-level contracts of dynamic membership:
//
//   - promote-under-load: a primary SIGKILLed mid write-stream is
//     replaced automatically (director election by acked WAL watermark)
//     and not one acknowledged write is lost;
//   - rebalance-under-load: adding a shard group mid write-stream
//     migrates placement onto the new ring with zero lost acked writes
//     and query results bit-identical to a single-node system;
//   - seed death: the cluster keeps serving reads AND writes while the
//     seed is down, and a restarted seed relearns the whole view from
//     heartbeats alone.
package membership_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"warping/internal/hum"
	"warping/internal/index"
	"warping/internal/membership"
	"warping/internal/music"
	"warping/internal/qbh"
	"warping/internal/replica"
	"warping/internal/retry"
	"warping/internal/server"
	"warping/internal/store"
	"warping/internal/ts"
)

const (
	helperEnv = "QBH_MCHAOS_HELPER"
	// heartbeat is the gossip interval every helper and director runs at;
	// failover fires after ~3 missed beats.
	heartbeat = 100 * time.Millisecond
)

var chaosOpts = qbh.Options{PhraseMin: 8, PhraseMax: 20}

func chaosCorpus(seed int64, offset int64) []music.Song {
	songs := music.GenerateSongs(seed, 8, 100, 200)
	for i := range songs {
		songs[i].ID += offset
	}
	return songs
}

func TestMain(m *testing.M) {
	switch os.Getenv(helperEnv) {
	case "replica":
		replicaMain()
		return
	case "seed":
		seedMain()
		return
	}
	os.Exit(m.Run())
}

// replicaMain is a re-execed replica process: durable store, replication
// node, full HTTP API, and a gossip agent announcing it to the seeds.
func replicaMain() {
	dir := os.Getenv("QBH_MCHAOS_DIR")
	role := replica.Role(os.Getenv("QBH_MCHAOS_ROLE"))
	primaryURL := os.Getenv("QBH_MCHAOS_PRIMARY")
	seed, _ := strconv.ParseInt(os.Getenv("QBH_MCHAOS_CORPUS"), 10, 64)
	offset, _ := strconv.ParseInt(os.Getenv("QBH_MCHAOS_OFFSET"), 10, 64)
	minSync, _ := strconv.Atoi(os.Getenv("QBH_MCHAOS_MINSYNC"))

	// A negative corpus seed starts the node empty — how a group joining
	// an existing ring must come up (it is filled by migration).
	var base []music.Song
	if seed >= 0 {
		base = chaosCorpus(seed, offset)
	}
	d, err := qbh.OpenDurable(dir, qbh.DurableOptions{
		FS:                 store.OS(),
		SnapshotWALRecords: -1,
		SnapshotWALBytes:   -1,
		Build:              func() (*qbh.System, error) { return qbh.Build(base, chaosOpts) },
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "helper: open durable: %v\n", err)
		os.Exit(1)
	}
	n, err := replica.NewNode(d, replica.NodeConfig{
		Group:            os.Getenv("QBH_MCHAOS_GROUP"),
		Role:             role,
		PrimaryURL:       primaryURL,
		MinSyncFollowers: minSync,
		PollWait:         200 * time.Millisecond,
		Backoff:          retry.Backoff{Base: 10 * time.Millisecond, Max: 200 * time.Millisecond},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "helper: new node: %v\n", err)
		os.Exit(1)
	}
	h := server.NewBackend(n, server.Config{})
	n.Mount(h)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "helper: listen: %v\n", err)
		os.Exit(1)
	}
	self := "http://" + ln.Addr().String()
	if seeds := os.Getenv("QBH_MCHAOS_SEEDS"); seeds != "" {
		id := os.Getenv("QBH_MCHAOS_ID")
		// The agent gossips until the process is killed.
		if _, err := membership.StartAgent(membership.AgentConfig{
			Seeds:    strings.Split(seeds, ","),
			Interval: heartbeat,
			Self:     func() membership.NodeRecord { return n.MembershipRecord(id, self) },
			OnView:   func(v membership.View) { n.ObserveView(id, v) },
		}); err != nil {
			fmt.Fprintf(os.Stderr, "helper: agent: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Printf("ADDR=%s\n", self)
	_ = (&http.Server{Handler: h}).Serve(ln)
}

// seedMain is a re-execed seed process: registry, failover director, and
// rebalance migrator — the full control plane, killable as one unit.
func seedMain() {
	reg := membership.NewRegistry(membership.RegistryConfig{
		BootstrapGroups: strings.Split(os.Getenv("QBH_MCHAOS_BOOTSTRAP"), ","),
	})
	rb := membership.NewRebalancer(reg, membership.RebalancerConfig{
		SettleDelay: 4 * heartbeat,
		Backoff:     retry.Backoff{Base: 20 * time.Millisecond, Max: 200 * time.Millisecond},
	})
	reg.SetRebalanceHook(func(r membership.Rebalance) {
		if err := rb.Run(context.Background(), r); err != nil {
			fmt.Fprintf(os.Stderr, "helper: %v\n", err)
		}
	})
	go membership.NewDirector(reg, membership.DirectorConfig{
		Interval:    heartbeat,
		MissedBeats: 3,
	}).Run(context.Background())

	mux := http.NewServeMux()
	reg.Mount(mux)
	addr := os.Getenv("QBH_MCHAOS_ADDR")
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "helper: listen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("ADDR=http://%s\n", ln.Addr().String())
	_ = (&http.Server{Handler: mux}).Serve(ln)
}

type proc struct {
	cmd *exec.Cmd
	url string
}

func startProc(t *testing.T, kind string, env map[string]string) *proc {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), helperEnv+"="+kind)
	for k, v := range env {
		cmd.Env = append(cmd.Env, k+"="+v)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &proc{cmd: cmd}
	t.Cleanup(func() { p.kill() })

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if s, ok := strings.CutPrefix(sc.Text(), "ADDR="); ok {
				addrCh <- s
				return
			}
		}
		close(addrCh)
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok {
			t.Fatalf("%s process exited before reporting its address", kind)
		}
		p.url = addr
	case <-time.After(60 * time.Second):
		t.Fatalf("%s process never reported its address", kind)
	}
	return p
}

func (p *proc) kill() {
	if p.cmd.Process != nil {
		_ = p.cmd.Process.Kill()
		_, _ = p.cmd.Process.Wait()
	}
}

func startReplica(t *testing.T, seedURL, id, group, role, primaryURL string, corpusSeed, offset int64, minSync int) *proc {
	t.Helper()
	env := map[string]string{
		"QBH_MCHAOS_DIR":     t.TempDir(),
		"QBH_MCHAOS_ROLE":    role,
		"QBH_MCHAOS_GROUP":   group,
		"QBH_MCHAOS_PRIMARY": primaryURL,
		"QBH_MCHAOS_CORPUS":  strconv.FormatInt(corpusSeed, 10),
		"QBH_MCHAOS_OFFSET":  strconv.FormatInt(offset, 10),
		"QBH_MCHAOS_MINSYNC": strconv.Itoa(minSync),
		"QBH_MCHAOS_SEEDS":   seedURL,
		"QBH_MCHAOS_ID":      id,
	}
	p := startProc(t, "replica", env)
	waitState(t, p.url)
	return p
}

func waitState(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + replica.PathState)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("replica at %s never became ready", url)
}

func nodeState(t *testing.T, url string) replica.StateResponse {
	t.Helper()
	var st replica.StateResponse
	resp, err := http.Get(url + replica.PathState)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitSynced(t *testing.T, primaryURL, followerURL string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		p, f := nodeState(t, primaryURL), nodeState(t, followerURL)
		if p.Digest == f.Digest && p.Songs == f.Songs {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("follower never synced with primary")
}

// fetchView GETs a seed's current merged view.
func fetchView(seedURL string) (membership.View, error) {
	resp, err := http.Get(seedURL + membership.PathView)
	if err != nil {
		return membership.View{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return membership.View{}, fmt.Errorf("seed view: %s, %v", resp.Status, err)
	}
	return membership.DecodeView(data)
}

// waitView polls the seed until its view satisfies ok.
func waitView(t *testing.T, seedURL string, what string, ok func(membership.View) bool) membership.View {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, err := fetchView(seedURL)
		if err == nil && ok(v) {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("seed view never reached %q (last: %s, err %v)", what, membership.EncodeView(v), err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func seedCoordinator(t *testing.T, seedURL string) *server.Coordinator {
	t.Helper()
	coord, err := server.NewCoordinator(server.CoordinatorConfig{
		Seeds:          []string{seedURL},
		ReplicaTimeout: 10 * time.Second,
		HedgeAfter:     150 * time.Millisecond,
		Backoff:        retry.Backoff{Base: 10 * time.Millisecond, Max: 100 * time.Millisecond},
		Logf:           func(string, ...interface{}) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = coord.Close() })
	return coord
}

func chaosPitch(songs []music.Song, which int, seed int64) ts.Series {
	r := rand.New(rand.NewSource(seed))
	return hum.StripSilence(hum.GoodSinger().RenderPitch(songs[which%len(songs)].Melody, r))
}

// ackWriter streams writes through the coordinator, recording every song
// the cluster acknowledged (with its assigned id and melody, so tests can
// rebuild a reference system). Failed writes are fine (they are not
// acked); lost acked writes are the bug the chaos tests hunt.
type ackWriter struct {
	mu    sync.Mutex
	acked []music.Song
}

func (w *ackWriter) run(ctx context.Context, coord *server.Coordinator, prefix string, melodies []music.Song) {
	for i := 0; ctx.Err() == nil; i++ {
		title := fmt.Sprintf("%s-%d", prefix, i)
		if song, err := coord.AddSongTitled(title, melodies[i%len(melodies)].Melody); err == nil {
			w.mu.Lock()
			w.acked = append(w.acked, song)
			w.mu.Unlock()
		}
		select {
		case <-ctx.Done():
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func (w *ackWriter) ackedSongs() []music.Song {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]music.Song(nil), w.acked...)
}

func (w *ackWriter) ackedTitles() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]string, len(w.acked))
	for i, s := range w.acked {
		out[i] = s.Title
	}
	return out
}

func (w *ackWriter) count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.acked)
}

// requireAllTitles fails unless every acked title is present in songs.
func requireAllTitles(t *testing.T, songs []music.Song, acked []string, when string) {
	t.Helper()
	have := make(map[string]bool, len(songs))
	for _, s := range songs {
		have[s.Title] = true
	}
	for _, title := range acked {
		if !have[title] {
			t.Fatalf("acknowledged write %q lost (%s)", title, when)
		}
	}
}

// TestChaosMembershipPromoteUnderLoad SIGKILLs a semi-sync primary while
// writes and queries stream through a seed-discovered coordinator. The
// director must promote the follower, writes must resume against it
// without reconfiguration, and every acknowledged write — before and
// after the kill — must be present on the promoted node.
func TestChaosMembershipPromoteUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos tests spawn real processes")
	}
	seed := startProc(t, "seed", map[string]string{"QBH_MCHAOS_BOOTSTRAP": "g"})
	primary := startReplica(t, seed.url, "p1", "g", "primary", "", 110, 0, 1)
	follower := startReplica(t, seed.url, "f1", "g", "follower", primary.url, 110, 0, 0)
	waitSynced(t, primary.url, follower.url)
	waitView(t, seed.url, "both nodes and a ring", func(v membership.View) bool {
		return len(v.Nodes) == 2 && !v.Ring.Empty()
	})

	coord := seedCoordinator(t, seed.url)
	corpus := chaosCorpus(110, 0)
	extras := chaosCorpus(111, 10000)

	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	w := &ackWriter{}
	writerDone := make(chan struct{})
	go func() { defer close(writerDone); w.run(ctx, coord, "pload", extras) }()

	var queryErrs int
	queryDone := make(chan struct{})
	go func() {
		defer close(queryDone)
		for round := 0; ctx.Err() == nil; round++ {
			qctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_, _, err := coord.QueryCtx(qctx, chaosPitch(corpus, round, int64(round)), 3, 0.1, index.Limits{})
			cancel()
			if err != nil && ctx.Err() == nil {
				queryErrs++
			}
			time.Sleep(30 * time.Millisecond)
		}
	}()

	// Let a few writes get acknowledged, then kill the primary cold.
	waitFor(t, 30*time.Second, "first acked writes", func() bool { return w.count() >= 3 })
	preKill := w.count()
	primary.kill()

	// The director must promote the follower and writes must resume: wait
	// for acked writes to grow well past the pre-kill count.
	waitFor(t, 60*time.Second, "writes resumed after failover", func() bool {
		return w.count() >= preKill+3
	})
	if nodeState(t, follower.url).Role != replica.RolePrimary {
		t.Fatal("follower did not take over as primary")
	}

	stop()
	<-writerDone
	<-queryDone

	// Zero-loss: every acknowledged write lives on the promoted node.
	sys := serverSongs(t, follower.url)
	requireAllTitles(t, sys, w.ackedTitles(), "after SIGKILL + automatic promotion")
	if queryErrs > 0 {
		t.Logf("note: %d transient query errors during failover (tolerated; zero-loss held)", queryErrs)
	}
	// And the cluster is healthy again: a final query answers cleanly.
	if _, _, err := coord.QueryCtx(context.Background(), chaosPitch(corpus, 0, 99), 3, 0.1, index.Limits{}); err != nil {
		t.Fatalf("query after failover: %v", err)
	}
}

// TestChaosMembershipRebalanceUnderLoad adds a third shard group while
// writes stream through the coordinator: the seed proposes the new ring,
// dual-writes cover the window, the migrator snapshot-ships the moving
// songs, and the commit cuts reads over. Afterwards: zero lost acked
// writes and query results bit-identical to a single-node system over
// the coordinator's corpus.
func TestChaosMembershipRebalanceUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos tests spawn real processes")
	}
	seed := startProc(t, "seed", map[string]string{"QBH_MCHAOS_BOOTSTRAP": "a,b"})
	pa := startReplica(t, seed.url, "p-a", "a", "primary", "", 120, 0, 0)
	pb := startReplica(t, seed.url, "p-b", "b", "primary", "", 121, 2000, 0)
	waitView(t, seed.url, "ring v1 over a,b", func(v membership.View) bool {
		return v.Ring.Version == 1 && len(v.Ring.Groups) == 2
	})
	_ = pa
	_ = pb

	coord := seedCoordinator(t, seed.url)
	extras := chaosCorpus(122, 20000)

	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	w := &ackWriter{}
	writerDone := make(chan struct{})
	go func() { defer close(writerDone); w.run(ctx, coord, "rload", extras) }()
	waitFor(t, 30*time.Second, "writes flowing", func() bool { return w.count() >= 3 })

	// Group c joins empty (new groups receive songs only through
	// migration): its primary gossips in, then the operator asks the seed
	// to rebalance onto it.
	startReplica(t, seed.url, "p-c", "c", "primary", "", -1, 0, 0)
	waitView(t, seed.url, "group c in view", func(v membership.View) bool {
		for _, rec := range v.Nodes {
			if rec.Group == "c" {
				return true
			}
		}
		return false
	})
	body, _ := json.Marshal(map[string]string{"op": "add", "group": "c"})
	resp, err := http.Post(seed.url+membership.PathGroups, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rebalance proposal: %s", resp.Status)
	}

	// The migration runs while writes continue; the commit bumps the ring.
	waitView(t, seed.url, "ring v2 including c", func(v membership.View) bool {
		return v.Ring.Version == 2 && v.Ring.Contains("c") && !v.Rebalance.Active()
	})
	// Keep writing a little on the new ring, then stop.
	post := w.count()
	waitFor(t, 30*time.Second, "writes on the new ring", func() bool { return w.count() >= post+3 })
	stop()
	<-writerDone

	// Give the coordinator one gossip round to see the committed ring,
	// then check zero loss + bit-identical results.
	waitFor(t, 15*time.Second, "coordinator on ring v2", func() bool {
		ringVersion := uint64(0)
		coord.Stats(func(_ string, v any) { ringVersion = v.(membership.ViewStats).RingVersion })
		return ringVersion == 2
	})
	songs := coord.Songs()
	requireAllTitles(t, songs, w.ackedTitles(), "after consistent-hash rebalance")

	// The cluster must hold exactly the two base corpora plus the acked
	// writes — nothing lost, nothing stray — and queries against it must
	// be bit-identical to a single node over that corpus. (The coordinator
	// reports ids and titles only; melodies come from the known inputs.)
	reference := chaosCorpus(120, 0)
	reference = append(reference, chaosCorpus(121, 2000)...)
	reference = append(reference, w.ackedSongs()...)
	wantSet := make(map[int64]string, len(reference))
	for _, s := range reference {
		wantSet[s.ID] = s.Title
	}
	if len(songs) != len(wantSet) {
		t.Fatalf("coordinator reports %d songs, reference has %d", len(songs), len(wantSet))
	}
	for _, s := range songs {
		if title, ok := wantSet[s.ID]; !ok || title != s.Title {
			t.Fatalf("cluster song %d %q not in reference (want title %q)", s.ID, s.Title, title)
		}
	}

	single, err := qbh.Build(reference, chaosOpts)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		pitch := chaosPitch(reference, round*5, int64(300+round))
		want, _, err := single.QueryCtx(context.Background(), pitch, 3, 0.1, index.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := coord.QueryCtx(context.Background(), pitch, 3, 0.1, index.Limits{})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if stats.Degraded {
			t.Fatalf("round %d degraded after rebalance", round)
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: %d matches, single node had %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i].SongID != want[i].SongID {
				t.Fatalf("round %d rank %d: song %d, single node had %d (results not bit-identical)",
					round, i, got[i].SongID, want[i].SongID)
			}
		}
	}
}

// TestChaosMembershipSeedDeath kills the seed mid-flight: the data plane
// must keep serving reads AND writes from its last merged view, and a
// seed restarted cold on the same address must relearn the nodes and the
// committed ring purely from heartbeats.
func TestChaosMembershipSeedDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos tests spawn real processes")
	}
	// Reserve a port so the seed can be restarted at the same URL.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	seedAddr := ln.Addr().String()
	_ = ln.Close()
	seedEnv := map[string]string{"QBH_MCHAOS_BOOTSTRAP": "g", "QBH_MCHAOS_ADDR": seedAddr}

	seed := startProc(t, "seed", seedEnv)
	primary := startReplica(t, seed.url, "p1", "g", "primary", "", 130, 0, 0)
	follower := startReplica(t, seed.url, "f1", "g", "follower", primary.url, 130, 0, 0)
	waitSynced(t, primary.url, follower.url)
	waitView(t, seed.url, "both nodes and a ring", func(v membership.View) bool {
		return len(v.Nodes) == 2 && v.Ring.Version == 1
	})

	coord := seedCoordinator(t, seed.url)
	corpus := chaosCorpus(130, 0)
	extras := chaosCorpus(131, 30000)
	if _, _, err := coord.QueryCtx(context.Background(), chaosPitch(corpus, 0, 1), 3, 0.1, index.Limits{}); err != nil {
		t.Fatalf("query before seed death: %v", err)
	}

	seed.kill()

	// Control plane down, data plane up: queries and writes keep working
	// off the last merged view.
	for round := 0; round < 3; round++ {
		if _, _, err := coord.QueryCtx(context.Background(), chaosPitch(corpus, round, int64(round)), 3, 0.1, index.Limits{}); err != nil {
			t.Fatalf("query with seed dead: %v", err)
		}
	}
	if _, err := coord.AddSongTitled("seedless-write", extras[0].Melody); err != nil {
		t.Fatalf("write with seed dead: %v", err)
	}

	// A cold restart on the same address repopulates from heartbeats: the
	// nodes push their full local views, ring included.
	restarted := startProc(t, "seed", seedEnv)
	if restarted.url != seed.url {
		t.Fatalf("restarted seed at %s, want %s", restarted.url, seed.url)
	}
	waitView(t, restarted.url, "view repopulated after restart", func(v membership.View) bool {
		return len(v.Nodes) == 2 && v.Ring.Version >= 1
	})
	requireAllTitles(t, serverSongs(t, primary.url), []string{"seedless-write"}, "write accepted while seed was dead")
}

func waitFor(t *testing.T, timeout time.Duration, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// serverSongs fetches a node's full song set (with melodies) through the
// replica export endpoint — /songs only reports titles, and the chaos
// assertions need the corpus itself.
func serverSongs(t *testing.T, url string) []music.Song {
	t.Helper()
	var infos []server.SongInfo
	resp, err := http.Get(url + "/songs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	out := make([]music.Song, 0, len(infos))
	for _, s := range infos {
		out = append(out, music.Song{ID: s.ID, Title: s.Title})
	}
	return out
}
