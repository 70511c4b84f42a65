// Kill-a-replica chaos tests: each replica runs as a real OS process (the
// test binary re-execed in helper mode) and dies by SIGKILL — no graceful
// shutdown, no flushing, exactly what a machine failure looks like. The
// parent process plays coordinator and asserts the cluster-level
// invariants: queries keep answering (and stay byte-identical to a
// single-node system) while a follower dies; a primary killed right after
// acknowledging semi-sync writes loses none of them after promotion, by
// hand or by the coordinator under load; a whole group going dark yields
// partial, degraded results rather than an outage.
package replica_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"warping/internal/hum"
	"warping/internal/index"
	"warping/internal/midi"
	"warping/internal/music"
	"warping/internal/qbh"
	"warping/internal/replica"
	"warping/internal/retry"
	"warping/internal/server"
	"warping/internal/store"
	"warping/internal/ts"
)

const helperEnv = "QBH_CHAOS_HELPER"

var chaosOpts = qbh.Options{PhraseMin: 8, PhraseMax: 20}

// chaosCorpus derives the deterministic corpus both the parent (for
// expectations) and the helper processes (for building) use.
func chaosCorpus(seed int64, offset int64) []music.Song {
	songs := music.GenerateSongs(seed, 8, 100, 200)
	for i := range songs {
		songs[i].ID += offset
	}
	return songs
}

func TestMain(m *testing.M) {
	if os.Getenv(helperEnv) == "1" {
		helperMain()
		return
	}
	os.Exit(m.Run())
}

// helperMain is the re-execed replica process: open the durable store,
// wrap it in a Node, serve the full API + replication endpoints, print
// the bound address, and run until killed.
func helperMain() {
	dir := os.Getenv("QBH_CHAOS_DIR")
	role := replica.Role(os.Getenv("QBH_CHAOS_ROLE"))
	primaryURL := os.Getenv("QBH_CHAOS_PRIMARY")
	seed, _ := strconv.ParseInt(os.Getenv("QBH_CHAOS_SEED"), 10, 64)
	offset, _ := strconv.ParseInt(os.Getenv("QBH_CHAOS_OFFSET"), 10, 64)
	minSync, _ := strconv.Atoi(os.Getenv("QBH_CHAOS_MINSYNC"))

	base := chaosCorpus(seed, offset)
	d, err := qbh.OpenDurable(dir, qbh.DurableOptions{
		FS:    store.OS(),
		Build: func() (*qbh.System, error) { return qbh.Build(base, chaosOpts) },
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "helper: open durable: %v\n", err)
		os.Exit(1)
	}
	n, err := replica.NewNode(d, replica.NodeConfig{
		Group:            os.Getenv("QBH_CHAOS_GROUP"),
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

	srv := &http.Server{Handler: h}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "helper: listen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("ADDR=http://%s\n", ln.Addr().String())
	_ = srv.Serve(ln)
}

// replicaProc is one killable replica process.
type replicaProc struct {
	cmd *exec.Cmd
	url string
	dir string
}

// startReplicaProc re-execs the test binary as a replica node and waits
// for it to report its address.
func startReplicaProc(t *testing.T, dir string, env map[string]string) *replicaProc {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), helperEnv+"=1", "QBH_CHAOS_DIR="+dir)
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
	p := &replicaProc{cmd: cmd, dir: dir}
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
			t.Fatal("replica process exited before reporting its address")
		}
		p.url = addr
	case <-time.After(60 * time.Second):
		t.Fatal("replica process never reported its address")
	}
	return p
}

// kill delivers SIGKILL: no cleanup, no flush — a crash.
func (p *replicaProc) kill() {
	if p.cmd.Process != nil {
		_ = p.cmd.Process.Kill()
		_, _ = p.cmd.Process.Wait()
	}
}

func waitReady(t *testing.T, url string) {
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

func replicaState(t *testing.T, url string) replica.StateResponse {
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

func waitFollowerSynced(t *testing.T, primaryURL, followerURL string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		p := replicaState(t, primaryURL)
		f := replicaState(t, followerURL)
		if p.Digest == f.Digest && p.Songs == f.Songs {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("follower never synced with primary")
}

func chaosPitch(songs []music.Song, which int, seed int64) ts.Series {
	r := rand.New(rand.NewSource(seed))
	return hum.StripSilence(hum.GoodSinger().RenderPitch(songs[which%len(songs)].Melody, r))
}

func newChaosCoordinator(t *testing.T, groups ...server.GroupSpec) *server.Coordinator {
	t.Helper()
	coord, err := server.NewCoordinator(server.CoordinatorConfig{
		Groups:         groups,
		ReplicaTimeout: 10 * time.Second,
		Backoff:        retry.Backoff{Base: 10 * time.Millisecond, Max: 100 * time.Millisecond},
		Logf:           func(string, ...interface{}) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = coord.Close() })
	return coord
}

// TestChaosFollowerSIGKILLDuringQueries kills a follower while the
// coordinator streams queries through the group. Every query must keep
// answering — moving on past the dead replica to the survivor — and every
// result must be identical to a single-node system over the same corpus.
func TestChaosFollowerSIGKILLDuringQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos tests spawn real processes")
	}
	corpus := chaosCorpus(50, 0)
	single, err := qbh.Build(corpus, chaosOpts)
	if err != nil {
		t.Fatal(err)
	}
	env := map[string]string{"QBH_CHAOS_SEED": "50", "QBH_CHAOS_OFFSET": "0", "QBH_CHAOS_GROUP": "g"}
	primary := startReplicaProc(t, t.TempDir(), merge(env, "QBH_CHAOS_ROLE", "primary"))
	waitReady(t, primary.url)
	follower := startReplicaProc(t, t.TempDir(), merge(env, "QBH_CHAOS_ROLE", "follower", "QBH_CHAOS_PRIMARY", primary.url))
	waitReady(t, follower.url)
	waitFollowerSynced(t, primary.url, follower.url)

	coord := newChaosCoordinator(t, server.GroupSpec{Name: "g", Replicas: []string{follower.url, primary.url}})

	check := func(round int) {
		pitch := chaosPitch(corpus, round, int64(60+round))
		want, _, err := single.QueryCtx(context.Background(), pitch, 3, 0.1, index.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := coord.QueryCtx(context.Background(), pitch, 3, 0.1, index.Limits{})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if stats.Degraded {
			t.Fatalf("round %d degraded with the primary still alive", round)
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: %d matches, single node had %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i].SongID != want[i].SongID {
				t.Fatalf("round %d rank %d: song %d, single node had %d", round, i, got[i].SongID, want[i].SongID)
			}
		}
	}

	check(0)
	follower.kill() // mid-stream: the next queries hit a dead replica first
	for round := 1; round < 4; round++ {
		check(round)
	}
}

// TestChaosPrimarySIGKILLLosesNoAckedWrite runs the group semi-sync
// (MinSyncFollowers=1), acknowledges writes, SIGKILLs the primary, and
// promotes the follower: every acknowledged write must be present on the
// promoted node. This is the zero-loss contract semi-sync buys.
func TestChaosPrimarySIGKILLLosesNoAckedWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos tests spawn real processes")
	}
	env := map[string]string{"QBH_CHAOS_SEED": "70", "QBH_CHAOS_OFFSET": "0", "QBH_CHAOS_GROUP": "g"}
	primary := startReplicaProc(t, t.TempDir(), merge(env, "QBH_CHAOS_ROLE", "primary", "QBH_CHAOS_MINSYNC", "1"))
	waitReady(t, primary.url)
	follower := startReplicaProc(t, t.TempDir(), merge(env, "QBH_CHAOS_ROLE", "follower", "QBH_CHAOS_PRIMARY", primary.url))
	waitReady(t, follower.url)
	waitFollowerSynced(t, primary.url, follower.url)

	// Acknowledge writes through the public API: each 201 means the write
	// is fsynced on the primary AND confirmed applied by the follower.
	extra := chaosCorpus(71, 1000)
	var acked []string
	for i, s := range extra[:4] {
		title := fmt.Sprintf("acked-%d", i)
		if _, err := postSong(primary.url, title, mustMelody(t, s.Melody)); err != nil {
			t.Fatalf("write %d not acknowledged: %v", i, err)
		}
		acked = append(acked, title)
	}

	primary.kill() // immediately after the last ack

	// Promote the follower and verify every acknowledged write survived.
	resp, err := http.Post(follower.url+replica.PathPromote, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: %s", resp.Status)
	}
	have := songTitles(t, follower.url)
	for _, title := range acked {
		if !have[title] {
			t.Fatalf("acknowledged write %q lost after primary SIGKILL + promotion", title)
		}
	}
	// The promoted primary accepts writes.
	w, err := postSong(follower.url, "post-promotion", mustMelody(t, extra[5].Melody))
	if err != nil {
		t.Fatalf("promoted node rejected write: %v", err)
	}
	if w.Title != "post-promotion" {
		t.Fatalf("promoted write echoed %q", w.Title)
	}
}

// TestChaosPromoteUnderLoad SIGKILLs a semi-sync primary while writes and
// queries stream through a coordinator over its two-replica group. The
// coordinator must promote the follower itself, writes must resume against
// it without reconfiguration, and every acknowledged write — before and
// after the kill — must be present on the promoted node.
func TestChaosPromoteUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos tests spawn real processes")
	}
	env := map[string]string{"QBH_CHAOS_SEED": "110", "QBH_CHAOS_OFFSET": "0", "QBH_CHAOS_GROUP": "g"}
	primary := startReplicaProc(t, t.TempDir(), merge(env, "QBH_CHAOS_ROLE", "primary", "QBH_CHAOS_MINSYNC", "1"))
	waitReady(t, primary.url)
	follower := startReplicaProc(t, t.TempDir(), merge(env, "QBH_CHAOS_ROLE", "follower", "QBH_CHAOS_PRIMARY", primary.url))
	waitReady(t, follower.url)
	waitFollowerSynced(t, primary.url, follower.url)

	coord := newChaosCoordinator(t, server.GroupSpec{Name: "g", Replicas: []string{primary.url, follower.url}})
	corpus := chaosCorpus(110, 0)
	extras := chaosCorpus(111, 10000)

	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	var mu sync.Mutex
	var acked []string
	count := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(acked)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ctx.Err() == nil; i++ {
			title := fmt.Sprintf("pload-%d", i)
			if _, err := coord.AddSongTitled(title, extras[i%len(extras)].Melody); err == nil {
				mu.Lock()
				acked = append(acked, title)
				mu.Unlock()
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()
	queryErrs := 0
	go func() {
		defer wg.Done()
		for round := 0; ctx.Err() == nil; round++ {
			qctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			if _, _, err := coord.QueryCtx(qctx, chaosPitch(corpus, round, int64(round)), 3, 0.1, index.Limits{}); err != nil && ctx.Err() == nil {
				queryErrs++
			}
			cancel()
			time.Sleep(30 * time.Millisecond)
		}
	}()

	// Let a few writes be acknowledged, then kill the primary cold; the
	// coordinator must promote the follower and writes must resume.
	waitFor(t, 30*time.Second, "first acked writes", func() bool { return count() >= 3 })
	preKill := count()
	primary.kill()
	waitFor(t, 60*time.Second, "writes resumed after the failover", func() bool { return count() >= preKill+3 })
	stop()
	wg.Wait()
	if st := replicaState(t, follower.url); st.Role != replica.RolePrimary {
		t.Fatalf("follower is %q after the failover, want primary", st.Role)
	}

	have := songTitles(t, follower.url)
	for _, title := range acked {
		if !have[title] {
			t.Fatalf("acknowledged write %q lost after SIGKILL and automatic promotion", title)
		}
	}
	if queryErrs > 0 {
		t.Logf("%d query errors during the failover (tolerated; no acknowledged write was lost)", queryErrs)
	}
	if _, _, err := coord.QueryCtx(context.Background(), chaosPitch(corpus, 0, 99), 3, 0.1, index.Limits{}); err != nil {
		t.Fatalf("query after the failover: %v", err)
	}
}

// songTitles is the set of titles a node's GET /songs lists.
func songTitles(t *testing.T, url string) map[string]bool {
	t.Helper()
	var songs []server.SongInfo
	resp, err := http.Get(url + "/songs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&songs); err != nil {
		t.Fatal(err)
	}
	have := make(map[string]bool, len(songs))
	for _, s := range songs {
		have[s.Title] = true
	}
	return have
}

func waitFor(t *testing.T, timeout time.Duration, what string, ok func() bool) {
	t.Helper()
	for deadline := time.Now().Add(timeout); !ok(); time.Sleep(50 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestChaosWholeGroupDownDegraded kills every process of one group: the
// coordinator must answer with the surviving group's results, marked
// degraded — partial, not an outage.
func TestChaosWholeGroupDownDegraded(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos tests spawn real processes")
	}
	corpusA := chaosCorpus(80, 0)
	envA := map[string]string{"QBH_CHAOS_SEED": "80", "QBH_CHAOS_OFFSET": "0", "QBH_CHAOS_GROUP": "a"}
	envB := map[string]string{"QBH_CHAOS_SEED": "81", "QBH_CHAOS_OFFSET": "500", "QBH_CHAOS_GROUP": "b"}
	pa := startReplicaProc(t, t.TempDir(), merge(envA, "QBH_CHAOS_ROLE", "primary"))
	pb := startReplicaProc(t, t.TempDir(), merge(envB, "QBH_CHAOS_ROLE", "primary"))
	waitReady(t, pa.url)
	waitReady(t, pb.url)

	coord := newChaosCoordinator(t,
		server.GroupSpec{Name: "a", Replicas: []string{pa.url}},
		server.GroupSpec{Name: "b", Replicas: []string{pb.url}},
	)

	pb.kill() // the whole of group b goes dark: connection refused, instantly

	got, stats, err := coord.QueryCtx(context.Background(), chaosPitch(corpusA, 0, 9), 3, 0.1, index.Limits{})
	if err != nil {
		t.Fatalf("partial query errored: %v", err)
	}
	if !stats.Degraded {
		t.Fatal("group down but result not marked degraded")
	}
	if len(got) == 0 {
		t.Fatal("no partial results from the surviving group")
	}
}

// TestChaosFollowerTornWALCatchesUp crashes a follower, corrupts its WAL
// tail the way a torn write would, restarts it, and requires convergence:
// recovery truncates the torn tail and the pull loop re-ships the rest.
func TestChaosFollowerTornWALCatchesUp(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos tests spawn real processes")
	}
	env := map[string]string{"QBH_CHAOS_SEED": "90", "QBH_CHAOS_OFFSET": "0", "QBH_CHAOS_GROUP": "g"}
	primary := startReplicaProc(t, t.TempDir(), merge(env, "QBH_CHAOS_ROLE", "primary"))
	waitReady(t, primary.url)
	fdir := t.TempDir()
	follower := startReplicaProc(t, fdir, merge(env, "QBH_CHAOS_ROLE", "follower", "QBH_CHAOS_PRIMARY", primary.url))
	waitReady(t, follower.url)
	waitFollowerSynced(t, primary.url, follower.url)

	// Write through the primary so the follower has replicated WAL state.
	for i, s := range chaosCorpus(91, 2000)[:3] {
		if _, err := postSong(primary.url, fmt.Sprintf("pre-crash-%d", i), mustMelody(t, s.Melody)); err != nil {
			t.Fatal(err)
		}
	}
	waitFollowerSynced(t, primary.url, follower.url)
	follower.kill()

	// A torn write: garbage at the WAL tail, as if power died mid-append.
	f, err := os.OpenFile(filepath.Join(fdir, qbh.WALFileName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	restarted := startReplicaProc(t, fdir, merge(env, "QBH_CHAOS_ROLE", "follower", "QBH_CHAOS_PRIMARY", primary.url))
	waitReady(t, restarted.url)
	waitFollowerSynced(t, primary.url, restarted.url)
}

func merge(base map[string]string, kv ...string) map[string]string {
	out := make(map[string]string, len(base)+len(kv)/2)
	for k, v := range base {
		out[k] = v
	}
	for i := 0; i+1 < len(kv); i += 2 {
		out[kv[i]] = kv[i+1]
	}
	return out
}

// postSong uploads one MIDI file through the public API; anything but a
// 201 is an unacknowledged write.
func postSong(baseURL, title string, midiData []byte) (server.SongInfo, error) {
	var out server.SongInfo
	resp, err := http.Post(baseURL+"/songs?title="+url.QueryEscape(title), "audio/midi", bytes.NewReader(midiData))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return out, fmt.Errorf("POST /songs: %s", resp.Status)
	}
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

func mustMelody(t *testing.T, m music.Melody) []byte {
	t.Helper()
	data, err := midi.EncodeMelody(m, 500000)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
