package server

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"warping/internal/index"
	"warping/internal/music"
	"warping/internal/qbh"
	"warping/internal/replica"
	"warping/internal/retry"
	"warping/internal/ts"
)

// GroupSpec names one replicated shard group and its member base URLs.
// Any member may be the primary; the coordinator discovers which by
// probing and by reacting to 421 responses, so promotions do not require
// a coordinator restart.
type GroupSpec struct {
	Name     string
	Replicas []string
}

// replicaTimeout bounds each request to a replica: a query, an import
// attempt, a promotion, a catalogue or /stats read.
const replicaTimeout = 5 * time.Second

// writeAttempts bounds write tries per replica: 429, 5xx and transport
// errors back off and retry; 421 and any other 4xx move on to the next
// replica at once.
const writeAttempts = 3

// Coordinator implements Backend over a cluster of replicated shard
// groups, so NewBackend serves the ordinary public API in front of it.
// One prober (failoverLoop) asks every replica for its state each
// failoverInterval. A query goes to one replica per group, skipping those
// the last probe did not hear and moving on past one that fails, and the
// groups' top-K lists are merged; a group with no replica left to ask
// contributes nothing and the response is marked degraded. Writes go to
// the primary of the group the title hashes to, with bounded retry. In a
// two-replica group the prober also promotes the follower when the
// primary stops answering. Every request to a replica is one call: one
// round trip through http.DefaultClient, which sets no timeout, bounded by
// its context and replicaTimeout; any answer but a 200 is a *replicaError.
type Coordinator struct {
	groups []GroupSpec // the cluster layout, fixed for the coordinator's lifetime

	mu        sync.Mutex
	primaries map[string]string // group name -> last known primary URL
	silent    map[string]bool   // replica URL -> the last tick did not hear it

	// ctx is cancelled by Close: it stops failoverLoop, whose return
	// closes loopDone.
	ctx      context.Context
	cancel   context.CancelFunc
	loopDone chan struct{}

	// Song id allocation. The coordinator is the cluster's id allocator:
	// each group allocating max+1 on its own would hand the same id to two
	// different songs in two groups, aliasing them on every read path that
	// dedupes by id. nextID is seeded lazily from the global maximum
	// across all groups and only ever moves forward.
	idMu    sync.Mutex
	idReady bool
	nextID  int64

	rr atomic.Uint64 // rotates which replica each group's query starts at
}

// NewCoordinator builds the fan-out backend over groups, one entry per
// shard group, and starts its failover loop; Close stops it.
func NewCoordinator(groups []GroupSpec) (*Coordinator, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("coordinator: no shard groups configured")
	}
	for _, g := range groups {
		if len(g.Replicas) == 0 {
			return nil, fmt.Errorf("coordinator: group %q has no replicas", g.Name)
		}
		if len(g.Replicas) > 2 {
			log.Printf("coordinator: group %q has %d replicas: promotion there is manual (POST %s)", g.Name, len(g.Replicas), replica.PathPromote)
		}
	}
	c := &Coordinator{
		groups:    groups,
		primaries: make(map[string]string),
		silent:    make(map[string]bool),
		loopDone:  make(chan struct{}),
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	go c.failoverLoop()
	return c, nil
}

// Close stops the failover loop, waiting for it to return. The
// coordinator itself is stateless beyond caches, so Close does not flush
// anything.
func (c *Coordinator) Close() error {
	c.cancel()
	<-c.loopDone
	return nil
}

// Stats adds nothing: a coordinator has no layer of its own to report.
func (c *Coordinator) Stats(func(section string, v any)) {}

// owner is the group a title's song is written to.
func (c *Coordinator) owner(title string) GroupSpec {
	return c.groups[placementHash(title)%uint64(len(c.groups))]
}

// placementHash is FNV-1a with the murmur3 fmix64 finalizer: FNV alone
// barely avalanches on short, similar inputs.
func placementHash(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// groupResult is one group's contribution to a fanned-out query.
type groupResult struct {
	resp *QueryResponse
	err  error
}

// QueryCtx implements the Backend query path: the hum is forwarded as it
// came to every group's public POST /query/pitch and the answers are
// merged, so each replica plans the query with the options it was built
// with and the merged ranking is the single-node one whatever those are.
// The contract is the handler's: pitch has already been silence-stripped
// (the replica strips again, which is then a no-op) and validated. A group
// with no replica to answer contributes nothing and flips stats.Degraded —
// the contract for partial results; a replica that rejects the query itself
// fails the query with that replica's status and message (rejection).
// lim is not forwarded: each replica applies its own limits.
func (c *Coordinator) QueryCtx(ctx context.Context, pitch ts.Series, topK int, delta float64, lim index.Limits) ([]qbh.SongMatch, index.QueryStats, error) {
	if len(pitch) == 0 {
		return nil, index.QueryStats{}, nil
	}
	groups := c.groups
	// Shortest-round-trip floats, in the body and in delta alike: every
	// replica decodes the coordinator's values bit for bit.
	body, err := json.Marshal([]float64(pitch))
	if err != nil {
		return nil, index.QueryStats{}, err
	}
	path := "/query/pitch?" + url.Values{
		"top":   {strconv.Itoa(topK)},
		"delta": {strconv.FormatFloat(delta, 'g', -1, 64)},
	}.Encode()

	results := make([]groupResult, len(groups))
	var wg sync.WaitGroup
	for i, g := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := c.queryGroup(ctx, g, path, body)
			results[i] = groupResult{resp, err}
		}()
	}
	wg.Wait()

	var stats index.QueryStats
	var matches []qbh.SongMatch
	failed := 0
	for i, r := range results {
		if rejection(r.err) != nil {
			return nil, index.QueryStats{}, r.err
		}
		if r.resp == nil {
			// No replica answered; one the prober has not heard from is
			// not asked, and the prober logs that once.
			failed++
			if r.err != nil {
				log.Printf("coordinator: group %q unreachable: %v", groups[i].Name, r.err)
			}
			continue
		}
		stats.Add(r.resp.QueryStats)
		matches = append(matches, r.resp.Matches...)
	}
	if failed == len(results) {
		// Nothing answered: that is an outage, not a degraded ranking.
		return nil, stats, fmt.Errorf("coordinator: all %d shard groups unreachable", failed)
	}
	if failed > 0 {
		stats.Degraded = true
	}
	// Dedupe by song id before ranking: groups built from the same corpus
	// (the CI cluster smoke runs two) hold the same songs, so one song can
	// come back from two groups with the same distance. One copy ranks;
	// with the dedupe the merged result is bit-identical to a single node
	// over the logical corpus.
	if len(matches) > 1 {
		seen := make(map[int64]int, len(matches))
		kept := matches[:0]
		for _, m := range matches {
			if j, ok := seen[m.SongID]; ok {
				if m.Dist < kept[j].Dist {
					kept[j] = m
				}
				continue
			}
			seen[m.SongID] = len(kept)
			kept = append(kept, m)
		}
		matches = kept
	}
	// Re-sort the union of per-group top-Ks by (Dist, SongID), the total
	// order the replicas use (ids are unique after the dedupe), then
	// truncate to topK. Sorting on Dist alone would order equal-distance
	// matches from different groups by goroutine completion, so repeated
	// queries — or the same query against different shardings — could
	// return different rankings. With the tie-break the merged result is
	// bit-identical to a single-node query over the union corpus.
	slices.SortFunc(matches, func(a, b qbh.SongMatch) int {
		return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.SongID, b.SongID))
	})
	if len(matches) > topK {
		matches = matches[:topK]
	}
	return matches, stats, nil
}

// queryGroup asks the group's replicas one at a time, starting at the
// rotation point (rr spreads read load across replicas between queries)
// and skipping any the last tick did not hear. Any other failure moves on
// to the next replica; a replica that rejects the query (rejection) ends
// the search, since its siblings hold the same corpus under the same
// configuration and would say the same. At most one response reaches the
// merge, which sums QueryStats per group. With no replica heard the group
// gets no request and the result is nil, nil.
func (c *Coordinator) queryGroup(ctx context.Context, g GroupSpec, path string, body []byte) (*QueryResponse, error) {
	start := int(c.rr.Add(1))
	var lastErr error
	for i := range g.Replicas {
		u := g.Replicas[(start+i)%len(g.Replicas)]
		c.mu.Lock()
		silent := c.silent[u]
		c.mu.Unlock()
		if silent {
			continue
		}
		var resp QueryResponse
		err := call(ctx, http.MethodPost, u+path, body, &resp)
		if err == nil {
			return &resp, nil
		}
		if rejection(err) != nil {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// replicaError is a replica's answer other than 200: its status, its
// Retry-After hint and its {"error": …} message (the status text when it
// sent none).
type replicaError struct {
	replica    string // the request's URL
	status     int
	retryAfter time.Duration
	msg        string
}

func (e *replicaError) Error() string {
	return fmt.Sprintf("coordinator: %s answered %d %s: %s", e.replica, e.status, http.StatusText(e.status), e.msg)
}

// rejection returns err's replica answer when it is a 4xx other than 429:
// the request itself is at fault, not the replica, so no sibling is asked,
// and the front handler answers the client with the replica's status and
// message instead of a retryable 503. Otherwise it returns nil.
func rejection(err error) *replicaError {
	var e *replicaError
	if errors.As(err, &e) && e.status >= 400 && e.status < 500 && e.status != http.StatusTooManyRequests {
		return e
	}
	return nil
}

// call makes one round trip to a replica through http.DefaultClient,
// bounded by replicaTimeout inside ctx, and always drains and closes the
// reply. A 200's JSON body is decoded into out when out is non-nil; any
// other status is a *replicaError.
func call(ctx context.Context, method, u string, body []byte, out any) error {
	ctx, cancel := context.WithTimeout(ctx, replicaTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, u, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		var reply errorResponse
		if json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&reply) != nil || reply.Error == "" {
			reply.Error = http.StatusText(resp.StatusCode) // the status alone is enough to report
		}
		ra, _ := retry.ParseRetryAfter(resp.Header)
		return &replicaError{replica: u, status: resp.StatusCode, retryAfter: ra, msg: reply.Error}
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s: decoding reply: %w", u, err)
	}
	return nil
}

// AddSongTitled routes the write to the primary of the title's group
// (owner). The coordinator allocates the song id itself (allocateID) and
// ships the song id-preservingly through the import endpoint, which
// carries the same guarantees as a direct client write: only a primary
// accepts it (421 otherwise) and the reply waits for the semi-sync quorum.
// The last known primary is tried first; a 421 moves on to the next
// replica, 429/5xx back off — honoring Retry-After — and retry the same one
// up to writeAttempts times.
func (c *Coordinator) AddSongTitled(title string, melody music.Melody) (music.Song, error) {
	g := c.owner(title)
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(len(g.Replicas)*writeAttempts)*replicaTimeout)
	defer cancel()

	id, err := c.allocateID(ctx)
	if err != nil {
		return music.Song{}, err
	}
	song := music.Song{ID: id, Title: title, Melody: melody}
	stream := qbh.EncodeSongs([]music.Song{song})

	var lastErr error
	for _, u := range c.writeOrder(g) {
		err := retry.Do(ctx, writeAttempts, func() (bool, time.Duration, error) {
			var reply struct {
				Applied int `json:"applied"` // songs newly applied: the import is idempotent by id
			}
			err := call(ctx, http.MethodPost, u+replica.PathImport, stream, &reply)
			if err == nil && reply.Applied == 0 {
				// A retried import whose first response was lost: the song
				// is already durable under this id. (The allocator never
				// reuses ids, so it cannot be a foreign song.)
				log.Printf("coordinator: write %d %q was already applied", id, title)
			}
			var e *replicaError
			if errors.As(err, &e) {
				// 429 and 5xx retry here; 421 (not the primary) and any
				// other 4xx move on to the next replica at once.
				return e.status == http.StatusTooManyRequests || e.status >= 500, e.retryAfter, err
			}
			// A transport error retries; a 200 that did not decode does not.
			return errors.As(err, new(*url.Error)), 0, err
		})
		if err == nil {
			c.setPrimary(g.Name, u)
			return song, nil
		}
		lastErr = err
	}
	return music.Song{}, fmt.Errorf("coordinator: write to group %q failed: %w", g.Name, lastErr)
}

// allocateID hands out a cluster-unique song id. On first use it seeds
// the counter one past the global maximum, taking the max over every
// reachable replica of every group (a lagging follower may not have the
// newest ids yet, so one reachable replica per group is required but all
// are consulted). A group with no reachable replica blocks allocation —
// guessing low would risk handing out an id that already names a
// different song there. Every later write comes through this allocator,
// so the counter never needs to re-seed.
func (c *Coordinator) allocateID(ctx context.Context) (int64, error) {
	c.idMu.Lock()
	defer c.idMu.Unlock()
	if !c.idReady {
		next := int64(0)
		for _, g := range c.groups {
			var reachable bool
			var lastErr error
			for _, u := range g.Replicas {
				var infos []SongInfo
				if err := call(ctx, http.MethodGet, u+"/songs", nil, &infos); err != nil {
					lastErr = err
					continue
				}
				reachable = true
				for _, s := range infos {
					if s.ID >= next {
						next = s.ID + 1
					}
				}
			}
			if !reachable {
				return 0, fmt.Errorf("coordinator: id allocation: group %q unreachable: %w", g.Name, lastErr)
			}
		}
		c.nextID = next
		c.idReady = true
	}
	id := c.nextID
	c.nextID++
	return id, nil
}

// writeOrder lists the group's replicas with the cached primary first.
func (c *Coordinator) writeOrder(g GroupSpec) []string {
	c.mu.Lock()
	primary := c.primaries[g.Name]
	c.mu.Unlock()
	order := make([]string, 0, len(g.Replicas))
	if primary != "" {
		order = append(order, primary)
	}
	for _, u := range g.Replicas {
		if u != primary {
			order = append(order, u)
		}
	}
	return order
}

func (c *Coordinator) setPrimary(group, u string) {
	c.mu.Lock()
	c.primaries[group] = u
	c.mu.Unlock()
}

// The prober: every failoverInterval the coordinator asks every replica
// of every group for its PathState, all at once, and records which
// answered; queries skip a replica the last tick did not hear. In a
// two-replica group in which neither replica has answered as primary for
// failoverMissed ticks in a row, while a follower answers, the follower is
// promoted — at most once per 2 × failoverMissed ticks, which gives a
// promotion time to show. A group of one has nobody to promote; in a group
// of three or more the other followers would keep pulling from the dead
// primary, so promotion there is manual (POST replica.PathPromote).
const (
	failoverInterval = 500 * time.Millisecond
	failoverMissed   = 4
)

// groupWatch is one two-replica group's failover bookkeeping.
type groupWatch struct {
	silent   int       // consecutive ticks with no replica answering as primary
	promoted time.Time // the last promotion attempt
}

func (c *Coordinator) failoverLoop() {
	defer close(c.loopDone)
	watch := make(map[string]*groupWatch)
	t := time.NewTicker(failoverInterval)
	defer t.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-t.C:
			c.failoverTick(c.ctx, watch)
		}
	}
}

// probe is one replica's answer to a tick.
type probe struct {
	heard bool
	st    replica.StateResponse
}

// failoverTick probes every replica once, each within failoverInterval,
// and records which were heard, logging each switch between heard and
// silent. Then, per two-replica group, the primary with the highest
// (epoch, seq) becomes the group's cached primary: Promote opens a
// strictly later epoch, so writes go to the promoted node and never back
// to a returning old one.
func (c *Coordinator) failoverTick(ctx context.Context, watch map[string]*groupWatch) {
	probes := make(map[string]*probe)
	for _, g := range c.groups {
		for _, u := range g.Replicas {
			probes[u] = new(probe)
		}
	}
	var wg sync.WaitGroup
	for u, p := range probes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, failoverInterval)
			defer cancel()
			p.heard = call(pctx, http.MethodGet, u+replica.PathState, nil, &p.st) == nil
		}()
	}
	wg.Wait()

	var switched []string
	c.mu.Lock()
	for u, p := range probes {
		if c.silent[u] == p.heard {
			c.silent[u] = !p.heard
			switched = append(switched, u)
		}
	}
	c.mu.Unlock()
	slices.Sort(switched)
	for _, u := range switched {
		if probes[u].heard {
			log.Printf("coordinator: replica %s answers again", u)
		} else {
			log.Printf("coordinator: replica %s is silent; queries skip it", u)
		}
	}

	for _, g := range c.groups {
		if len(g.Replicas) != 2 {
			continue
		}
		w := watch[g.Name]
		if w == nil {
			w = &groupWatch{}
			watch[g.Name] = w
		}
		var primary, follower string
		var pst, fst replica.StateResponse
		for _, u := range g.Replicas {
			p := probes[u]
			switch {
			case !p.heard:
			case p.st.Role == replica.RolePrimary && (primary == "" || ahead(p.st, pst)):
				primary, pst = u, p.st
			case p.st.Role == replica.RoleFollower && (follower == "" || ahead(p.st, fst)):
				follower, fst = u, p.st
			}
		}
		if primary != "" {
			w.silent = 0
			c.setPrimary(g.Name, primary)
			continue
		}
		w.silent++
		if follower == "" || w.silent < failoverMissed || time.Since(w.promoted) < 2*failoverMissed*failoverInterval {
			continue
		}
		w.promoted = time.Now()
		log.Printf("coordinator: group %q has no primary; promoting %s at %d:%d", g.Name, follower, fst.Epoch, fst.Seq)
		if err := call(ctx, http.MethodPost, follower+replica.PathPromote, nil, nil); err != nil {
			log.Printf("coordinator: promoting %s failed: %v", follower, err)
			continue
		}
		w.silent = 0
		c.setPrimary(g.Name, follower)
	}
}

// ahead orders replica positions by (epoch, seq).
func ahead(a, b replica.StateResponse) bool {
	return a.Epoch > b.Epoch || a.Epoch == b.Epoch && a.Seq > b.Seq
}

// NumSongs counts distinct songs across groups (copies dedupe by id);
// unreachable groups contribute zero (the catalogue endpoints are
// monitoring surfaces, not consistency ones).
func (c *Coordinator) NumSongs() int {
	seen := map[int64]bool{}
	fromEachGroup(c, "/songs", func(infos []SongInfo) {
		for _, s := range infos {
			seen[s.ID] = true
		}
	})
	return len(seen)
}

// NumPhrases sums indexed phrases across groups; an unreachable group adds
// zero.
func (c *Coordinator) NumPhrases() int {
	total := 0
	fromEachGroup(c, "/stats", func(st struct {
		Phrases int `json:"phrases"`
	}) {
		total += st.Phrases
	})
	return total
}

// Songs merges the group catalogues, deduplicated by id (groups built from
// the same corpus hold the same songs) and sorted by id.
// Melodies are not shipped — the coordinator serves the catalogue
// listing, which only needs id, title and note count, so a melody of that
// many zero notes stands in for each song's own.
func (c *Coordinator) Songs() []music.Song {
	var out []music.Song
	seen := map[int64]bool{}
	fromEachGroup(c, "/songs", func(infos []SongInfo) {
		for _, s := range infos {
			if !seen[s.ID] {
				seen[s.ID] = true
				out = append(out, music.Song{ID: s.ID, Title: s.Title, Melody: make(music.Melody, s.Notes)})
			}
		}
	})
	slices.SortFunc(out, func(a, b music.Song) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// fromEachGroup GETs path from the first replica of each group that
// answers it and hands fn the decoded reply; a group with no replica
// answering is skipped.
func fromEachGroup[T any](c *Coordinator, path string, fn func(T)) {
	for _, g := range c.groups {
		for _, u := range g.Replicas {
			var reply T
			if call(context.Background(), http.MethodGet, u+path, nil, &reply) == nil {
				fn(reply)
				break
			}
		}
	}
}
