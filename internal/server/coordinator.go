package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"warping/internal/index"
	"warping/internal/membership"
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

// CoordinatorConfig tunes the fan-out path. Zero values select defaults.
type CoordinatorConfig struct {
	// Groups is the static cluster layout: one entry per shard group.
	// Ignored when Seeds is set.
	Groups []GroupSpec
	// Seeds switches the coordinator to dynamic topology: instead of a
	// fixed -groups list, it gossips with the membership seed servers and
	// derives the group set, each group's replicas and the write placement
	// ring from the merged view — so failovers, group joins and removals
	// need no coordinator restart.
	Seeds []string
	// DarkTTL is how long a group that failed an entire fan-out is skipped
	// ("dark") before a background probe may bring it back. While dark the
	// group contributes nothing and responses are degraded, but queries
	// stop paying its timeout. Default 2s.
	DarkTTL time.Duration
	// ReplicaTimeout bounds each replica query attempt. Default 5s.
	ReplicaTimeout time.Duration
	// HedgeAfter is how long to wait on a replica before hedging the same
	// query to the group's next replica. The first response wins; the
	// loser is cancelled. Default 500ms.
	HedgeAfter time.Duration
	// Backoff paces write retries (writeAttempts per replica); Retry-After
	// headers take precedence.
	Backoff retry.Backoff
	// Client is the HTTP client for all fan-out; nil builds a default.
	Client *http.Client
	// Logf receives fan-out diagnostics; nil selects log.Printf.
	Logf func(format string, args ...interface{})
}

func (c *CoordinatorConfig) fill() {
	if c.ReplicaTimeout <= 0 {
		c.ReplicaTimeout = 5 * time.Second
	}
	if c.DarkTTL <= 0 {
		c.DarkTTL = 2 * time.Second
	}
	if c.HedgeAfter <= 0 {
		c.HedgeAfter = 500 * time.Millisecond
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
}

// writeAttempts bounds write tries per replica: 429, 5xx and transport
// errors back off and retry; 421 moves on to the next replica at once.
const writeAttempts = 3

// topology is one immutable snapshot of the cluster the coordinator
// routes against: the fan-out group set with each group's replicas, and
// the placement ring (plus any in-flight rebalance). In static mode it is
// fixed at construction (ring version 0 over the configured groups); in
// seed mode every merged membership view rebuilds it.
type topology struct {
	groups []GroupSpec
	ring   membership.Ring
	reb    membership.Rebalance
}

func (t topology) group(name string) (GroupSpec, bool) {
	for _, g := range t.groups {
		if g.Name == name {
			return g, true
		}
	}
	return GroupSpec{}, false
}

// errGroupDark marks a group skipped because its dark-cache verdict has
// not expired: the group recently failed an entire fan-out and a
// background probe has not yet seen it answer.
var errGroupDark = errors.New("coordinator: group is dark (recent total failure; background probe pending)")

// Coordinator implements Backend over a cluster of replicated shard
// groups, so NewBackend serves the ordinary public API in front of it.
// Queries are forwarded to one replica per group with per-replica timeouts
// and hedged retries, and the groups' top-K lists merged; when a whole
// group is unreachable the response is partial and marked degraded, and
// the group goes dark for DarkTTL so later queries stop paying its
// timeout. Writes route by the consistent-hash ring to the owning group's
// primary with bounded retry, dual-routing to the future owner while a
// rebalance is in flight.
type Coordinator struct {
	cfg CoordinatorConfig

	mu        sync.Mutex
	top       topology
	primaries map[string]string    // group name -> last known primary URL
	dark      map[string]time.Time // group name -> dark verdict expiry
	probing   map[string]bool      // group name -> background probe running

	agent  *membership.Agent // seed mode only
	closed chan struct{}

	// Song id allocation. The coordinator is the cluster's id allocator:
	// per-group max+1 allocation cannot survive a rebalance, because a
	// migrated song raises the receiving group's frontier into the donor's
	// id range and the next local allocation collides with an id that
	// still exists elsewhere — aliasing two distinct songs on every read
	// path that dedupes by id. nextID is seeded lazily from the global
	// maximum across all groups and only ever moves forward.
	idMu    sync.Mutex
	idReady bool
	nextID  int64

	rr atomic.Uint64 // rotates which replica each group's query starts at
}

// NewCoordinator builds the fan-out backend for a cluster layout — static
// (cfg.Groups) or discovered from the membership seeds (cfg.Seeds).
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	cfg.fill()
	c := &Coordinator{
		cfg:       cfg,
		primaries: make(map[string]string),
		dark:      make(map[string]time.Time),
		probing:   make(map[string]bool),
		closed:    make(chan struct{}),
	}
	if len(cfg.Seeds) > 0 {
		agent, err := membership.StartAgent(membership.AgentConfig{
			Seeds:  cfg.Seeds,
			OnView: c.absorbView, // observer: no Self record
			Client: cfg.Client,
			Logf:   cfg.Logf,
		})
		if err != nil {
			return nil, err
		}
		c.agent = agent
		// StartAgent already ran one synchronous gossip round; on a healthy
		// cluster the topology is populated before the first query.
		c.absorbView(agent.View())
		return c, nil
	}
	if len(cfg.Groups) == 0 {
		return nil, fmt.Errorf("coordinator: no shard groups configured")
	}
	names := make([]string, 0, len(cfg.Groups))
	for _, g := range cfg.Groups {
		if len(g.Replicas) == 0 {
			return nil, fmt.Errorf("coordinator: group %q has no replicas", g.Name)
		}
		names = append(names, g.Name)
	}
	c.top = topology{groups: cfg.Groups, ring: membership.NewRing(0, names)}
	return c, nil
}

// Close stops the membership agent and background probes. The coordinator
// itself is stateless beyond caches, so Close does not flush anything.
func (c *Coordinator) Close() error {
	select {
	case <-c.closed:
		return nil
	default:
	}
	close(c.closed)
	if c.agent != nil {
		c.agent.Stop()
	}
	return nil
}

// topology returns the current routing snapshot.
func (c *Coordinator) topology() topology {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.top
}

// Stats adds the "membership" section: the merged gossip view (seed mode
// only — a static layout has none).
func (c *Coordinator) Stats(add func(section string, v any)) {
	if c.agent != nil {
		add("membership", c.agent.View().Stats())
	}
}

// absorbView rebuilds the routing topology from a merged membership view.
// The fan-out set is the committed ring's groups plus, while a rebalance
// is pending, the target ring's (a joining group holds dual-written songs
// before it owns any arc — reads must see them). Replica order comes from
// the view (primaries first, then by watermark), and the primary cache is
// refreshed so writes stop paying a 421 round trip after failovers.
func (c *Coordinator) absorbView(v membership.View) {
	fanout := append([]string(nil), v.Ring.Groups...)
	if v.Rebalance.Active() {
		for _, g := range v.Rebalance.To.Groups {
			if !v.Ring.Contains(g) {
				fanout = append(fanout, g)
			}
		}
	}
	top := topology{ring: v.Ring, reb: v.Rebalance}
	primaries := map[string]string{}
	for _, name := range fanout {
		recs := v.GroupNodes(name)
		if len(recs) == 0 {
			continue // no known members: nothing to route to
		}
		spec := GroupSpec{Name: name}
		for _, rec := range recs {
			spec.Replicas = append(spec.Replicas, rec.URL)
			if rec.Role == membership.RolePrimary && !rec.Fenced && primaries[name] == "" {
				primaries[name] = rec.URL
			}
		}
		top.groups = append(top.groups, spec)
	}
	c.mu.Lock()
	c.top = top
	for name, u := range primaries {
		c.primaries[name] = u
	}
	c.mu.Unlock()
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
// that fails entirely contributes nothing and flips stats.Degraded — the
// contract for partial results; a replica that rejects the query itself
// (a 4xx other than 429) fails the query with that replica's status and
// message (*rejectedError).
// lim is not forwarded: each replica applies its own limits.
func (c *Coordinator) QueryCtx(ctx context.Context, pitch ts.Series, topK int, delta float64, lim index.Limits) ([]qbh.SongMatch, index.QueryStats, error) {
	if len(pitch) == 0 {
		return nil, index.QueryStats{}, nil
	}
	top := c.topology()
	if len(top.groups) == 0 {
		return nil, index.QueryStats{}, fmt.Errorf("coordinator: no reachable topology (membership view empty)")
	}
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

	results := make([]groupResult, len(top.groups))
	var wg sync.WaitGroup
	for i, g := range top.groups {
		if c.isDark(g.Name) {
			// Recent total failure: skip the group without paying its
			// timeout again; the background probe decides when it returns.
			results[i] = groupResult{nil, errGroupDark}
			continue
		}
		wg.Add(1)
		go func(i int, g GroupSpec) {
			defer wg.Done()
			resp, err := c.queryGroup(ctx, g, path, body)
			results[i] = groupResult{resp, err}
			if err != nil && ctx.Err() == nil && !errors.As(err, new(*rejectedError)) {
				c.markDark(g.Name)
			}
		}(i, g)
	}
	wg.Wait()

	var stats index.QueryStats
	var matches []qbh.SongMatch
	failed := 0
	for i, r := range results {
		if errors.As(r.err, new(*rejectedError)) {
			return nil, index.QueryStats{}, r.err
		}
		if r.err != nil {
			failed++
			c.cfg.Logf("coordinator: group %q unreachable: %v", top.groups[i].Name, r.err)
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
	// Dedupe by song id before ranking: a rebalance leaves the moving
	// songs on their old owner (migration copies, never deletes) and
	// dual-writes land on two groups, so the same song can come back from
	// two groups with the same distance. One copy ranks; with the dedupe
	// the merged result stays bit-identical to a single node over the
	// logical corpus throughout a migration.
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
	// Re-sort the union of per-group top-Ks with the same total order the
	// replicas use ((Dist, SongID, Title)), then truncate to topK. Sorting
	// on Dist alone with sort.Slice is unstable: equal-distance matches
	// landing in different groups would be ordered by goroutine completion,
	// so repeated queries — or the same query against different shardings —
	// could return different rankings. With the full tie-break the merged
	// result is bit-identical to a single-node query over the union corpus.
	sort.Slice(matches, func(i, j int) bool {
		a, b := matches[i], matches[j]
		if a.Dist != b.Dist {
			return a.Dist < b.Dist
		}
		if a.SongID != b.SongID {
			return a.SongID < b.SongID
		}
		return a.Title < b.Title
	})
	if len(matches) > topK {
		matches = matches[:topK]
	}
	return matches, stats, nil
}

// queryGroup asks one replica of the group, hedging to siblings: a second
// attempt launches when the first is slow (HedgeAfter) or fails, and the
// first successful response wins. A replica that rejects the query
// (*rejectedError) ends the attempt: its siblings hold the same corpus
// under the same configuration and would say the same. The rotation spreads
// read load across replicas between queries.
//
// Dedupe invariant: the replicas of a group hold the same corpus, so when
// a hedge fires the group has two or more in-flight attempts that would
// each return the full per-group result. Exactly ONE response may reach
// the caller — the merge loop in QueryCtx sums QueryStats and concatenates
// matches per group, so a second response from a hedge loser would double
// both. The first `return r.resp, nil` below is that dedupe point: the
// deferred cancel() aborts the losers and their late sends land in the
// buffered channel (capacity len(order), so they never block) and are
// dropped with it.
func (c *Coordinator) queryGroup(ctx context.Context, g GroupSpec, path string, body []byte) (*QueryResponse, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // cancels the hedge loser
	start := int(c.rr.Add(1))
	order := make([]string, len(g.Replicas))
	for i := range g.Replicas {
		order[i] = g.Replicas[(start+i)%len(g.Replicas)]
	}

	ch := make(chan groupResult, len(order))
	launched := 0
	launch := func() {
		u := order[launched]
		launched++
		go func() {
			resp, err := c.postPitch(ctx, u+path, body)
			ch <- groupResult{resp, err}
		}()
	}
	launch()
	hedge := time.NewTimer(c.cfg.HedgeAfter)
	defer hedge.Stop()

	pending := 1
	var lastErr error
	for pending > 0 {
		select {
		case r := <-ch:
			pending--
			if r.err == nil || errors.As(r.err, new(*rejectedError)) {
				return r.resp, r.err
			}
			lastErr = r.err
			if launched < len(order) {
				launch()
				pending++
			}
		case <-hedge.C:
			if launched < len(order) {
				launch()
				pending++
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return nil, lastErr
}

// rejectedError is a replica's 4xx answer other than 429: the query itself
// is at fault, not the replica, so the group is neither hedged nor marked
// dark, and the front handler answers the client with the replica's status
// and message instead of a retryable 503.
type rejectedError struct {
	replica string
	status  int
	msg     string
}

func (e *rejectedError) Error() string {
	return fmt.Sprintf("coordinator: replica rejected the query: %s: %d %s: %s", e.replica, e.status, http.StatusText(e.status), e.msg)
}

func (c *Coordinator) postPitch(ctx context.Context, u string, body []byte) (*QueryResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.ReplicaTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if st := resp.StatusCode; st >= 400 && st < 500 && st != http.StatusTooManyRequests {
		var e errorResponse
		if json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&e) != nil || e.Error == "" {
			e.Error = http.StatusText(st) // the status alone is enough to report
		}
		return nil, &rejectedError{replica: u, status: st, msg: e.Error}
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", u, resp.Status)
	}
	var out QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("%s: decoding response: %w", u, err)
	}
	return &out, nil
}

// isDark reports whether the group's dark verdict is still in force.
func (c *Coordinator) isDark(group string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Now().Before(c.dark[group])
}

// markDark records a total fan-out failure for the group and launches the
// background re-probe (one per group at a time). Until a probe sees the
// group answer, queries skip it — degraded but fast — instead of paying
// its full timeout on every request.
func (c *Coordinator) markDark(group string) {
	c.mu.Lock()
	c.dark[group] = time.Now().Add(c.cfg.DarkTTL)
	spawn := !c.probing[group]
	if spawn {
		c.probing[group] = true
	}
	c.mu.Unlock()
	if spawn {
		c.cfg.Logf("coordinator: group %q dark for %v; probing in background", group, c.cfg.DarkTTL)
		go c.probeLoop(group)
	}
}

// probeLoop probes one replica of a dark group every DarkTTL until the
// group answers (the verdict clears and queries resume) or the
// coordinator closes. The probe is GET /stats — cheap, and served by
// primaries and followers alike.
func (c *Coordinator) probeLoop(group string) {
	t := time.NewTicker(c.cfg.DarkTTL)
	defer t.Stop()
	for {
		select {
		case <-c.closed:
			return
		case <-t.C:
		}
		g, ok := c.topology().group(group)
		if !ok {
			break // group left the topology; nothing to probe
		}
		alive := false
		for _, u := range g.Replicas {
			var out StatsResponse
			if err := c.getJSON(context.Background(), u+"/stats", &out); err == nil {
				alive = true
				break
			}
		}
		if !alive {
			c.mu.Lock()
			c.dark[group] = time.Now().Add(c.cfg.DarkTTL)
			c.mu.Unlock()
			continue
		}
		break
	}
	c.mu.Lock()
	delete(c.dark, group)
	c.probing[group] = false
	c.mu.Unlock()
	c.cfg.Logf("coordinator: group %q back from dark", group)
}

// AddSongTitled routes the write to the ring owner's primary. The
// coordinator allocates the song id itself (allocateID) and ships the
// song id-preservingly through the import endpoint, which carries the
// same guarantees as a direct client write: only an unfenced primary
// accepts it (421 otherwise) and the reply waits for the semi-sync
// quorum. The last known primary is tried first; a 421 moves on to the
// next replica, 429/5xx back off — honoring Retry-After — and retry the
// same one up to writeAttempts times. While a rebalance is pending and
// the title's owner moves, the write is dual-routed: the current owner
// acknowledges durability, then the same song ships under the same id
// to the future owner, so the read cutover at commit cannot miss writes
// that raced the migration's copy passes.
func (c *Coordinator) AddSongTitled(title string, melody music.Melody) (music.Song, error) {
	top := c.topology()
	if top.ring.Empty() {
		return music.Song{}, fmt.Errorf("coordinator: no placement ring yet (membership view empty)")
	}
	owner := top.ring.Owner(title)
	g, ok := top.group(owner)
	if !ok {
		return music.Song{}, fmt.Errorf("coordinator: owner group %q has no known replicas", owner)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(len(g.Replicas)*writeAttempts)*c.cfg.ReplicaTimeout)
	defer cancel()

	id, err := c.allocateID(ctx, top)
	if err != nil {
		return music.Song{}, err
	}
	song := music.Song{ID: id, Title: title, Melody: melody}
	stream, err := replica.EncodeExport([]music.Song{song})
	if err != nil {
		return music.Song{}, fmt.Errorf("coordinator: encoding song: %w", err)
	}

	var lastErr error
	for _, u := range c.writeOrder(g) {
		err := retry.Do(ctx, writeAttempts, c.cfg.Backoff, func() (bool, time.Duration, error) {
			applied, st, ra, err := c.postImport(ctx, u, stream)
			switch {
			case err == nil:
				if applied == 0 {
					// A retried import whose first response was lost: the
					// song is already durable under this id. (The allocator
					// never reuses ids, so it cannot be a foreign song.)
					c.cfg.Logf("coordinator: write %d %q was already applied", id, title)
				}
				return false, 0, nil
			case st == http.StatusMisdirectedRequest:
				return false, 0, err // wrong replica: stop retrying here, move on
			case st == http.StatusTooManyRequests || st >= 500 || st == 0:
				return true, ra, err
			default:
				return false, 0, err // 4xx: the request itself is bad
			}
		})
		if err == nil {
			c.setPrimary(g.Name, u)
			if err := c.dualWrite(ctx, top, song); err != nil {
				// The write is durable on the current owner but NOT on the
				// future one; acknowledging it could strand it if the old
				// owner later leaves the ring. Refuse the ack — a client
				// retry is idempotent in effect (worst case a duplicate
				// title under a fresh id, which ranking tolerates).
				return music.Song{}, err
			}
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
// different song there. Groups that join later must join empty (they
// receive songs only through migration and dual-writes, which preserve
// ids this allocator issued), so the counter never needs to re-seed.
func (c *Coordinator) allocateID(ctx context.Context, top topology) (int64, error) {
	c.idMu.Lock()
	defer c.idMu.Unlock()
	if !c.idReady {
		next := int64(0)
		for _, g := range top.groups {
			var reachable bool
			var lastErr error
			for _, u := range g.Replicas {
				var infos []SongInfo
				if err := c.getJSON(ctx, u+"/songs", &infos); err != nil {
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

// dualWrite ships the just-acknowledged song to its owner under a pending
// rebalance's target ring, when that differs from the current owner. The
// import path is id-preserving and idempotent, so racing the migration's
// copy passes is harmless — the song lands once whichever side wins.
func (c *Coordinator) dualWrite(ctx context.Context, top topology, song music.Song) error {
	if !top.reb.Active() {
		return nil
	}
	next := top.reb.To.Owner(song.Title)
	if next == "" || next == top.ring.Owner(song.Title) {
		return nil
	}
	g, ok := top.group(next)
	if !ok {
		return fmt.Errorf("coordinator: dual-write: future owner %q has no known replicas", next)
	}
	stream, err := replica.EncodeExport([]music.Song{song})
	if err != nil {
		return fmt.Errorf("coordinator: dual-write: %w", err)
	}
	var lastErr error
	for _, u := range c.writeOrder(g) {
		err := retry.Do(ctx, writeAttempts, c.cfg.Backoff, func() (bool, time.Duration, error) {
			_, st, ra, err := c.postImport(ctx, u, stream)
			switch {
			case err == nil:
				return false, 0, nil
			case st == http.StatusMisdirectedRequest:
				return false, 0, err
			case st == http.StatusTooManyRequests || st >= 500 || st == 0:
				return true, ra, err
			default:
				return false, 0, err
			}
		})
		if err == nil {
			c.setPrimary(g.Name, u)
			return nil
		}
		lastErr = err
	}
	return fmt.Errorf("coordinator: dual-write to group %q failed: %w", next, lastErr)
}

// postImport performs one id-preserving import attempt against a replica.
// postImport ships an export container to one replica. It returns the
// number of songs newly applied there (the import is idempotent by id),
// the HTTP status (0 for transport errors) and any Retry-After hint.
func (c *Coordinator) postImport(ctx context.Context, baseURL string, stream []byte) (applied, status int, ra time.Duration, err error) {
	rctx, cancel := context.WithTimeout(ctx, c.cfg.ReplicaTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, baseURL+membership.DefaultImportPath, bytes.NewReader(stream))
	if err != nil {
		return 0, 0, 0, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return 0, 0, 0, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		ra, _ = retry.ParseRetryAfter(resp.Header)
		return 0, resp.StatusCode, ra, fmt.Errorf("%s: %s", baseURL, resp.Status)
	}
	var out struct {
		Applied int `json:"applied"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, resp.StatusCode, 0, fmt.Errorf("%s: decoding import reply: %w", baseURL, err)
	}
	return out.Applied, resp.StatusCode, 0, nil
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

// groupStats fetches /stats from any live replica of the group.
func (c *Coordinator) groupStats(ctx context.Context, g GroupSpec) (StatsResponse, error) {
	var lastErr error
	for _, u := range g.Replicas {
		var out StatsResponse
		if err := c.getJSON(ctx, u+"/stats", &out); err != nil {
			lastErr = err
			continue
		}
		return out, nil
	}
	return StatsResponse{}, lastErr
}

func (c *Coordinator) getJSON(ctx context.Context, u string, out interface{}) error {
	rctx, cancel := context.WithTimeout(ctx, c.cfg.ReplicaTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", u, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// NumSongs counts distinct songs across groups (migration copies dedupe
// by id); unreachable groups contribute zero (the catalogue endpoints are
// monitoring surfaces, not consistency ones).
func (c *Coordinator) NumSongs() int {
	return len(c.Songs())
}

// NumPhrases sums indexed phrases across groups.
func (c *Coordinator) NumPhrases() int {
	ctx := context.Background()
	total := 0
	for _, g := range c.topology().groups {
		if st, err := c.groupStats(ctx, g); err == nil {
			total += st.Phrases
		}
	}
	return total
}

// Songs merges the group catalogues, deduplicated by id (a rebalance
// leaves copies of the moving songs on their old owner) and sorted by id.
// Melodies are not shipped — the coordinator serves the catalogue
// listing, which only needs id, title and note count; NumNotes is
// approximated by a zero melody.
func (c *Coordinator) Songs() []music.Song {
	ctx := context.Background()
	var out []music.Song
	seen := map[int64]bool{}
	for _, g := range c.topology().groups {
		var infos []SongInfo
		var got bool
		for _, u := range g.Replicas {
			if err := c.getJSON(ctx, u+"/songs", &infos); err == nil {
				got = true
				break
			}
		}
		if !got {
			continue
		}
		for _, s := range infos {
			if seen[s.ID] {
				continue
			}
			seen[s.ID] = true
			out = append(out, music.Song{ID: s.ID, Title: s.Title})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
