package membership

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"time"

	"warping/internal/retry"
)

// DirectorConfig tunes automatic failover. Zero values select defaults.
type DirectorConfig struct {
	// Interval paces health probes; it should match the cluster heartbeat
	// interval (DefaultHeartbeatInterval).
	Interval time.Duration
	// MissedBeats is how many silent intervals declare a primary dead
	// (DefaultMissedBeats).
	MissedBeats int
	// Client performs the promote calls (DefaultPromotePath); nil builds
	// one with a 10s timeout.
	Client *http.Client
	// Logf receives failover diagnostics; nil selects log.Printf.
	Logf func(format string, args ...interface{})
}

func (c *DirectorConfig) fill() {
	if c.Interval <= 0 {
		c.Interval = DefaultHeartbeatInterval
	}
	if c.MissedBeats <= 0 {
		c.MissedBeats = DefaultMissedBeats
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 10 * time.Second}
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
}

// Director is the automatic-failover loop, run next to the Registry (the
// one place with freshness observations). Each tick it looks for groups
// whose every primary has gone silent for MissedBeats intervals and, when
// a live follower exists, promotes the one with the highest durably-applied
// WAL watermark — under semi-sync acks that follower provably holds every
// acknowledged write, so promotion loses none. The director calls no other
// node: surviving followers, and any that restart later, pull from the new
// primary once their heartbeat brings a view that names it; the old one, if
// it was merely slow and comes back, fences itself the moment its next
// heartbeat shows it a successor with a later WAL epoch (its writes answer
// 421 from then on).
type Director struct {
	reg *Registry
	cfg DirectorConfig
	// lastAction is a per-group cooldown: a promotion needs a couple of
	// heartbeat rounds to surface in the view, and promoting twice in that
	// window would flap.
	lastAction map[string]time.Time
}

// NewDirector builds the failover loop over a registry.
func NewDirector(reg *Registry, cfg DirectorConfig) *Director {
	cfg.fill()
	return &Director{reg: reg, cfg: cfg, lastAction: make(map[string]time.Time)}
}

// Run ticks until the context ends.
func (d *Director) Run(ctx context.Context) {
	t := time.NewTicker(d.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			d.tick()
		}
	}
}

// tick inspects every group once and fails over the dead ones.
func (d *Director) tick() {
	view := d.reg.View()
	window := time.Duration(d.cfg.MissedBeats) * d.cfg.Interval
	for _, group := range view.Groups() {
		recs := view.GroupNodes(group)
		var livePrimary bool
		var candidates []NodeRecord
		for _, rec := range recs {
			fresh := d.reg.FreshSince(rec.ID, window)
			switch {
			case rec.Role == RolePrimary && !rec.Fenced && fresh:
				livePrimary = true
			case rec.Role == RoleFollower && fresh:
				candidates = append(candidates, rec)
			}
		}
		if livePrimary || len(candidates) == 0 {
			continue
		}
		if last, ok := d.lastAction[group]; ok && time.Since(last) < 2*window {
			continue
		}
		// Elect the candidate with the highest acked watermark; GroupNodes
		// already ordered followers by descending (epoch, offset) with an
		// id tie-break, so the first candidate is the election winner.
		winner := candidates[0]
		d.lastAction[group] = time.Now()
		d.cfg.Logf("membership: group %q has no live primary; promoting %s (%s) at wal %d:%d",
			group, winner.ID, winner.URL, winner.WALEpoch, winner.WALOffset)
		if err := d.promote(winner); err != nil {
			d.cfg.Logf("membership: promoting %s failed: %v", winner.URL, err)
		}
	}
}

func (d *Director) promote(rec NodeRecord) error {
	u := rec.URL + DefaultPromotePath
	resp, err := d.cfg.Client.Post(u, "application/json", nil)
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
	return nil
}

// RebalancerConfig tunes the migration runner. Zero values select defaults.
type RebalancerConfig struct {
	// SettleDelay is how long to wait after announcing a rebalance before
	// copying, so every coordinator has gossiped the pending state and
	// started dual-routing writes for the moving range. It should cover a
	// few heartbeat intervals (default 2 × DefaultHeartbeatInterval).
	SettleDelay time.Duration
	// Client carries the snapshot streams (DefaultExportPath to
	// DefaultImportPath); nil builds one with no global timeout (exports
	// can be large) — per-call contexts bound each leg.
	Client *http.Client
	// Backoff paces the shipAttempts tries of each leg.
	Backoff retry.Backoff
	// Logf receives migration diagnostics; nil selects log.Printf.
	Logf func(format string, args ...interface{})
}

func (c *RebalancerConfig) fill() {
	if c.SettleDelay <= 0 {
		c.SettleDelay = 2 * DefaultHeartbeatInterval
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
}

// shipAttempts bounds the tries of one (source, destination) shipping leg.
const shipAttempts = 3

// Rebalancer executes a proposed rebalance: wait for the dual-write window
// to open everywhere, snapshot-ship every moving song from its old owner
// to its new one (twice — the second pass is cheap and idempotent, and
// catches writes that landed between the proposal and the first pass),
// then commit the ring. Export and import are both idempotent, so any leg
// can be retried; a failed migration aborts without committing and leaves
// placement on the old ring — already-copied songs are harmless duplicates
// the coordinator's read path dedupes by song id.
type Rebalancer struct {
	reg *Registry
	cfg RebalancerConfig
}

// NewRebalancer builds the migration runner over a registry.
func NewRebalancer(reg *Registry, cfg RebalancerConfig) *Rebalancer {
	cfg.fill()
	return &Rebalancer{reg: reg, cfg: cfg}
}

// Run migrates one proposed rebalance to completion (or aborts it).
func (rb *Rebalancer) Run(ctx context.Context, r Rebalance) error {
	if !r.Active() {
		return fmt.Errorf("membership: no rebalance to run")
	}
	rb.cfg.Logf("membership: rebalance v%d -> v%d: settling %v for dual-writes",
		r.From.Version, r.To.Version, rb.cfg.SettleDelay)
	if err := retry.Sleep(ctx, rb.cfg.SettleDelay); err != nil {
		return err
	}
	for pass := 1; pass <= 2; pass++ {
		if err := rb.copyPass(ctx, r); err != nil {
			rb.reg.AbortRebalance()
			return fmt.Errorf("membership: rebalance copy pass %d: %w", pass, err)
		}
	}
	rb.reg.CommitRebalance(r.To)
	return nil
}

// copyPass ships, for every (source, destination) group pair, the source's
// songs that the target ring places on the destination.
func (rb *Rebalancer) copyPass(ctx context.Context, r Rebalance) error {
	view := rb.reg.View()
	for _, src := range r.From.Groups {
		srcPrimary, err := primaryOf(view, src)
		if err != nil {
			return err
		}
		for _, dst := range r.To.Groups {
			if dst == src {
				continue
			}
			dstPrimary, err := primaryOf(view, dst)
			if err != nil {
				return err
			}
			err = retry.Do(ctx, shipAttempts, rb.cfg.Backoff, func() (bool, time.Duration, error) {
				n, err := rb.ship(ctx, srcPrimary.URL, dstPrimary.URL, dst, r.To)
				if err != nil {
					return true, 0, err
				}
				if n > 0 {
					rb.cfg.Logf("membership: shipped %d songs %s -> %s", n, src, dst)
				}
				return false, 0, nil
			})
			if err != nil {
				return fmt.Errorf("shipping %s -> %s: %w", src, dst, err)
			}
		}
	}
	return nil
}

// primaryOf picks the group's routable primary record from the view.
func primaryOf(v View, group string) (NodeRecord, error) {
	for _, rec := range v.GroupNodes(group) {
		if rec.Role == RolePrimary && !rec.Fenced {
			return rec, nil
		}
	}
	return NodeRecord{}, fmt.Errorf("membership: group %q has no primary in the view", group)
}

// ExportRequest is the replica export-endpoint payload: "stream me every
// local song the given ring places on the given group".
type ExportRequest struct {
	Ring  Ring   `json:"ring"`
	Group string `json:"group"`
}

// exportCountHeader carries the number of songs in an export stream, so
// the shipper can skip the import POST for empty streams.
const ExportCountHeader = "X-Qbh-Export-Songs"

// ship streams one export directly into one import. The bytes never land
// on the registry's disk: the export response body is the import request
// body.
func (rb *Rebalancer) ship(ctx context.Context, srcURL, dstURL, dstGroup string, ring Ring) (int, error) {
	body := mustJSON(ExportRequest{Ring: ring, Group: dstGroup})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srcURL+DefaultExportPath, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rb.cfg.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("export %s: %s", srcURL, resp.Status)
	}
	if resp.Header.Get(ExportCountHeader) == "0" {
		return 0, nil
	}
	ireq, err := http.NewRequestWithContext(ctx, http.MethodPost, dstURL+DefaultImportPath, resp.Body)
	if err != nil {
		return 0, err
	}
	ireq.Header.Set("Content-Type", "application/octet-stream")
	iresp, err := rb.cfg.Client.Do(ireq)
	if err != nil {
		return 0, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, iresp.Body)
		_ = iresp.Body.Close()
	}()
	if iresp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("import %s: %s", dstURL, iresp.Status)
	}
	var out struct {
		Applied int `json:"applied"`
	}
	if err := json.NewDecoder(iresp.Body).Decode(&out); err != nil {
		return 0, err
	}
	return out.Applied, nil
}
