package membership

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"time"
)

// AgentConfig configures one node's gossip participation.
type AgentConfig struct {
	// Seeds are the Registry base URLs. Each round gossips with the first
	// seed that answers; the rest are fallbacks.
	Seeds []string
	// Self, when non-nil, produces this node's own record each round (id,
	// group, role, watermark). The agent fills Incarnation and Counter.
	// Nil makes the agent a pure observer (a coordinator): it still
	// exchanges views, it just has no record of its own.
	Self func() NodeRecord
	// OnView is called with the merged view after every change — the hook
	// fencing checks and topology refreshes hang off. Called from the
	// gossip goroutine; keep it fast.
	OnView func(View)
	// Interval paces gossip rounds (DefaultHeartbeatInterval).
	Interval time.Duration
	// Incarnation distinguishes this process lifetime; 0 selects the
	// start-time in nanoseconds, which is strictly larger than any prior
	// life's on any sanely-clocked machine.
	Incarnation int64
	// Client is the HTTP client for heartbeats; nil builds one with a
	// per-request timeout of Interval (a slow seed must not stall beats).
	Client *http.Client
	// Logf receives diagnostics; nil selects log.Printf.
	Logf func(format string, args ...interface{})
}

// Agent runs the gossip loop: bump own record, push the local view to a
// seed, merge the reply. The local view is the node's knowledge of the
// cluster between rounds — it survives seed death (stale but serviceable)
// and reseeds a restarted registry.
type Agent struct {
	cfg     AgentConfig
	mu      sync.Mutex
	view    View
	counter uint64

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// StartAgent begins gossiping immediately (one synchronous round attempt
// before returning, so a caller on a healthy cluster starts with a view).
func StartAgent(cfg AgentConfig) (*Agent, error) {
	if len(cfg.Seeds) == 0 {
		return nil, fmt.Errorf("membership: agent needs at least one seed URL")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultHeartbeatInterval
	}
	if cfg.Incarnation == 0 {
		cfg.Incarnation = time.Now().UnixNano()
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: cfg.Interval * 4}
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	a := &Agent{
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	a.gossipOnce() // best-effort initial view; errors just wait for the loop
	go a.loop()
	return a, nil
}

// View returns the agent's current merged view.
func (a *Agent) View() View {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.view.Clone()
}

// Stop ends the gossip loop.
func (a *Agent) Stop() {
	a.stopOnce.Do(func() { close(a.stop) })
	<-a.done
}

func (a *Agent) loop() {
	defer close(a.done)
	t := time.NewTicker(a.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-t.C:
			a.gossipOnce()
		}
	}
}

// gossipOnce performs one push-pull round: stamp own record into the local
// view, POST the view to the first answering seed, merge the reply.
func (a *Agent) gossipOnce() {
	a.mu.Lock()
	if a.cfg.Self != nil {
		a.counter++
		rec := a.cfg.Self()
		rec.Incarnation = a.cfg.Incarnation
		rec.Counter = a.counter
		if a.view.Nodes == nil {
			a.view.Nodes = make(map[string]NodeRecord)
		}
		a.view.Nodes[rec.ID] = rec
	}
	body := EncodeView(a.view)
	a.mu.Unlock()

	var reply View
	var err error
	ok := false
	for _, seed := range a.cfg.Seeds {
		reply, err = postView(a.cfg.Client, seed+PathHeartbeat, body)
		if err == nil {
			ok = true
			break
		}
	}
	if !ok {
		// Seed down: keep serving from the last view; the next round
		// retries. This is what makes seed death a non-event for traffic.
		a.cfg.Logf("membership: heartbeat failed against all %d seed(s): %v", len(a.cfg.Seeds), err)
		return
	}
	a.mu.Lock()
	a.view = Merge(a.view, reply)
	merged := a.view.Clone()
	a.mu.Unlock()
	if a.cfg.OnView != nil {
		a.cfg.OnView(merged)
	}
}

func postView(client *http.Client, url string, body []byte) (View, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return View{}, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return View{}, fmt.Errorf("membership: seed returned %s", resp.Status)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return View{}, err
	}
	return DecodeView(data)
}
