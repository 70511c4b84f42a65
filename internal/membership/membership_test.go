package membership

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

// randRecord builds a node record with every dominance-relevant field
// randomized, so merge properties are exercised across ties and
// dominance in both directions.
func randRecord(r *rand.Rand, id string) NodeRecord {
	groups := []string{"a", "b", "c"}
	roles := []string{RolePrimary, RoleFollower}
	return NodeRecord{
		ID:          id,
		URL:         "http://" + id,
		Group:       groups[r.Intn(len(groups))],
		Role:        roles[r.Intn(len(roles))],
		Fenced:      r.Intn(4) == 0,
		Incarnation: int64(r.Intn(3)),
		Counter:     uint64(r.Intn(5)),
		WALEpoch:    int64(r.Intn(3)),
		WALOffset:   int64(r.Intn(100)),
	}
}

func randView(r *rand.Rand) View {
	v := View{Nodes: map[string]NodeRecord{}}
	for _, id := range []string{"n1", "n2", "n3", "n4"} {
		if r.Intn(3) > 0 {
			v.Nodes[id] = randRecord(r, id)
		}
	}
	if r.Intn(2) == 0 {
		all := []string{"a", "b", "c"}
		v.Ring = NewRing(uint64(r.Intn(3)), all[:1+r.Intn(len(all))])
	}
	if r.Intn(3) == 0 {
		from := NewRing(uint64(1+r.Intn(2)), []string{"a"})
		v.Rebalance = Rebalance{From: from, To: NewRing(from.Version+1, []string{"a", "b"})}
	}
	return v
}

// viewKey is the canonical byte form views are compared by: EncodeView is
// deterministic (encoding/json sorts map keys).
func viewKey(v View) string { return string(EncodeView(v)) }

// TestMergeProperties checks the lattice laws the gossip protocol leans
// on: merging in any order, any grouping, any number of times converges
// on the same view. Without them, two nodes gossiping the same facts
// could disagree forever.
func TestMergeProperties(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a, b, c := randView(r), randView(r), randView(r)
		ab, ba := Merge(a, b), Merge(b, a)
		if viewKey(ab) != viewKey(ba) {
			t.Fatalf("iter %d: merge not commutative:\n a=%s\n b=%s\nab=%s\nba=%s",
				i, viewKey(a), viewKey(b), viewKey(ab), viewKey(ba))
		}
		left, right := Merge(ab, c), Merge(a, Merge(b, c))
		if viewKey(left) != viewKey(right) {
			t.Fatalf("iter %d: merge not associative:\n(a+b)+c=%s\na+(b+c)=%s",
				i, viewKey(left), viewKey(right))
		}
		if m := Merge(ab, ab); viewKey(m) != viewKey(ab) {
			t.Fatalf("iter %d: merge not idempotent:\n m=%s\nmm=%s", i, viewKey(ab), viewKey(m))
		}
	}
}

// TestViewCodecRoundTrip: encode/decode is the gossip wire format; a view
// must survive it byte-identically.
func TestViewCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		v := Merge(randView(r), randView(r)) // merged = normalized, as on the wire
		dec, err := DecodeView(EncodeView(v))
		if err != nil {
			t.Fatalf("iter %d: decode: %v (view %s)", i, err, viewKey(v))
		}
		if viewKey(dec) != viewKey(v) {
			t.Fatalf("iter %d: round trip changed the view:\nin  %s\nout %s", i, viewKey(v), viewKey(dec))
		}
	}
}

// TestDecodeViewRejects pins the validation DecodeView applies to
// untrusted wire input.
func TestDecodeViewRejects(t *testing.T) {
	bad := []string{
		`{`,                          // not JSON
		`{"nodes":{"a":{"id":"b"}}}`, // map key != record id
		`{"ring":{"version":1,"groups":["b","a"]}}`,                                                 // unsorted ring
		`{"ring":{"version":1,"groups":["a","a"]}}`,                                                 // duplicate group
		`{"ring":{"version":1,"groups":[""]}}`,                                                      // empty group name
		`{"rebalance":{"from":{"version":2,"groups":["a"]},"to":{"version":2,"groups":["a","b"]}}}`, // to not newer
	}
	for _, s := range bad {
		if _, err := DecodeView([]byte(s)); err == nil {
			t.Errorf("DecodeView accepted %s", s)
		}
	}
}

// TestRingPlacement checks the consistent-hash ring's three contracts:
// determinism, rough balance across groups, and minimal movement when the
// membership changes.
func TestRingPlacement(t *testing.T) {
	keys := make([]string, 10000)
	for i := range keys {
		keys[i] = "Song Title " + strconv.Itoa(i)
	}
	two := NewRing(1, []string{"a", "b"})
	three := NewRing(2, []string{"a", "b", "c"})

	counts := map[string]int{}
	for _, k := range keys {
		o1, o2 := three.Owner(k), three.Owner(k)
		if o1 != o2 || !three.Contains(o1) {
			t.Fatalf("placement of %q not deterministic or off-ring: %q/%q", k, o1, o2)
		}
		counts[o1]++
	}
	for _, g := range three.Groups {
		if frac := float64(counts[g]) / float64(len(keys)); frac < 0.15 || frac > 0.55 {
			t.Fatalf("group %q owns %.0f%% of keys; vnode spread degenerated (counts %v)",
				g, 100*frac, counts)
		}
	}

	// Growing a→b into a→b→c may move keys only ONTO c: a key moving
	// between a and b would be pointless migration churn.
	var moved []string
	for _, k := range keys {
		if two.Owner(k) != three.Owner(k) {
			moved = append(moved, k)
		}
	}
	if len(moved) == 0 {
		t.Fatal("adding a group moved no keys")
	}
	if frac := float64(len(moved)) / float64(len(keys)); frac > 0.6 {
		t.Fatalf("adding one group moved %.0f%% of keys; want roughly 1/3", 100*frac)
	}
	for _, k := range moved {
		if got := three.Owner(k); got != "c" {
			t.Fatalf("key %q moved from %q to %q, not to the new group", k, two.Owner(k), got)
		}
	}
}

// fakeClock drives registry freshness deterministically.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func beat(id, group, role string, epoch, offset int64, counter uint64) View {
	return View{Nodes: map[string]NodeRecord{id: {
		ID: id, URL: "http://" + id, Group: group, Role: role,
		Incarnation: 1, Counter: counter, WALEpoch: epoch, WALOffset: offset,
	}}}
}

// TestRegistryBootstrap covers both ring-bootstrap modes: the exact-set
// mode waits for every named group, the quiet-period mode takes whatever
// showed up.
func TestRegistryBootstrap(t *testing.T) {
	t.Run("exact set", func(t *testing.T) {
		reg := NewRegistry(RegistryConfig{BootstrapGroups: []string{"a", "b"}, Logf: t.Logf})
		reg.Absorb(beat("p-a", "a", RolePrimary, 1, 0, 1))
		if !reg.View().Ring.Empty() {
			t.Fatal("ring bootstrapped before every named group appeared")
		}
		reg.Absorb(beat("p-b", "b", RolePrimary, 1, 0, 1))
		ring := reg.View().Ring
		if ring.Version != 1 || len(ring.Groups) != 2 {
			t.Fatalf("ring after bootstrap = %+v, want v1 {a,b}", ring)
		}
	})
	t.Run("quiet period", func(t *testing.T) {
		clock := &fakeClock{now: time.Unix(1000, 0)}
		reg := NewRegistry(RegistryConfig{BootstrapDelay: time.Second, Logf: t.Logf})
		reg.cfg.now = clock.Now
		reg.Absorb(beat("p-a", "a", RolePrimary, 1, 0, 1))
		reg.Absorb(beat("p-b", "b", RolePrimary, 1, 0, 1))
		if !reg.View().Ring.Empty() {
			t.Fatal("ring bootstrapped before the quiet period elapsed")
		}
		clock.Advance(2 * time.Second)
		reg.Absorb(beat("p-a", "a", RolePrimary, 1, 0, 2))
		ring := reg.View().Ring
		if ring.Version != 1 || len(ring.Groups) != 2 {
			t.Fatalf("ring after quiet period = %+v, want v1 {a,b}", ring)
		}
	})
}

// TestRegistryRebalanceStateMachine drives propose → commit and propose →
// abort directly, pinning the one-at-a-time rule and the version bumps.
func TestRegistryRebalanceStateMachine(t *testing.T) {
	reg := NewRegistry(RegistryConfig{BootstrapGroups: []string{"a", "b"}, Logf: t.Logf})
	reg.Absorb(beat("p-a", "a", RolePrimary, 1, 0, 1))
	reg.Absorb(beat("p-b", "b", RolePrimary, 1, 0, 1))

	if _, err := reg.ProposeRebalance("add", "a"); err == nil {
		t.Fatal("adding an existing group did not fail")
	}
	rb, err := reg.ProposeRebalance("add", "c")
	if err != nil {
		t.Fatal(err)
	}
	if rb.From.Version != 1 || rb.To.Version != 2 || !rb.To.Contains("c") {
		t.Fatalf("proposed rebalance = %+v", rb)
	}
	if _, err := reg.ProposeRebalance("add", "d"); err == nil {
		t.Fatal("second in-flight rebalance accepted")
	}
	reg.CommitRebalance(rb.To)
	v := reg.View()
	if v.Ring.Version != 2 || !v.Ring.Contains("c") || v.Rebalance.Active() {
		t.Fatalf("after commit: ring %+v rebalance %+v", v.Ring, v.Rebalance)
	}

	rb2, err := reg.ProposeRebalance("remove", "c")
	if err != nil {
		t.Fatal(err)
	}
	reg.AbortRebalance()
	v = reg.View()
	if v.Ring.Version != 2 || v.Rebalance.Active() {
		t.Fatalf("after abort: ring %+v rebalance %+v (proposed %+v)", v.Ring, v.Rebalance, rb2)
	}
}

// TestDirectorFailover drives one tick against fake replica servers: a
// group whose primary went silent must promote the freshest follower with
// the HIGHEST acked watermark, and call nothing else (the other survivor
// follows the view, not the director).
func TestDirectorFailover(t *testing.T) {
	var mu sync.Mutex
	calls := map[string][]string{} // node -> paths hit
	node := func(name string) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			calls[name] = append(calls[name], r.URL.Path+"?"+r.URL.RawQuery)
			mu.Unlock()
			w.WriteHeader(http.StatusOK)
		}))
	}
	behind, ahead := node("behind"), node("ahead")
	defer behind.Close()
	defer ahead.Close()

	clock := &fakeClock{now: time.Unix(2000, 0)}
	reg := NewRegistry(RegistryConfig{Logf: t.Logf})
	reg.cfg.now = clock.Now

	const interval = 100 * time.Millisecond
	rec := func(id, url, role string, offset int64, counter uint64) View {
		return View{Nodes: map[string]NodeRecord{id: {
			ID: id, URL: url, Group: "g", Role: role,
			Incarnation: 1, Counter: counter, WALEpoch: 3, WALOffset: offset,
		}}}
	}
	reg.Absorb(rec("p", "http://dead-primary", RolePrimary, 50, 1))
	reg.Absorb(rec("f-behind", behind.URL, RoleFollower, 40, 1))
	reg.Absorb(rec("f-ahead", ahead.URL, RoleFollower, 50, 1))

	d := NewDirector(reg, DirectorConfig{Interval: interval, MissedBeats: 3, Logf: t.Logf})

	// Everyone fresh: no action.
	d.tick()
	mu.Lock()
	if len(calls["behind"])+len(calls["ahead"]) != 0 {
		mu.Unlock()
		t.Fatalf("director acted on a healthy group: %v", calls)
	}
	mu.Unlock()

	// The primary goes silent; the followers keep beating.
	clock.Advance(time.Second)
	reg.Absorb(rec("f-behind", behind.URL, RoleFollower, 40, 2))
	reg.Absorb(rec("f-ahead", ahead.URL, RoleFollower, 50, 2))
	d.tick()

	mu.Lock()
	defer mu.Unlock()
	if len(calls["ahead"]) != 1 || calls["ahead"][0] != DefaultPromotePath+"?" {
		t.Fatalf("most-caught-up follower calls = %v, want one promote", calls["ahead"])
	}
	if len(calls["behind"]) != 0 {
		t.Fatalf("survivor calls = %v, want none", calls["behind"])
	}
}
