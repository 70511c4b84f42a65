package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"warping/internal/replica"
)

// fakeReplica answers PathState with a fixed state and PathPromote with
// 200, counting both; its role does not change on promotion.
type fakeReplica struct {
	url                string
	probes, promotions atomic.Int32
}

func newFakeReplica(t *testing.T, role replica.Role, epoch, offset int64) *fakeReplica {
	t.Helper()
	f := &fakeReplica{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case replica.PathState:
			f.probes.Add(1)
			_ = json.NewEncoder(w).Encode(replica.StateResponse{Status: replica.Status{Role: role, Epoch: epoch, Offset: offset}})
		case replica.PathPromote:
			f.promotions.Add(1)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(srv.Close)
	f.url = srv.URL
	return f
}

// TestCoordinatorElectsFollower drives failoverTick directly, tick by tick,
// over five groups: a dead primary beside a live follower, a live primary,
// three replicas with no primary, two primaries at different epochs, and a
// single replica.
func TestCoordinatorElectsFollower(t *testing.T) {
	// A dead primary answers nothing usable (a closed listener's port could
	// be handed to another server).
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	t.Cleanup(down.Close)
	dead := down.URL

	orphan := newFakeReplica(t, replica.RoleFollower, 1, 40)
	primary, follower := newFakeReplica(t, replica.RolePrimary, 1, 50), newFakeReplica(t, replica.RoleFollower, 1, 50)
	trio := []*fakeReplica{newFakeReplica(t, replica.RoleFollower, 1, 30), newFakeReplica(t, replica.RoleFollower, 1, 31)}
	older, newer := newFakeReplica(t, replica.RolePrimary, 2, 900), newFakeReplica(t, replica.RolePrimary, 5, 10)
	single := newFakeReplica(t, replica.RoleFollower, 1, 1)

	groups := []GroupSpec{
		{Name: "dead-primary", Replicas: []string{dead, orphan.url}},
		{Name: "live-primary", Replicas: []string{primary.url, follower.url}},
		{Name: "trio", Replicas: []string{dead, trio[0].url, trio[1].url}},
		{Name: "two-primaries", Replicas: []string{older.url, newer.url}},
		{Name: "single", Replicas: []string{single.url}},
	}
	c, err := NewCoordinator(CoordinatorConfig{Groups: groups, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	// Stop the background loop before its first tick: this test is the
	// only caller of failoverTick.
	_ = c.Close()

	watch := make(map[string]*groupWatch)
	for tick := 1; tick <= 3*failoverMissed; tick++ {
		c.failoverTick(context.Background(), watch)
		want := int32(0)
		if tick >= failoverMissed {
			want = 1
		}
		if got := orphan.promotions.Load(); got != want {
			t.Fatalf("after silent tick %d the follower was promoted %d times, want %d", tick, got, want)
		}
	}
	if got := c.writeOrder(groups[0])[0]; got != orphan.url {
		t.Errorf("dead-primary writes go first to %s, want the promoted follower %s", got, orphan.url)
	}
	if n := follower.promotions.Load() + primary.promotions.Load(); n != 0 {
		t.Errorf("a group with a live primary saw %d promotions", n)
	}
	if n := trio[0].promotions.Load() + trio[1].promotions.Load(); n != 0 {
		t.Errorf("a three-replica group saw %d promotions", n)
	}
	if got := c.writeOrder(groups[3])[0]; got != newer.url {
		t.Errorf("with two primaries writes go first to %s, want the higher epoch's %s", got, newer.url)
	}
	if n := single.probes.Load(); n != 0 {
		t.Errorf("a single-replica group received %d state probes", n)
	}
}

// Placement without a ring: 10 000 titles hash over three groups with none
// holding less than 15 % or more than 55 % of them.
func TestPlacementBalance(t *testing.T) {
	c, err := NewCoordinator(CoordinatorConfig{
		Groups: []GroupSpec{{Name: "a", Replicas: []string{"http://a"}}, {Name: "b", Replicas: []string{"http://b"}}, {Name: "c", Replicas: []string{"http://c"}}},
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const titles = 10000
	count := map[string]int{}
	for i := 0; i < titles; i++ {
		count[c.owner(fmt.Sprintf("song %d", i)).Name]++
	}
	for _, g := range []string{"a", "b", "c"} {
		if share := float64(count[g]) / titles; share < 0.15 || share > 0.55 {
			t.Errorf("group %s holds %.1f%% of the titles (%v)", g, 100*share, count)
		}
	}
}
