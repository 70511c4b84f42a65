package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"warping/internal/music"
	"warping/internal/pager"
	"warping/internal/qbh"
	"warping/internal/replica"
	"warping/internal/store"
)

// The four implementations of Backend, and nothing else in the module.
var (
	_ Backend = (*qbh.System)(nil)
	_ Backend = (*qbh.Durable)(nil)
	_ Backend = (*replica.Node)(nil)
	_ Backend = (*Coordinator)(nil)
)

// statsDoc fetches /stats as the untyped document on the wire.
func statsDoc(t *testing.T, baseURL string) map[string]any {
	t.Helper()
	var doc map[string]any
	getJSON(t, baseURL+"/stats", &doc)
	return doc
}

// shape lists a JSON document's leaves as sorted "path:kind" words — the
// key set and value kinds, none of the values. An array is described by its
// first element.
func shape(doc any) string {
	var leaves []string
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				walk(strings.TrimPrefix(path+"."+k, "."), e)
			}
		case []any:
			if len(v) > 0 {
				walk(path+"[]", v[0])
			} else {
				leaves = append(leaves, path+":array")
			}
		case float64:
			leaves = append(leaves, path+":number")
		default:
			leaves = append(leaves, fmt.Sprintf("%s:%T", path, v))
		}
	}
	walk("", doc)
	return sortWords(leaves)
}

func sortWords(words []string) string {
	sort.Strings(words)
	return strings.Join(words, " ")
}

// What GET /stats answered for each node kind at the commit before Stats
// joined Backend (qbhd built from ea705e1, same states as the cases below;
// the follower id under ack_watermarks, there a data directory, is "f1"),
// less the shards.count / shards.lens[] section that left with in-process
// sharding and the membership section that left with dynamic membership,
// plus buffer_pool.waits, the pager's pin-wait counter, and with
// replication.offset renamed replication.seq when positions stopped being
// WAL byte offsets.
const (
	shapeCounts      = "phrases:number songs:number"
	shapeCache       = " result_cache.bytes:number result_cache.entries:number result_cache.hit_rate:number result_cache.hits:number result_cache.invalidations:number result_cache.max_bytes:number result_cache.misses:number"
	shapePool        = " buffer_pool.evictions:number buffer_pool.hit_rate:number buffer_pool.hits:number buffer_pool.misses:number buffer_pool.overflows:number buffer_pool.page_size:number buffer_pool.pinned:number buffer_pool.pool_pages:number buffer_pool.resident:number buffer_pool.waits:number"
	shapeDurability  = " durability.dir:string durability.last_fsync_micros:number durability.snapshot_age_sec:number durability.snapshot_bytes:number durability.snapshots:number durability.wal_bytes:number durability.wal_records:number durability.wal_syncs:number"
	shapeReplication = " replication.epoch:number replication.group:string replication.role:string replication.seq:number"
)

var statsGolden = map[string]string{
	"memory":      shapeCounts,
	"cached":      shapeCounts + shapeCache,
	"durable":     shapeCounts + shapeDurability,
	"paged":       shapeCounts + shapePool + shapeDurability,
	"primary":     shapeCounts + shapeDurability + shapeReplication + " replication.ack_watermarks.f1:string",
	"follower":    shapeCounts + shapeDurability + shapeReplication,
	"coordinator": shapeCounts,
}

// TestStatsSections holds GET /stats, for every kind of node qbhd runs, to
// the key set and value kinds it had when the handler assembled it from
// type-asserted side interfaces, and to decoding into StatsResponse without
// loss: each layer's section is now the struct that layer hands to
// Backend.Stats.
func TestStatsSections(t *testing.T) {
	base := music.BuiltinSongs()
	build := func() (*qbh.System, error) { return qbh.Build(base, clusterOpts) }
	quiet := func(string, ...interface{}) {}
	serve := func(b Backend, mount func(*Handler)) string {
		h := NewBackend(b, Config{})
		if mount != nil {
			mount(h)
		}
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		return srv.URL
	}
	durable := func(pool *pager.Config) *qbh.Durable {
		d, err := qbh.OpenDurable(t.TempDir(), qbh.DurableOptions{Build: build, Pager: pool, FS: store.OS(), Logf: quiet})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = d.Close() })
		return d
	}
	urls := map[string]string{}

	mem, err := build()
	if err != nil {
		t.Fatal(err)
	}
	urls["memory"] = serve(mem, nil)
	cached, err := build()
	if err != nil {
		t.Fatal(err)
	}
	cached.EnableResultCache(1 << 20)
	urls["cached"] = serve(cached, nil)
	urls["durable"] = serve(durable(nil), nil)
	urls["paged"] = serve(durable(&pager.Config{PoolPages: 16}), nil)

	// A primary, its follower, and a coordinator over the two.
	replicaNode := func(id string, cfg replica.NodeConfig) string {
		cfg.Group, cfg.FollowerID, cfg.Backoff, cfg.PollWait, cfg.Logf = "g", id, testBackoff, 100*time.Millisecond, quiet
		n, err := replica.NewNode(durable(nil), cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Stop)
		return serve(n, func(h *Handler) { n.Mount(h) })
	}
	urls["primary"] = replicaNode("p1", replica.NodeConfig{Role: replica.RolePrimary})
	urls["follower"] = replicaNode("f1", replica.NodeConfig{Role: replica.RoleFollower, PrimaryURL: urls["primary"]})
	coord, err := NewCoordinator(CoordinatorConfig{
		Groups: []GroupSpec{{Name: "g", Replicas: []string{urls["primary"], urls["follower"]}}},
		Logf:   quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = coord.Close() })
	urls["coordinator"] = serve(coord, nil)

	// The group has settled once the follower's ack has reached the primary.
	settled := func() bool {
		var p StatsResponse
		getJSON(t, urls["primary"]+"/stats", &p)
		return len(p.Replication.AckWatermarks) == 1
	}
	for deadline := time.Now().Add(20 * time.Second); !settled(); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the follower never acknowledged a position to the primary")
		}
	}

	for kind, want := range statsGolden {
		doc := statsDoc(t, urls[kind])
		if got, want := shape(doc), sortWords(strings.Fields(want)); got != want {
			t.Errorf("%s /stats has\n  %s\nthe parent had\n  %s", kind, got, want)
		}
		// The typed decode shape loses nothing: re-encoded, it is the
		// document again.
		raw, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		var typed StatsResponse
		if err := json.Unmarshal(raw, &typed); err != nil {
			t.Fatalf("%s /stats does not decode into StatsResponse: %v", kind, err)
		}
		back, err := json.Marshal(typed)
		if err != nil {
			t.Fatal(err)
		}
		var again map[string]any
		if err := json.Unmarshal(back, &again); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, doc) {
			t.Errorf("%s /stats changed through StatsResponse:\n  sent %s\n  back %s", kind, raw, back)
		}
	}
}

// An untouched buffer pool has no hit rate: /stats must report 0 — never
// NaN, never a perfect 1 — before the first lookup, and the real ratio
// after.
func TestStatsBufferPoolHitRateUntouched(t *testing.T) {
	hitRate := func(st pager.Stats) any {
		t.Helper()
		raw, err := json.Marshal(StatsResponse{BufferPool: &st})
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			BufferPool map[string]any `json:"buffer_pool"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%v in %s", err, raw)
		}
		return doc.BufferPool["hit_rate"]
	}
	if got := hitRate(pager.Stats{PageSize: 4096, PoolPages: 8}); got != 0.0 {
		t.Fatalf("untouched pool hit_rate = %v, want 0", got)
	}
	if got := hitRate(pager.Stats{PageSize: 4096, PoolPages: 8, Hits: 3, Misses: 1}); got != 0.75 {
		t.Fatalf("hit_rate = %v, want 0.75", got)
	}
}
