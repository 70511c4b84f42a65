package membership

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// ringVnodes is how many points each group contributes to the hash circle.
// More points smooth the key distribution between groups; 64 keeps the
// worst-case imbalance within a few percent for the group counts this
// system runs at while the ring stays a few KB.
const ringVnodes = 64

// Ring is a versioned consistent-hash ring over shard groups. Placement is
// pure: every node computes the same owner from the same (Version, Groups)
// pair, so the ring can travel in the membership view with no coordination
// beyond version dominance. Unlike the rendezvous hash it replaces, a ring
// is explicit about its version — the unit the rebalance state machine cuts
// reads over on — and adding or removing one group only moves the keys in
// the arcs that group gains or loses.
type Ring struct {
	// Version orders rings; higher wins a merge. Version 0 with groups is
	// the static-topology ring (no membership view involved).
	Version uint64 `json:"version"`
	// Groups is the sorted, deduplicated set of member group names.
	Groups []string `json:"groups,omitempty"`
}

// NewRing builds a canonical ring (sorted, deduplicated groups).
func NewRing(version uint64, groups []string) Ring {
	out := append([]string(nil), groups...)
	sort.Strings(out)
	dedup := out[:0]
	for _, g := range out {
		if g != "" && (len(dedup) == 0 || dedup[len(dedup)-1] != g) {
			dedup = append(dedup, g)
		}
	}
	return Ring{Version: version, Groups: dedup}
}

func (r Ring) clone() Ring {
	r.Groups = append([]string(nil), r.Groups...)
	return r
}

// Empty reports a ring with no groups.
func (r Ring) Empty() bool { return len(r.Groups) == 0 }

// Contains reports whether the group is a ring member.
func (r Ring) Contains(group string) bool {
	for _, g := range r.Groups {
		if g == group {
			return true
		}
	}
	return false
}

// dominates orders rings by version, with the same deterministic content
// tie-break as records; an empty ring never dominates a populated one at
// equal version (so a freshly-booted member cannot erase the topology).
func (r Ring) dominates(o Ring) bool {
	if r.Version != o.Version {
		return r.Version > o.Version
	}
	if (len(r.Groups) == 0) != (len(o.Groups) == 0) {
		return len(r.Groups) > 0
	}
	return string(mustJSON(r)) > string(mustJSON(o))
}

// validate enforces the canonical form DecodeView relies on.
func (r Ring) validate() error {
	for i, g := range r.Groups {
		if g == "" {
			return fmt.Errorf("membership: ring has empty group name")
		}
		if i > 0 && r.Groups[i-1] >= g {
			return fmt.Errorf("membership: ring groups not sorted and unique at %q", g)
		}
	}
	return nil
}

// Owner maps a placement key (a song title) to its owning group: the key
// hashes to a point on the circle and the first virtual node clockwise
// claims it. Empty rings own nothing ("").
func (r Ring) Owner(key string) string {
	if len(r.Groups) == 0 {
		return ""
	}
	if len(r.Groups) == 1 {
		return r.Groups[0]
	}
	points := r.points()
	kh := ringHash(key)
	i := sort.Search(len(points), func(i int) bool { return points[i].hash >= kh })
	if i == len(points) {
		i = 0 // wrap: past the last point, the first one claims it
	}
	return r.Groups[points[i].group]
}

type ringPoint struct {
	hash  uint64
	group int // index into Groups
}

// points lays the virtual nodes on the circle, sorted by hash. Ties —
// astronomically unlikely with 64-bit hashes but the placement must still
// be a function of the ring alone — resolve to the lexicographically
// smaller group via the sort's group-index tie-break on the sorted Groups
// slice.
func (r Ring) points() []ringPoint {
	pts := make([]ringPoint, 0, len(r.Groups)*ringVnodes)
	for gi, g := range r.Groups {
		for v := 0; v < ringVnodes; v++ {
			pts = append(pts, ringPoint{ringHash(g + "#" + strconv.Itoa(v)), gi})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].hash != pts[j].hash {
			return pts[i].hash < pts[j].hash
		}
		return pts[i].group < pts[j].group
	})
	return pts
}

func ringHash(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	// FNV barely avalanches on short, similar inputs — the vnode labels
	// "a#0".."a#63" hash to one tight arc and the circle degenerates. The
	// murmur3 fmix64 finalizer spreads them uniformly.
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
