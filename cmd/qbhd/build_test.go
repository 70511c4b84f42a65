package main

import (
	"flag"
	"math"
	"path/filepath"
	"testing"
	"time"

	"warping/internal/pager"
	"warping/internal/qbh"
)

// A node started with -pool-pages builds its corpus once: buildSystem, given
// the page space OpenDurable resolves, returns a system that is already
// out-of-core (OpenDurable refuses a RAM one), and that system answers
// exactly as the RAM build of the same corpus does.
func TestBuildSystemComesUpPaged(t *testing.T) {
	dir := t.TempDir()
	dopts := qbh.DurableOptions{Pager: &pager.Config{PoolPages: 16}}
	pcfg := dopts.ResolvePager(dir)
	if pcfg.Dir != filepath.Join(dir, "pages") {
		t.Fatalf("resolved page directory %q, want it under the data directory", pcfg.Dir)
	}
	paged, err := buildSystem("", 20, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer paged.Close()
	if _, ok := paged.PoolStats(); !ok {
		t.Fatal("builder given a page space returned a RAM system: OpenDurable would build the corpus a second time")
	}
	ram, err := buildSystem("", 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ram.Close()
	if _, ok := ram.PoolStats(); ok {
		t.Fatal("builder given no page space returned a paged system")
	}

	notes := []float64{60, 60, 67, 67, 69, 69, 67, 65, 65, 64, 64, 62, 62, 60}
	var hum []float64
	for _, p := range notes {
		for i := 0; i < 25; i++ {
			hum = append(hum, p+0.25*float64(i%3))
		}
	}
	want, _ := ram.Query(hum, 5, 0.1)
	got, stats := paged.Query(hum, 5, 0.1)
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("paged build returned %d matches, RAM build %d", len(got), len(want))
	}
	for i := range want {
		if got[i].SongID != want[i].SongID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			t.Errorf("match %d: paged %+v, RAM %+v", i, got[i], want[i])
		}
	}
	if stats.PageAccesses == 0 {
		t.Error("paged query touched no page")
	}
}

// The durable options a -data node opens with carry the 2 ms group-commit
// window the removed -group-commit flag defaulted to (DurableOptions' zero
// value would fsync every upload on its own) beside the flags' own values.
func TestDurableOptionsGroupCommit(t *testing.T) {
	fs := flag.NewFlagSet("qbhd", flag.ContinueOnError)
	o := registerFlags(fs)
	if err := fs.Parse([]string{"-data", t.TempDir(), "-snapshot-interval", "2s"}); err != nil {
		t.Fatal(err)
	}
	dopts := o.durableOptions()
	if dopts.GroupCommit != 2*time.Millisecond {
		t.Errorf("group-commit window %v, want 2ms", dopts.GroupCommit)
	}
	if dopts.SnapshotInterval != 2*time.Second {
		t.Errorf("snapshot interval %v, want the flag's 2s", dopts.SnapshotInterval)
	}
	if dopts.Pager != nil {
		t.Error("no -pool-pages, yet the options page the corpus")
	}
}
