package rtree

import (
	"encoding/binary"
	"math"
	"os"
	"slices"
	"testing"

	"warping/internal/pager"
)

// FuzzNodeDecode feeds arbitrary bytes as a node page payload: searches
// over it must reject malformed metadata with an error — never panic, never
// read out of bounds. (Checksum rejection of disk corruption is covered by
// the pager's FuzzPageCodec; this fuzzes the layer above, the node layout
// decoder, with CRC-valid but hostile payloads.)
func FuzzNodeDecode(f *testing.F) {
	// Seed with a genuine leaf payload and mutations of its meta word.
	valid := make([]byte, 496) // 512-byte page payload
	binary.LittleEndian.PutUint64(valid, encodeMeta(true, 0, 2, 3))
	for i := 8; i < len(valid); i++ {
		valid[i] = byte(i)
	}
	f.Add(valid, 3)
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(huge, encodeMeta(true, 0, 40000, 3)) // count OOB
	f.Add(huge, 3)
	inner := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(inner, encodeMeta(false, 1, 2, 3)) // not a leaf: no internal node is ever written
	f.Add(inner, 3)
	f.Add([]byte{1, 2, 3}, 5)

	f.Fuzz(func(t *testing.T, payload []byte, dim int) {
		if dim < 1 || dim > 16 {
			return
		}
		dir, err := os.MkdirTemp("", "nodefuzz")
		if err != nil {
			t.Fatal(err)
		}
		defer os.RemoveAll(dir)
		sp, err := pager.Open(pager.Config{PageSize: 512, PoolPages: 8, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer sp.Close()
		file, err := sp.NewFile(pager.KindRTree)
		if err != nil {
			t.Fatal(err)
		}
		pg := sp.NewPage()
		copy(pg.Bytes()[16:], payload)
		pid, err := file.AppendPage(pg)
		if err != nil {
			t.Fatal(err)
		}
		// A page whose meta does not describe a leaf of this tree that fits
		// the page must be refused by every walker; any other is searched.
		leaf, _, count, d := decodeMeta(binary.LittleEndian.Uint64(pg.Bytes()[16:]))
		hostile := !leaf || d != dim || 1+count*(dim+1) > (512-16)/8

		pt := &Tree{dim: dim, f: file, pool: sp.Pool(), size: 1, root: &node{leaf: true, page: pid}}
		q := PointRect(make([]float64, dim))
		_, rangeErr := pt.RangeSearchInto(q, 10, nil, nil)
		it := pt.NNIter(q, nil)
		for i := 0; i < 4; i++ {
			if _, ok := it.Next(math.Inf(1)); !ok {
				break
			}
		}
		nnErr := it.Err()
		it.Close()
		visitErr := pt.VisitLeaves(func(Item) {})
		for name, err := range map[string]error{"RangeSearchInto": rangeErr, "NNIter.Next": nnErr, "VisitLeaves": visitErr} {
			if (err != nil) != hostile {
				t.Fatalf("%s over a page with meta leaf=%v count=%d dim=%d (tree dim %d): err %v", name, leaf, count, d, dim, err)
			}
		}
	})
}

// FuzzNodeRoundTrip builds a tree from fuzz-derived points, serializes it
// twice, and proves (a) every item survives decode with identical id and point,
// and (b) the encoding is byte-stable: both serializations produce
// identical page files.
func FuzzNodeRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, 2)
	f.Add([]byte{0xFF, 0, 0x80, 0x40, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}, 3)
	f.Fuzz(func(t *testing.T, data []byte, dim int) {
		if dim < 1 || dim > 8 || len(data) < dim {
			return
		}
		var items []Item
		for off := 0; off+dim <= len(data) && len(items) < 200; off += dim {
			p := make([]float64, dim)
			for j := 0; j < dim; j++ {
				p[j] = float64(int8(data[off+j]))
			}
			items = append(items, Item{ID: int64(len(items) + 1), Point: p})
		}
		dir, err := os.MkdirTemp("", "rtfuzz")
		if err != nil {
			t.Fatal(err)
		}
		defer os.RemoveAll(dir)
		encode := func(sub string) ([]byte, int) {
			sp, err := pager.Open(pager.Config{PageSize: 512, PoolPages: 64, Dir: dir + "/" + sub})
			if err != nil {
				t.Fatal(err)
			}
			defer sp.Close()
			capacity := PageCapacity(dim, 512)
			ram := BulkLoad(dim, Config{MaxEntries: capacity}, items)
			pt, err := WritePaged(ram, sp)
			if err != nil {
				t.Fatal(err)
			}
			seen := 0
			if err := pt.VisitLeaves(func(it Item) {
				seen++
				if it.ID < 1 || it.ID > int64(len(items)) || !slices.Equal(items[it.ID-1].Point, it.Point) {
					t.Fatalf("decode corrupted item %d at %v", it.ID, it.Point)
				}
			}); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(dir + "/" + sub + "/000000.pages")
			if err != nil {
				t.Fatal(err)
			}
			return raw, seen
		}
		raw1, seen1 := encode("a")
		raw2, _ := encode("b")
		if seen1 != len(items) {
			t.Fatalf("visited %d of %d items", seen1, len(items))
		}
		if len(raw1) != len(raw2) {
			t.Fatalf("re-encode length diverged: %d vs %d", len(raw1), len(raw2))
		}
		for i := range raw1 {
			if raw1[i] != raw2[i] {
				t.Fatalf("re-encode byte %d diverged", i)
			}
		}
	})
}
