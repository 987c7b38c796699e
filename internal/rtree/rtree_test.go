package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"spatialhist/internal/dataset"
	"spatialhist/internal/geom"
)

func randRect(r *rand.Rand, world float64) geom.Rect {
	x := r.Float64() * world
	y := r.Float64() * world
	return geom.NewRect(x, y, x+r.Float64()*world/8, y+r.Float64()*world/8)
}

func TestNewValidation(t *testing.T) {
	cases := []struct{ minE, maxE int }{
		{2, 3}, // max too small
		{1, 8}, // min too small
		{5, 8}, // min > max/2
	}
	for _, c := range cases {
		if _, err := New(c.minE, c.maxE); err == nil {
			t.Errorf("New(%d,%d) must error", c.minE, c.maxE)
		}
	}
	if _, err := New(2, 4); err != nil {
		t.Errorf("New(2,4): %v", err)
	}
}

func TestEmptyTree(t *testing.T) {
	tr := NewDefault()
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("empty tree Len/Height = %d/%d", tr.Len(), tr.Height())
	}
	if ids := tr.Search(geom.NewRect(0, 0, 1, 1), nil); len(ids) != 0 {
		t.Fatal("empty tree search must be empty")
	}
	if c := tr.CountRel2(geom.NewRect(0, 0, 1, 1)); c.Total() != 0 {
		t.Fatal("empty tree count must be zero")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertSearchMatchesBrute(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	tr := NewDefault()
	var rects []geom.Rect
	for i := 0; i < 800; i++ {
		rc := randRect(r, 100)
		tr.Insert(rc, int64(i))
		rects = append(rects, rc)
	}
	if tr.Len() != 800 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Height() < 2 {
		t.Fatalf("800 objects must split past one leaf (height %d)", tr.Height())
	}
	for trial := 0; trial < 100; trial++ {
		q := randRect(r, 100)
		got := tr.Search(q, nil)
		sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
		var want []int64
		for i, rc := range rects {
			if rc.Intersects(q) {
				want = append(want, int64(i))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("Search(%v): %d ids, want %d", q, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Search(%v): id mismatch at %d", q, i)
			}
		}
	}
}

func TestBulkMatchesBrute(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	var rects []geom.Rect
	for i := 0; i < 3000; i++ {
		rects = append(rects, randRect(r, 100))
	}
	tr := BulkDefault(rects)
	if tr.Len() != 3000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		q := randRect(r, 100)
		got := tr.Search(q, nil)
		want := 0
		for _, rc := range rects {
			if rc.Intersects(q) {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("Bulk Search: %d, want %d", len(got), want)
		}
	}
}

func TestBulkSmall(t *testing.T) {
	// One object and exactly-one-leaf cases.
	one := BulkDefault([]geom.Rect{geom.NewRect(1, 1, 2, 2)})
	if one.Len() != 1 || one.Height() != 1 {
		t.Fatalf("one-object tree: len=%d h=%d", one.Len(), one.Height())
	}
	empty := BulkDefault(nil)
	if empty.Len() != 0 {
		t.Fatal("empty bulk broken")
	}
}

func TestCountRel2MatchesBrute(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	var rects []geom.Rect
	for i := 0; i < 1500; i++ {
		switch r.Intn(3) {
		case 0: // points
			x, y := r.Float64()*100, r.Float64()*100
			rects = append(rects, geom.NewRect(x, y, x, y))
		case 1: // small rects
			rects = append(rects, randRect(r, 100))
		default: // big rects
			x, y := r.Float64()*60, r.Float64()*60
			rects = append(rects, geom.NewRect(x, y, x+10+r.Float64()*40, y+10+r.Float64()*40))
		}
	}
	for _, tr := range []*Tree{BulkDefault(rects), insertAll(rects)} {
		for trial := 0; trial < 60; trial++ {
			q := geom.NewRect(10+r.Float64()*40, 10+r.Float64()*40, 50+r.Float64()*40, 50+r.Float64()*40)
			var want geom.Rel2Counts
			for _, rc := range rects {
				want.Add(geom.Level2Browse(q, rc))
			}
			if got := tr.CountRel2(q); got != want {
				t.Fatalf("CountRel2(%v) = %+v, want %+v", q, got, want)
			}
		}
	}
}

func insertAll(rects []geom.Rect) *Tree {
	tr := NewDefault()
	for i, rc := range rects {
		tr.Insert(rc, int64(i))
	}
	return tr
}

func TestInsertDuplicatesAndDegenerate(t *testing.T) {
	tr := NewDefault()
	pt := geom.NewRect(5, 5, 5, 5)
	for i := 0; i < 100; i++ {
		tr.Insert(pt, int64(i)) // 100 identical points force splits
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Search(geom.NewRect(4, 4, 6, 6), nil)); got != 100 {
		t.Fatalf("found %d duplicates, want 100", got)
	}
	c := tr.CountRel2(geom.NewRect(0, 0, 10, 10))
	if c.Contains != 100 {
		t.Fatalf("points strictly inside must count as contains: %+v", c)
	}
}

func TestInsertInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Insert of invalid rect must panic")
		}
	}()
	NewDefault().Insert(geom.Rect{XMin: 2, XMax: 1, YMax: 3}, 0)
}

func TestLargeDatasetInvariants(t *testing.T) {
	d := dataset.ADLLike(20000, 14)
	tr := BulkDefault(d.Rects)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Height() < 3 {
		t.Fatalf("20k objects should give height >= 3, got %d", tr.Height())
	}
	// Whole-space query sees everything; contains + overlap == all.
	c := tr.CountRel2(d.Extent.Expand(1))
	if c.Total() != 20000 || c.Disjoint != 0 || c.Contained != 0 {
		t.Fatalf("whole-space count = %+v", c)
	}
}
