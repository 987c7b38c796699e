package euler

import (
	"bytes"
	"math/rand"
	"testing"

	"spatialhist/internal/check/gen"
	"spatialhist/internal/dataset"
	"spatialhist/internal/exact"
	"spatialhist/internal/grid"
)

// rasterObjects rasterizes polygons and returns the per-component rasters
// plus their normalized run lists (the exact-side object representation).
func rasterObjects(r *rand.Rand, g *grid.Grid, n int, o gen.PolyOpts) ([]grid.Raster, [][]grid.Span) {
	var rasters []grid.Raster
	var runs [][]grid.Span
	for len(rasters) < n {
		for _, rst := range g.Rasterize(gen.Polygon(r, g, o)) {
			rasters = append(rasters, rst)
			runs = append(runs, grid.NormalizeRuns(rst.Spans))
		}
	}
	return rasters, runs
}

func TestAddObjectMatchesAddSpan(t *testing.T) {
	r := rand.New(rand.NewSource(401))
	g := grid.NewUnit(13, 9)
	bs := NewBuilder(g)
	bo := NewBuilder(g)
	for k := 0; k < 120; k++ {
		s := randSpan(r, g)
		bs.AddSpan(s)
		bo.AddObject([]grid.Span{s}, grid.CellFull)
	}
	hs, ho := bs.Build(), bo.Build()
	assertIdentical(t, hs, ho)
	if hs.HasClassPlane() {
		t.Fatal("span-only histogram grew a class plane")
	}
	if !ho.HasClassPlane() {
		t.Fatal("object-built histogram lacks a class plane")
	}
	full := spanOf(0, 0, g.NX()-1, g.NY()-1)
	if p, ok := ho.PartialIn(full); !ok || p != 0 {
		t.Fatalf("full-class objects left partial incidences: (%d, %v)", p, ok)
	}
}

func TestAddObjectInsideSumExact(t *testing.T) {
	r := rand.New(rand.NewSource(402))
	for round := 0; round < 40; round++ {
		g := gen.Grid(r, 20, 20)
		b := NewBuilder(g)
		rasters, objs := rasterObjects(r, g, 5, gen.PolyOpts{})
		for _, rst := range rasters {
			b.AddRaster(rst)
		}
		h := b.Build()
		if h.Count() != int64(len(rasters)) {
			t.Fatalf("round %d: count %d, want %d", round, h.Count(), len(rasters))
		}
		for trial := 0; trial < 40; trial++ {
			q := randSpan(r, g)
			qr := grid.NormalizeRuns([]grid.Span{q})
			var want int64
			for _, obj := range objs {
				common := grid.IntersectRuns(obj, qr)
				if len(common) == 0 {
					continue
				}
				_, chi := grid.RunsTopology(common)
				want += int64(chi)
			}
			if got := h.InsideSum(q); got != want {
				t.Fatalf("round %d: InsideSum(%v) = %d, want Σχ = %d", round, q, got, want)
			}
		}
	}
}

func TestObjectDrainToZero(t *testing.T) {
	r := rand.New(rand.NewSource(403))
	g := grid.NewUnit(18, 14)
	b := NewBuilder(g)
	rasters, _ := rasterObjects(r, g, 12, gen.PolyOpts{Aligned: 0.3})
	for _, rst := range rasters {
		b.AddRaster(rst)
	}
	r.Shuffle(len(rasters), func(i, j int) { rasters[i], rasters[j] = rasters[j], rasters[i] })
	for _, rst := range rasters {
		if !b.RemoveRaster(rst) {
			t.Fatalf("RemoveRaster rejected a previously added raster")
		}
	}
	drained := b.Build()
	assertIdentical(t, NewBuilder(g).Build(), drained)
	full := spanOf(0, 0, g.NX()-1, g.NY()-1)
	if p, ok := drained.PartialIn(full); !ok || p != 0 {
		t.Fatalf("drained class plane = (%d, %v), want (0, true)", p, ok)
	}
	if b.RemoveRaster(rasters[0]) {
		t.Fatal("RemoveRaster succeeded on an empty builder")
	}
}

func TestAddObjectRejectsInvalid(t *testing.T) {
	g := grid.NewUnit(8, 8)
	b := NewBuilder(g)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: AddObject did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("empty", func() { b.AddObject(nil) })
	mustPanic("out of grid", func() { b.AddObject([]grid.Span{spanOf(6, 6, 9, 9)}) })
	mustPanic("disconnected", func() {
		b.AddObject([]grid.Span{spanOf(0, 0, 0, 0), spanOf(5, 5, 5, 5)})
	})
	mustPanic("holed", func() {
		b.AddObject([]grid.Span{
			spanOf(0, 0, 2, 0), spanOf(0, 1, 0, 1), spanOf(2, 1, 2, 1), spanOf(0, 2, 2, 2),
		})
	})
	mustPanic("class mismatch", func() {
		b.AddObject([]grid.Span{spanOf(0, 0, 1, 1)}, grid.CellFull, grid.CellPartial)
	})
	if b.RemoveObject([]grid.Span{spanOf(0, 0, 0, 0), spanOf(5, 5, 5, 5)}) {
		t.Error("RemoveObject accepted a disconnected object")
	}
}

// TestAddObjectDirtyUnion pins the regression the generational arena relies
// on: a multi-span AddObject must widen the builder's dirty region to the
// union of its spans, so a donor repaired over BuildStats.Dirty converges to
// the fresh build bit-identically.
func TestAddObjectDirtyUnion(t *testing.T) {
	r := rand.New(rand.NewSource(404))
	g := grid.NewUnit(16, 16)
	b := NewBuilder(g)
	seed, seedRuns := rasterObjects(r, g, 6, gen.PolyOpts{MaxCellsX: 5, MaxCellsY: 5})
	_ = seedRuns
	for _, rst := range seed {
		b.AddRaster(rst)
	}
	prev := b.Build()

	// An L-shaped object spanning two far edges: bottom row plus right
	// column. The dirty union must cover the whole lattice box of the
	// union, not just the last strip applied.
	ell := []grid.Span{spanOf(0, 0, 15, 0), spanOf(15, 0, 15, 15)}
	b.AddObject(ell, grid.CellFull, grid.CellFull)
	wantDirty := DirtyRegion{U1: 0, V1: 0, U2: 30, V2: 30}
	if b.Dirty() != wantDirty {
		t.Fatalf("dirty after L-shaped AddObject = %+v, want %+v", b.Dirty(), wantDirty)
	}
	gen1, stats1 := b.BuildFrom(prev, BuildFromOpts{})
	if stats1.Dirty != wantDirty {
		t.Fatalf("BuildStats.Dirty = %+v, want %+v", stats1.Dirty, wantDirty)
	}

	// Exercise the donor path: prev is retired and donated as scratch,
	// stale by stats1.Dirty, and repaired over the whole lattice — more than
	// the policy would ever repair. More objects land meanwhile.
	more, _ := rasterObjects(r, g, 3, gen.PolyOpts{})
	for _, rst := range more {
		b.AddRaster(rst)
	}
	gen2, _ := repairOnly.publish(b, gen1, BuildFromOpts{Scratch: prev, Stale: stats1.Dirty})
	fresh := NewBuilder(g)
	for _, rst := range seed {
		fresh.AddRaster(rst)
	}
	fresh.AddObject(ell, grid.CellFull, grid.CellFull)
	for _, rst := range more {
		fresh.AddRaster(rst)
	}
	assertIdentical(t, fresh.Build(), gen2)
	if planeAddr(gen2) != planeAddr(prev) {
		t.Fatal("the repair did not happen in the donated scratch")
	}
	// The class plane must survive the donor path too.
	full := spanOf(0, 0, 15, 15)
	wantP, _ := fresh.Build().PartialIn(full)
	if p, ok := gen2.PartialIn(full); !ok || p != wantP {
		t.Fatalf("donor-path class plane = (%d, %v), want (%d, true)", p, ok, wantP)
	}
}

func TestClassPlaneSemantics(t *testing.T) {
	g := grid.NewUnit(8, 8)
	b := NewBuilder(g)
	b.AddObject([]grid.Span{spanOf(1, 1, 2, 2)}, grid.CellFull)
	b.AddObject([]grid.Span{spanOf(4, 4, 4, 4)}) // class omitted: partial
	// A span added to a plane-carrying builder is conservatively partial
	// in every cell.
	b.AddSpan(spanOf(0, 0, 1, 1))
	h := b.Build()
	cases := []struct {
		q    grid.Span
		want int64
	}{
		{spanOf(1, 1, 2, 2), 1}, // one AddSpan cell overlaps at (1,1)
		{spanOf(4, 4, 4, 4), 1}, // the partial object
		{spanOf(0, 0, 1, 1), 4}, // all four AddSpan cells
		{spanOf(0, 0, 7, 7), 5}, // total incidences
		{spanOf(5, 5, 7, 7), 0}, // empty corner
		{spanOf(2, 2, 2, 2), 0}, // full-class object cell only
	}
	for _, c := range cases {
		if p, ok := h.PartialIn(c.q); !ok || p != c.want {
			t.Errorf("PartialIn(%v) = (%d, %v), want (%d, true)", c.q, p, ok, c.want)
		}
	}
	if !b.RemoveSpan(spanOf(0, 0, 1, 1)) {
		t.Fatal("RemoveSpan failed")
	}
	if p, _ := b.Build().PartialIn(spanOf(0, 0, 1, 1)); p != 0 {
		t.Errorf("PartialIn after span removal = %d, want 0", p)
	}

	// Mixed order: spans first means no plane, ever — retroactive
	// classification is unknowable.
	mixed := NewBuilder(g)
	mixed.AddSpan(spanOf(0, 0, 3, 3))
	mixed.AddObject([]grid.Span{spanOf(5, 5, 6, 6)}, grid.CellFull)
	if mixed.Build().HasClassPlane() {
		t.Error("mixed builder (span first) grew a class plane")
	}
	if _, ok := mixed.Build().PartialIn(spanOf(0, 0, 7, 7)); ok {
		t.Error("PartialIn reported ok without a plane")
	}
}

func TestClassPlaneBuilderRestore(t *testing.T) {
	r := rand.New(rand.NewSource(405))
	g := grid.NewUnit(15, 11)
	b := NewBuilder(g)
	rasters, _ := rasterObjects(r, g, 10, gen.PolyOpts{Aligned: 0.25})
	for _, rst := range rasters {
		b.AddRaster(rst)
	}
	h := b.Build()

	rb := BuilderFromHistogram(h)
	h2 := rb.Build()
	assertIdentical(t, h, h2)
	full := spanOf(0, 0, g.NX()-1, g.NY()-1)
	for trial := 0; trial < 60; trial++ {
		q := randSpan(r, g)
		w, wok := h.PartialIn(q)
		p, ok := h2.PartialIn(q)
		if w != p || wok != ok {
			t.Fatalf("restored plane PartialIn(%v) = (%d, %v), want (%d, %v)", q, p, ok, w, wok)
		}
	}
	// The restored builder keeps accepting objects against the same plane.
	rb.AddObject([]grid.Span{spanOf(0, 0, 0, 0)})
	w, _ := h.PartialIn(full)
	if p, ok := rb.Build().PartialIn(full); !ok || p != w+1 {
		t.Fatalf("plane after restored AddObject = (%d, %v), want (%d, true)", p, ok, w+1)
	}
}

func TestClassPlaneRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(406))
	g := grid.NewUnit(12, 10)
	b := NewBuilder(g)
	rasters, _ := rasterObjects(r, g, 8, gen.PolyOpts{Aligned: 0.25})
	for _, rst := range rasters {
		b.AddRaster(rst)
	}
	h := b.Build()

	var buf bytes.Buffer
	if err := h.Write(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("SPHEUL03")) {
		t.Fatal("class-plane histogram not written as SPHEUL03")
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	assertIdentical(t, h, got)
	if !got.HasClassPlane() {
		t.Fatal("plane lost in round trip")
	}
	for trial := 0; trial < 60; trial++ {
		q := randSpan(r, g)
		w, _ := h.PartialIn(q)
		if p, ok := got.PartialIn(q); !ok || p != w {
			t.Fatalf("PartialIn(%v) = (%d, %v), want (%d, true)", q, p, ok, w)
		}
	}

	// A plane of all-zero counts still round-trips as present: certification
	// needs to distinguish "no partials" from "no plane".
	zb := NewBuilder(g)
	zb.AddObject([]grid.Span{spanOf(2, 2, 5, 5)}, grid.CellFull)
	buf.Reset()
	if err := zb.Build().Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err = Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := got.PartialIn(spanOf(0, 0, g.NX()-1, g.NY()-1)); !ok || p != 0 {
		t.Fatalf("zero plane after round trip = (%d, %v), want (0, true)", p, ok)
	}
}

func TestClassPlaneSurvivesPack(t *testing.T) {
	r := rand.New(rand.NewSource(407))
	g := grid.NewUnit(10, 10)
	b := NewBuilder(g)
	rasters, _ := rasterObjects(r, g, 6, gen.PolyOpts{})
	for _, rst := range rasters {
		b.AddRaster(rst)
	}
	h := b.Build()
	p, ok := h.Pack()
	if !ok {
		t.Fatal("small histogram did not pack")
	}
	if !p.HasClassPlane() {
		t.Fatal("packing dropped the class plane")
	}
	if p.LatticeBytes() <= p.hc.Bytes() {
		t.Error("LatticeBytes does not account for the plane")
	}
	u := p.Unpack()
	if !u.HasClassPlane() {
		t.Fatal("unpacking dropped the class plane")
	}
	for trial := 0; trial < 40; trial++ {
		q := randSpan(r, g)
		w, _ := h.PartialIn(q)
		pp, pok := p.PartialIn(q)
		up, uok := u.PartialIn(q)
		if !pok || !uok || pp != w || up != w {
			t.Fatalf("PartialIn(%v): full %d, packed (%d,%v), unpacked (%d,%v)", q, w, pp, pok, up, uok)
		}
	}
}

// bruteJoinSpans counts span-intersecting pairs by the O(n·m) definition.
func bruteJoinSpans(as, bs []grid.Span) int64 {
	var n int64
	for _, a := range as {
		for _, b := range bs {
			if a.Intersects(b) {
				n++
			}
		}
	}
	return n
}

func TestProductSumMatchesJoinSpans(t *testing.T) {
	r := rand.New(rand.NewSource(408))
	for round := 0; round < 30; round++ {
		g := gen.Grid(r, 18, 18)
		ba, bb := NewBuilder(g), NewBuilder(g)
		var as, bs []grid.Span
		for k := 0; k < 40; k++ {
			s := randSpan(r, g)
			ba.AddSpan(s)
			as = append(as, s)
		}
		for k := 0; k < 25; k++ {
			s := randSpan(r, g)
			bb.AddSpan(s)
			bs = append(bs, s)
		}
		ha, hb := ba.Build(), bb.Build()
		got, err := ProductSum(ha, hb)
		if err != nil {
			t.Fatal(err)
		}
		brute := bruteJoinSpans(as, bs)
		if got != brute {
			t.Fatalf("round %d: ProductSum = %d, brute = %d", round, got, brute)
		}
		if oracle := exact.JoinSpans(g, as, bs); oracle != brute {
			t.Fatalf("round %d: exact.JoinSpans = %d, brute = %d", round, oracle, brute)
		}
		// Symmetry.
		if sym, _ := ProductSum(hb, ha); sym != got {
			t.Fatalf("round %d: ProductSum not symmetric: %d vs %d", round, sym, got)
		}
		// Cell-width combinations are bit-identical.
		wa, wb := ha.Unpack(), hb.Unpack()
		if ha.CellWidth() != 4 || hb.CellWidth() != 4 || wa.CellWidth() != 8 || wb.CellWidth() != 8 {
			t.Fatalf("round %d: built %d/%d-byte cells, unpacked to %d/%d", round,
				ha.CellWidth(), hb.CellWidth(), wa.CellWidth(), wb.CellWidth())
		}
		for name, pair := range map[string][2]*Histogram{
			"wide+narrow": {wa, hb},
			"narrow+wide": {ha, wb},
			"wide+wide":   {wa, wb},
		} {
			if v, err := ProductSum(pair[0], pair[1]); err != nil || v != got {
				t.Fatalf("round %d: %s ProductSum = (%d, %v), want %d", round, name, v, err, got)
			}
		}
		// The buckets are differenced inside the product loop: no staged rows.
		if allocs := testing.AllocsPerRun(5, func() { _, _ = ProductSum(ha, wb) }); allocs != 0 {
			t.Fatalf("round %d: ProductSum allocates %v times per call, want 0", round, allocs)
		}
	}
}

// TestRasterIngestAllocs bounds the beyond-MBR ingest path over the
// fixtures of the root BenchmarkRasterIngest: Rasterize, AddRaster per
// component and one Build over 2,000 polygonized sz_skew objects on a
// 180×90 grid. Measured: 56,964 allocations (5.78 MB) per ingest, 28.5 per
// polygon: about half in the rasterizer's cell states, flood fill and
// component runs, half in AddObject's run normalization and topology check.
// The bound is 1.5× that, per polygon.
func TestRasterIngestAllocs(t *testing.T) {
	d := dataset.SzSkew(2_000, 3)
	pd := dataset.Polygonize(d, 11, 0.25, 0.2)
	g := grid.New(d.Extent, 180, 90)
	allocs := testing.AllocsPerRun(3, func() {
		b := NewBuilder(g)
		for _, p := range pd.Polys {
			for _, rst := range g.Rasterize(p) {
				b.AddRaster(rst)
			}
		}
		if b.Build().Count() == 0 {
			t.Fatal("empty raster ingest")
		}
	})
	const measured = 28.5
	if perPoly := allocs / float64(len(pd.Polys)); perPoly > 1.5*measured {
		t.Errorf("raster ingest made %.1f allocations per polygon (%.0f for %d), want ≤ %.1f",
			perPoly, allocs, len(pd.Polys), 1.5*measured)
	}
}

func TestProductSumRasterChiSum(t *testing.T) {
	r := rand.New(rand.NewSource(409))
	for round := 0; round < 25; round++ {
		g := gen.Grid(r, 16, 16)
		ba, bb := NewBuilder(g), NewBuilder(g)
		rsa, objsA := rasterObjects(r, g, 5, gen.PolyOpts{Aligned: 0.2})
		rsb, objsB := rasterObjects(r, g, 4, gen.PolyOpts{})
		for _, rst := range rsa {
			ba.AddRaster(rst)
		}
		for _, rst := range rsb {
			bb.AddRaster(rst)
		}
		got, err := ProductSum(ba.Build(), bb.Build())
		if err != nil {
			t.Fatal(err)
		}
		truth := exact.JoinRasters(g, objsA, objsB)
		if got != truth.ChiSum {
			t.Fatalf("round %d: ProductSum = %d, exact Σχ = %d (pairs %d)", round, got, truth.ChiSum, truth.Pairs)
		}
		if truth.AllUnit && got != truth.Pairs {
			t.Fatalf("round %d: all-unit truth but ProductSum %d != pairs %d", round, got, truth.Pairs)
		}
	}
}

func TestProductSumGridMismatch(t *testing.T) {
	ha := NewBuilder(grid.NewUnit(8, 8)).Build()
	hb := NewBuilder(grid.NewUnit(8, 4)).Build()
	if _, err := ProductSum(ha, hb); err == nil {
		t.Fatal("ProductSum accepted mismatched grids")
	}
}

func TestCoarsenTo(t *testing.T) {
	r := rand.New(rand.NewSource(410))
	g := grid.NewUnit(32, 16)
	b := NewBuilder(g)
	var spans []grid.Span
	for k := 0; k < 80; k++ {
		s := randSpan(r, g)
		b.AddSpan(s)
		spans = append(spans, s)
	}
	h := b.Build()

	c, err := CoarsenTo(h, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewBuilder(grid.New(g.Extent(), 8, 4))
	for _, s := range spans {
		fresh.AddSpan(CoarseSpan(s, 2))
	}
	assertIdentical(t, fresh.Build(), c)

	if same, err := CoarsenTo(h, 32, 16); err != nil || same != h {
		t.Errorf("CoarsenTo to own size = (%p, %v), want identity", same, err)
	}
	if _, err := CoarsenTo(h, 5, 4); err == nil {
		t.Error("CoarsenTo accepted a non-power-of-two target")
	}
	if _, err := CoarsenTo(h, 8, 16); err == nil {
		t.Error("CoarsenTo accepted mismatched per-axis ratios")
	}

	rb := NewBuilder(g)
	rb.AddObject([]grid.Span{spanOf(0, 0, 1, 0)})
	if _, err := CoarsenTo(rb.Build(), 8, 4); err == nil {
		t.Error("CoarsenTo accepted a rasterized-object histogram")
	}
}

func TestCommonGrid(t *testing.T) {
	mk := func(nx, ny int) *Histogram {
		return NewBuilder(grid.New(grid.NewUnit(1, 1).Extent(), nx, ny)).Build()
	}
	cases := []struct {
		a, b         *Histogram
		nx, ny       int
		resample, ok bool
	}{
		{mk(16, 8), mk(16, 8), 16, 8, false, true},
		{mk(16, 8), mk(4, 2), 4, 2, true, true},
		{mk(4, 2), mk(16, 8), 4, 2, true, true},
		{mk(16, 8), mk(4, 4), 0, 0, false, false}, // ratios differ per axis
		{mk(12, 8), mk(4, 2), 0, 0, false, false}, // 3x not a power of two
	}
	for i, c := range cases {
		nx, ny, resample, ok := CommonGrid(c.a, c.b)
		if nx != c.nx || ny != c.ny || resample != c.resample || ok != c.ok {
			t.Errorf("case %d: CommonGrid = (%d, %d, %v, %v), want (%d, %d, %v, %v)",
				i, nx, ny, resample, ok, c.nx, c.ny, c.resample, c.ok)
		}
	}
	// Different extents never share a grid.
	other := NewBuilder(grid.New(grid.NewUnit(2, 2).Extent(), 16, 8)).Build()
	if _, _, _, ok := CommonGrid(mk(16, 8), other); ok {
		t.Error("CommonGrid accepted mismatched extents")
	}
}
