package archive

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"spatialhist/internal/check/gen"
	"spatialhist/internal/core"
	"spatialhist/internal/exact"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
)

func testSchema() Schema {
	return Schema{
		Grid:      grid.NewUnit(40, 20),
		Subjects:  []string{"map", "photo", "gazetteer"},
		DateLo:    1900,
		DateHi:    2000,
		DateBands: 10,
	}
}

func TestSchemaValidate(t *testing.T) {
	ok := testSchema()
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Schema{
		{Subjects: []string{"x"}, DateLo: 0, DateHi: 1, DateBands: 1},                // no grid
		{Grid: ok.Grid, DateLo: 0, DateHi: 1, DateBands: 1},                          // no subjects
		{Grid: ok.Grid, Subjects: []string{"x"}, DateLo: 0, DateHi: 1, DateBands: 0}, // no bands
		{Grid: ok.Grid, Subjects: []string{"x"}, DateLo: 5, DateHi: 5, DateBands: 2}, // empty range
	}
	for i, s := range bad {
		if _, err := NewBuilder(s); err == nil {
			t.Errorf("schema %d: must error", i)
		}
	}
}

func TestBandOf(t *testing.T) {
	s := testSchema()
	cases := []struct {
		date float64
		want int
	}{
		{1900, 0}, {1909.99, 0}, {1910, 1}, {1955, 5}, {1999.9, 9},
		{2000, 9}, // inclusive upper bound joins the last band
		{1899.9, -1}, {2000.1, -1},
	}
	for _, c := range cases {
		if got := s.bandOf(c.date); got != c.want {
			t.Errorf("bandOf(%g) = %d, want %d", c.date, got, c.want)
		}
	}
}

// genRecords produces a deterministic mixed archive.
func genRecords(r *rand.Rand, n int) []Record {
	out := make([]Record, 0, n)
	for len(out) < n {
		x, y := r.Float64()*38, r.Float64()*18
		var w, h float64
		if r.Intn(10) == 0 {
			w, h = 3+r.Float64()*12, 2+r.Float64()*8 // occasional big map
		} else {
			w, h = r.Float64(), r.Float64()
		}
		out = append(out, Record{
			MBR:     geom.NewRect(x, y, x+w, y+h),
			Date:    1900 + r.Float64()*100,
			Subject: r.Intn(3),
		})
	}
	return out
}

func buildArchive(t *testing.T, recs []Record) *Archive {
	t.Helper()
	b, err := NewBuilder(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		b.Add(rec)
	}
	return b.Build()
}

func TestAddSkipsBadRecords(t *testing.T) {
	b, err := NewBuilder(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	good := Record{MBR: geom.NewRect(1, 1, 2, 2), Date: 1950, Subject: 0}
	if !b.Add(good) {
		t.Fatal("good record rejected")
	}
	bad := []Record{
		{MBR: geom.NewRect(1, 1, 2, 2), Date: 1850, Subject: 0},         // date out of range
		{MBR: geom.NewRect(1, 1, 2, 2), Date: 1950, Subject: 9},         // unknown subject
		{MBR: geom.NewRect(1, 1, 2, 2), Date: 1950, Subject: -1},        // negative subject
		{MBR: geom.NewRect(100, 100, 110, 110), Date: 1950, Subject: 0}, // outside space
	}
	for i, rec := range bad {
		if b.Add(rec) {
			t.Errorf("bad record %d accepted", i)
		}
	}
	a := b.Build()
	if a.Count() != 1 || a.Skipped() != int64(len(bad)) {
		t.Fatalf("Count/Skipped = %d/%d", a.Count(), a.Skipped())
	}
}

func TestFilteredBrowseMatchesBrute(t *testing.T) {
	r := rand.New(rand.NewSource(111))
	recs := genRecords(r, 5000)
	a := buildArchive(t, recs)
	if a.Count() != 5000 {
		t.Fatalf("Count = %d (skipped %d)", a.Count(), a.Skipped())
	}
	g := a.Schema().Grid

	filters := []Filter{
		{},                             // everything
		{Subjects: []int{1}},           // photos only
		{DateFrom: 1950, DateTo: 1980}, // three bands
		{Subjects: []int{0, 2}, DateFrom: 1900, DateTo: 1910},
	}
	region := grid.Span{I1: 0, J1: 0, I2: 39, J2: 19}
	for fi, f := range filters {
		got, err := a.Browse(f, region, 8, 4)
		if err != nil {
			t.Fatalf("filter %d: %v", fi, err)
		}
		// Brute force: snap the matching records, classify per tile.
		matching := make([]grid.Span, 0)
		for _, rec := range recs {
			if !matchBrute(a.Schema(), f, rec) {
				continue
			}
			if s, ok := g.Snap(rec.MBR); ok {
				matching = append(matching, s)
			}
		}
		n, err := a.MatchCount(f)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(len(matching)) {
			t.Fatalf("filter %d: MatchCount = %d, want %d", fi, n, len(matching))
		}
		tiles := gen.Tiles(region, 8, 4)
		for k, tile := range tiles {
			want := exact.EvaluateQuery(matching, tile)
			e := got[k]
			// EulerApprox per partition: disjoint exact, totals exact, the
			// split approximate. The mostly-small records keep it tight;
			// assert exactness of the invariant parts and closeness of the
			// rest.
			if e.Disjoint != want.Disjoint {
				t.Fatalf("filter %d tile %d: N_d = %d, want %d", fi, k, e.Disjoint, want.Disjoint)
			}
			if e.Total() != want.Total() {
				t.Fatalf("filter %d tile %d: total %d, want %d", fi, k, e.Total(), want.Total())
			}
			if d := e.Contains - want.Contains; d < -40 || d > 40 {
				t.Fatalf("filter %d tile %d: N_cs %d vs exact %d", fi, k, e.Contains, want.Contains)
			}
		}
	}
}

// TestBrowseMatchesPerTileEstimate: summing the selected partitions' sweeps
// into one plane is the per-tile Estimate loop, bit for bit, across
// filters and tilings — the region's edges, its interior, one row.
func TestBrowseMatchesPerTileEstimate(t *testing.T) {
	a := buildArchive(t, genRecords(rand.New(rand.NewSource(112)), 3000))
	filters := []Filter{
		{},
		{Subjects: []int{1}},
		{DateFrom: 1950, DateTo: 1980},
		{Subjects: []int{0, 2}, DateFrom: 1900, DateTo: 1910},
		{Subjects: []int{2, 0, 2}, DateFrom: 1990, DateTo: 2000},
	}
	tilings := []struct {
		region     grid.Span
		cols, rows int
	}{
		{grid.Span{I2: 39, J2: 19}, 8, 4},
		{grid.Span{I2: 39, J2: 19}, 40, 20},
		{grid.Span{I2: 39, J2: 19}, 5, 1},
		{grid.Span{I1: 4, J1: 2, I2: 35, J2: 17}, 4, 8},
	}
	for fi, f := range filters {
		for _, tl := range tilings {
			got, err := a.Browse(f, tl.region, tl.cols, tl.rows)
			if err != nil {
				t.Fatal(err)
			}
			for k, tile := range gen.Tiles(tl.region, tl.cols, tl.rows) {
				want, err := a.Estimate(f, tile)
				if err != nil {
					t.Fatal(err)
				}
				if got[k] != want {
					t.Fatalf("filter %d %v %dx%d tile %d: Browse %v, Estimate %v", fi, tl.region, tl.cols, tl.rows, k, got[k], want)
				}
			}
		}
	}
}

// TestBrowseEmptySelection: a filter that selects no populated partition
// plans nothing, so the tiling is checked before the partition loop — an
// all-zero map for a valid one, an error for one that does not divide.
func TestBrowseEmptySelection(t *testing.T) {
	a := buildArchive(t, []Record{{MBR: geom.NewRect(1, 1, 2, 2), Date: 1905, Subject: 0}})
	f := Filter{Subjects: []int{1}}
	region := grid.Span{I2: 39, J2: 19}
	got, err := a.Browse(f, region, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 32 {
		t.Fatalf("%d tiles, want 32", len(got))
	}
	for k, e := range got {
		if e != (core.Estimate{}) {
			t.Fatalf("tile %d of an empty selection = %v", k, e)
		}
	}
	if _, err := a.Browse(f, region, 7, 4); err == nil {
		t.Fatal("non-dividing tiling over an empty selection must error")
	}
}

// TestBrowseAllocatesOnePlane: a map over many partitions costs the one
// result plane plus per-sweep bookkeeping of O(rows), not a plane per
// partition. Before every partition swept into the shared plane, this
// 6-partition, 256×128-tile map allocated 7,359,971 bytes: seven 1 MiB
// planes, one per partition and the sum.
func TestBrowseAllocatesOnePlane(t *testing.T) {
	b, err := NewBuilder(Schema{Grid: grid.NewUnit(256, 128), Subjects: []string{"map", "photo"}, DateLo: 1900, DateHi: 2000, DateBands: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range genRecords(rand.New(rand.NewSource(113)), 600) {
		rec.Subject %= 2
		b.Add(rec)
	}
	a := b.Build()
	parts := 0
	for sub := range a.Schema().Subjects {
		for band := 0; band < a.Schema().DateBands; band++ {
			if a.PartitionCount(sub, band) > 0 {
				parts++
			}
		}
	}
	if parts < 4 {
		t.Fatalf("%d partitions: the test exercises nothing", parts)
	}
	region := grid.Span{I2: 255, J2: 127}
	const cols, rows, runs = 256, 128, 10
	if _, err := a.Browse(Filter{}, region, cols, rows); err != nil { // warm the metric registry
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := a.Browse(Filter{}, region, cols, rows); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perMap := int((after.TotalAlloc - before.TotalAlloc) / runs)
	plane := int(unsafe.Sizeof(core.Estimate{})) * cols * rows
	t.Logf("%d bytes per %d-partition map; one plane is %d", perMap, parts, plane)
	if budget := plane*5/4 + parts*64*rows; perMap > budget {
		t.Errorf("%d bytes per %d-partition map, budget %d (1.25 x one %d-byte plane + O(rows) per partition)", perMap, parts, budget, plane)
	}
}

func matchBrute(s Schema, f Filter, rec Record) bool {
	if len(f.Subjects) > 0 {
		found := false
		for _, sub := range f.Subjects {
			if rec.Subject == sub {
				found = true
			}
		}
		if !found {
			return false
		}
	}
	if f.DateFrom == 0 && f.DateTo == 0 {
		return true
	}
	band := s.bandOf(rec.Date)
	w := (s.DateHi - s.DateLo) / float64(s.DateBands)
	lo := int((f.DateFrom - s.DateLo) / w)
	hi := int((f.DateTo-s.DateLo)/w) - 1
	return band >= lo && band <= hi
}

func TestFilterValidation(t *testing.T) {
	a := buildArchive(t, genRecords(rand.New(rand.NewSource(3)), 100))
	region := grid.Span{I1: 0, J1: 0, I2: 39, J2: 19}
	bad := []Filter{
		{Subjects: []int{7}},           // unknown subject
		{DateFrom: 1955, DateTo: 1965}, // misaligned bands
		{DateFrom: 1960, DateTo: 1950}, // inverted
		{DateFrom: 1850, DateTo: 1900}, // outside range
	}
	for i, f := range bad {
		if _, err := a.Browse(f, region, 4, 2); err == nil {
			t.Errorf("filter %d must error", i)
		}
		if _, err := a.MatchCount(f); err == nil {
			t.Errorf("filter %d MatchCount must error", i)
		}
		if _, err := a.Estimate(f, region); err == nil {
			t.Errorf("filter %d Estimate must error", i)
		}
	}
	if _, err := a.Browse(Filter{}, region, 7, 2); err == nil {
		t.Error("non-dividing tiling must error")
	}
}

func TestPartitionCount(t *testing.T) {
	recs := []Record{
		{MBR: geom.NewRect(1, 1, 2, 2), Date: 1905, Subject: 0},
		{MBR: geom.NewRect(1, 1, 2, 2), Date: 1906, Subject: 0},
		{MBR: geom.NewRect(1, 1, 2, 2), Date: 1995, Subject: 2},
	}
	a := buildArchive(t, recs)
	if a.PartitionCount(0, 0) != 2 || a.PartitionCount(2, 9) != 1 || a.PartitionCount(1, 5) != 0 {
		t.Fatalf("partition counts wrong")
	}
	if a.StorageBuckets() == 0 {
		t.Fatal("storage accounting missing")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range partition must panic")
		}
	}()
	a.PartitionCount(5, 0)
}
