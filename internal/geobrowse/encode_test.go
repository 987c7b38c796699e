package geobrowse

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"spatialhist/internal/core"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/telemetry"
)

// oracleBrowse is the reflection path the append encoder replaced, kept as
// its reference: the bytes and the error AppendBrowseResponse must produce.
func oracleBrowse(g *grid.Grid, region grid.Span, cols, rows int, ests []core.Estimate, bound *float64) ([]byte, error) {
	return json.Marshal(BrowseResponse{Cols: cols, Rows: rows,
		Tiles: TileEstimates(g, region, cols, rows, ests), ApproxErrorBound: bound})
}

// wireEstimates draws raw estimates that exercise the count rules: small
// and large values, negatives (clamped to 0) and the int64 extremes.
func wireEstimates(r *rand.Rand, n int) []core.Estimate {
	pick := func() int64 {
		switch r.Intn(8) {
		case 0:
			return -r.Int63n(1000) - 1
		case 1:
			return 0
		case 2:
			return r.Int63()
		case 3:
			return []int64{math.MaxInt64, math.MinInt64, 9, 10, 99, 100, 999_999, 1_000_000}[r.Intn(8)]
		default:
			return r.Int63n(200_000)
		}
	}
	ests := make([]core.Estimate, n)
	for k := range ests {
		ests[k] = core.Estimate{Disjoint: pick(), Contains: pick(), Contained: pick(), Overlap: pick()}
	}
	return ests
}

func checkBrowseWire(t *testing.T, g *grid.Grid, region grid.Span, cols, rows int, ests []core.Estimate, bound *float64) {
	t.Helper()
	want, wantErr := oracleBrowse(g, region, cols, rows, ests, bound)
	got, err := AppendBrowseResponse(nil, g, region, cols, rows, ests, bound)
	if wantErr != nil {
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("error = %v, want json.Marshal's %v", err, wantErr)
		}
		return
	}
	if err != nil {
		t.Fatalf("AppendBrowseResponse: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("wire bytes differ from json.Marshal\n got: %.300s\nwant: %.300s", got, want)
	}
	if cap(got) != len(got) {
		t.Fatalf("body of %d bytes retains capacity %d", len(got), cap(got))
	}
	// Appending after existing content must leave it alone.
	pre := []byte("prefix")
	if got, err = AppendBrowseResponse(pre, g, region, cols, rows, ests, bound); err != nil ||
		!bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("append onto a non-empty buffer diverges (err %v)", err)
	}
	// A recycled buffer with room is written in place over its stale bytes.
	stale := bytes.Repeat([]byte{'x'}, len(want)+16)
	if got, err = AppendBrowseResponse(stale[:0], g, region, cols, rows, ests, bound); err != nil ||
		!bytes.Equal(got, want) || &got[0] != &stale[0] {
		t.Fatalf("encode into a recycled buffer diverges or reallocates (err %v)", err)
	}
}

// TestBrowseEncodeMatchesJSON pins the append encoder to encoding/json
// byte for byte across the number-formatting contract: coordinates in 'f'
// and 'e' notation (below 1e-6, at or above 1e21, one- and two-digit
// exponents), negative coordinates, clamped counts, the optional bound.
func TestBrowseEncodeMatchesJSON(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	extents := []struct {
		name   string
		extent geom.Rect
		nx, ny int
	}{
		{"unit degrees", geom.NewRect(0, 0, 360, 180), 360, 180},
		{"negative", geom.NewRect(-180, -90, 180, 90), 1440, 720},
		{"fractional cells", geom.NewRect(-1, -1, 1, 1), 30, 70},
		{"micro: edges cross 1e-6", geom.NewRect(0, -3e-6, 1e-5, 3e-6), 40, 24},
		{"nano: e-9 exponents", geom.NewRect(1e-9, -1e-8, 1e-8, 1e-8), 9, 20},
		{"pico: e-12 exponents", geom.NewRect(-1e-12, 0, 1e-12, 3e-11), 8, 6},
		{"denormal", geom.NewRect(0, 0, 4e-323, 8e-323), 8, 4},
		{"huge: edges cross 1e21", geom.NewRect(5e20, -2e21, 2e21, 2e21), 6, 8},
		{"astronomic: e+300", geom.NewRect(-1e300, 1e299, 1e300, 1e300), 4, 9},
		{"offset far from cell size", geom.NewRect(1e15, 1e15, 1e15+360, 1e15+180), 36, 18},
	}
	bounds := []struct {
		name string
		b    *float64
	}{
		{"exact", nil}, {"bound", f(12.5)}, {"zero", f(0)}, {"minus zero", f(math.Copysign(0, -1))},
		{"tiny", f(2.5e-7)}, {"e-9", f(1e-9)}, {"1e21", f(1e21)}, {"negative", f(-3)},
		{"NaN", f(math.NaN())}, {"+Inf", f(math.Inf(1))}, {"-Inf", f(math.Inf(-1))},
	}
	r := rand.New(rand.NewSource(14))
	for _, ext := range extents {
		g := grid.New(ext.extent, ext.nx, ext.ny)
		full := grid.Span{I2: ext.nx - 1, J2: ext.ny - 1}
		// A window of at most 48×48 cells around the middle of the grid
		// (where the "negative" extent changes sign), one cell per tile,
		// so every edge text in it is distinct.
		w, h := min(ext.nx, 48), min(ext.ny, 48)
		mid := grid.Span{I1: (ext.nx - w) / 2, J1: (ext.ny - h) / 2}
		mid.I2, mid.J2 = mid.I1+w-1, mid.J1+h-1
		tilings := []struct {
			region     grid.Span
			cols, rows int
		}{
			{mid, w, h},
			{mid, 1, h},
			{mid, w, 1},
			{full, 1, 1},
			{grid.Span{I1: ext.nx - 1, J1: ext.ny - 1, I2: ext.nx - 1, J2: ext.ny - 1}, 1, 1},
		}
		for _, tl := range tilings {
			for _, b := range bounds {
				t.Run(fmt.Sprintf("%s/%v/%dx%d/%s", ext.name, tl.region, tl.cols, tl.rows, b.name), func(t *testing.T) {
					checkBrowseWire(t, g, tl.region, tl.cols, tl.rows, wireEstimates(r, tl.cols*tl.rows), b.b)
				})
			}
		}
	}
}

// TestBrowseEncodeTileLimit encodes the largest map a request may ask for.
func TestBrowseEncodeTileLimit(t *testing.T) {
	g := grid.New(geom.NewRect(-180, -90, 180, 90), 800, 500)
	region := grid.Span{I2: 799, J2: 499}
	r := rand.New(rand.NewSource(15))
	checkBrowseWire(t, g, region, 400, 250, wireEstimates(r, maxTiles), nil)
}

// TestBrowseEncodeNonFiniteCoordinate covers a grid whose cell size
// overflowed: json.Marshal fails on the first coordinate, and so must the
// encoder, with the same error.
func TestBrowseEncodeNonFiniteCoordinate(t *testing.T) {
	g := grid.New(geom.NewRect(-1.7e308, 0, 1.7e308, 1), 4, 4)
	region := grid.Span{I2: 3, J2: 3}
	checkBrowseWire(t, g, region, 2, 2, make([]core.Estimate, 4), nil)
	_, wantErr := json.Marshal(NewTileEstimate(g, region, core.Estimate{}))
	if _, err := AppendTile(nil, g, region, core.Estimate{}); wantErr == nil || err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("AppendTile error = %v, want json.Marshal's %v", err, wantErr)
	}
}

// TestBrowseEncodeRejectsMismatch: inputs only a server bug could produce
// are errors, not panics or wrong bytes.
func TestBrowseEncodeRejectsMismatch(t *testing.T) {
	g := grid.NewUnit(8, 8)
	full := grid.Span{I2: 7, J2: 7}
	for name, call := range map[string]func() ([]byte, error){
		"too few estimates": func() ([]byte, error) {
			return AppendBrowseResponse(nil, g, full, 2, 2, make([]core.Estimate, 3), nil)
		},
		"non-dividing": func() ([]byte, error) {
			return AppendBrowseResponse(nil, g, full, 3, 2, make([]core.Estimate, 6), nil)
		},
		"outside the grid": func() ([]byte, error) {
			return AppendBrowseResponse(nil, g, grid.Span{I1: 4, I2: 11, J2: 7}, 2, 2, make([]core.Estimate, 4), nil)
		},
	} {
		if _, err := call(); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// TestTileAndDrillEncodeMatchJSON is the drill/query equivalent: AppendTile
// against json.Marshal(NewTileEstimate) and AppendDrillResponse against
// json.Marshal(DrillResponse), over the same coordinate ranges.
func TestTileAndDrillEncodeMatchJSON(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for _, g := range []*grid.Grid{
		grid.NewUnit(36, 18),
		grid.New(geom.NewRect(-180, -90, 180, 90), 1440, 720),
		grid.New(geom.NewRect(1e-9, -1e-8, 1e-8, 1e-8), 9, 20),
		grid.New(geom.NewRect(5e20, -2e21, 2e21, 2e21), 6, 8),
	} {
		var leaves []core.DrillTile
		for k := 0; k < 40; k++ {
			i1, j1 := r.Intn(g.NX()), r.Intn(g.NY())
			span := grid.Span{I1: i1, J1: j1, I2: i1 + r.Intn(g.NX()-i1), J2: j1 + r.Intn(g.NY()-j1)}
			e := wireEstimates(r, 1)[0]
			leaves = append(leaves, core.DrillTile{Span: span, Depth: r.Intn(17), Estimate: e})

			want, err := json.Marshal(NewTileEstimate(g, span, e))
			if err != nil {
				t.Fatal(err)
			}
			got, err := AppendTile(nil, g, span, e)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%v %v: AppendTile = %s (err %v)\nwant %s", g, span, got, err, want)
			}
		}
		for _, rel := range []geom.Rel2{geom.Rel2Disjoint, geom.Rel2Contains, geom.Rel2Contained, geom.Rel2Overlap} {
			for _, n := range []int{0, 1, len(leaves)} {
				resp := DrillResponse{Relation: rel.String(), Tiles: make([]DrillTile, 0, n)}
				for _, l := range leaves[:n] {
					resp.Tiles = append(resp.Tiles, DrillTile{TileEstimate: NewTileEstimate(g, l.Span, l.Estimate), Depth: l.Depth})
				}
				want, err := json.Marshal(resp)
				if err != nil {
					t.Fatal(err)
				}
				got, err := AppendDrillResponse(nil, g, rel, leaves[:n])
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%v %s %d leaves: AppendDrillResponse = %.200s (err %v)\nwant %.200s", g, rel, n, got, err, want)
				}
			}
		}
	}
}

func TestDecimalLen(t *testing.T) {
	vals := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64}
	for p := int64(1); p > 0 && p <= math.MaxInt64/10; p *= 10 {
		vals = append(vals, p-1, p, p+1, 10*p-1)
	}
	for _, v := range vals {
		if got, want := decimalLen(v), len(strconv.AppendInt(nil, max(v, 0), 10)); got != want {
			t.Errorf("decimalLen(%d) = %d, want %d", v, got, want)
		}
	}
}

// discardWriter is a ResponseWriter that keeps nothing of the body, so a
// request's allocations are the handler's own.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// TestBrowseMissBudget bounds what one cache miss allocates once warm,
// request to body, by the budget TestCoordinatorBrowseBudget holds the
// coordinator's maps to: a miss sweeps into the server's recycled plane,
// so it may take the body — fresh, since the cache or the waiters of the
// single-flight keep it — and O(cols+rows) of edge tables plus a
// constant, but no plane. A 90×90 M-EulerApprox map, through a server
// that stores nothing.
func TestBrowseMissBudget(t *testing.T) {
	g := grid.NewUnit(184, 92)
	r := rand.New(rand.NewSource(17))
	rects := make([]geom.Rect, 3000)
	for k := range rects {
		x, y := r.Float64()*174, r.Float64()*82
		rects[k] = geom.NewRect(x, y, x+r.Float64()*r.Float64()*10, y+r.Float64()*r.Float64()*10)
	}
	est, err := core.NewMEuler(g, []float64{1, 9, 100}, rects)
	if err != nil {
		t.Fatal(err)
	}
	s := New("budget", StaticSource(est), Options{CacheSize: -1, Telemetry: telemetry.NewRegistry()})
	// Off the west edge, so no lattice-height row of zeros is made up.
	span := grid.Span{I1: 2, J1: 1, I2: 2 + 180 - 1, J2: 1 + 90 - 1}
	const cols, rows = 90, 90
	req := httptest.NewRequest("GET", fmt.Sprintf("/api/browse?x1=2&y1=1&x2=182&y2=91&cols=%d&rows=%d", cols, rows), nil)
	serve := func() {
		w := &discardWriter{h: http.Header{}}
		s.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
	}
	serve() // warm: the recycled plane reaches this map's size
	// The median request: a sync.Pool may drop what it holds (at a GC, and
	// at random under the race detector), and a request that finds it empty
	// allocates afresh — rarely, and it must not be the norm.
	allocs := make([]uint64, 21)
	var before, after runtime.MemStats
	for i := range allocs {
		runtime.ReadMemStats(&before)
		serve()
		runtime.ReadMemStats(&after)
		allocs[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(allocs)
	perMap := int(allocs[len(allocs)/2])

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	body := rec.Body.Bytes()
	t.Logf("%dx%d miss: %d bytes allocated per request (plane %d, body %d)", cols, rows, perMap, 32*cols*rows, len(body))
	if budget := len(body) + 64*(cols+rows) + 16<<10; perMap > budget {
		t.Errorf("%d bytes allocated per %dx%d miss, budget %d: a plane is %d and the body %d",
			perMap, cols, rows, budget, 32*cols*rows, len(body))
	}
	want, err := core.EstimateGrid(est, span, cols, rows)
	if err != nil {
		t.Fatal(err)
	}
	if serial, err := AppendBrowseResponse(nil, g, span, cols, rows, want, nil); err != nil || !bytes.Equal(body, serial) {
		t.Fatalf("miss body differs from the encoding of EstimateGrid (err %v)", err)
	}
}

// TestBrowseEncodeSizesExactly: the measured encoder allocates a body of
// exactly its bytes, with row sizes that differ (counts of every digit
// length), and a body appended onto a prefix is the prefix and the body.
func TestBrowseEncodeSizesExactly(t *testing.T) {
	g := grid.New(geom.NewRect(-180, -90, 180, 90), 128, 134)
	r := rand.New(rand.NewSource(18))
	bound := 2.5
	for _, rows := range []int{64, 67} {
		const cols = 64
		region := grid.Span{I2: 2*cols - 1, J2: 2*rows - 1}
		ests := wireEstimates(r, cols*rows)
		got, err := AppendBrowseResponse(nil, g, region, cols, rows, ests, &bound)
		if err != nil {
			t.Fatal(err)
		}
		if cap(got) != len(got) {
			t.Fatalf("%d rows: body of %d bytes retains capacity %d", rows, len(got), cap(got))
		}
		onto, err := AppendBrowseResponse([]byte("prefix"), g, region, cols, rows, ests, &bound)
		if err != nil || !bytes.Equal(onto, append([]byte("prefix"), got...)) {
			t.Fatalf("%d rows: body onto a prefix differs (err %v)", rows, err)
		}
	}
}

// TestBrowseEncodeIntoSpareCapacity writes maps whose every tile is the
// widest the word moves write — 25-byte coordinates, every count
// 99,999,999 (a count of 10^8 or more sends its tile to appendTile) —
// onto a prefix with each spare capacity from none to twice the body, so
// the last tile written by moves ends at every distance from the
// capacity's end: a move past the capacity panics, and the bytes must
// still be json.Marshal's.
func TestBrowseEncodeIntoSpareCapacity(t *testing.T) {
	const lo, hi = -1.2345678901234567e-6, -1.2345678901234566e-6
	widest := core.Estimate{Disjoint: 1e8 - 1, Contains: 1e8 - 1, Contained: 1e8 - 1, Overlap: 1e8 - 1}
	for _, shape := range [][2]int{{1, 1}, {1, 3}, {3, 1}} {
		cols, rows := shape[0], shape[1]
		// One cell per tile, every edge a 25-byte text.
		g := grid.New(geom.NewRect(lo, lo, hi, hi), cols, rows)
		region := grid.Span{I2: cols - 1, J2: rows - 1}
		ests := make([]core.Estimate, cols*rows)
		for k := range ests {
			ests[k] = widest
		}
		want, err := oracleBrowse(g, region, cols, rows, ests, nil)
		if err != nil {
			t.Fatal(err)
		}
		for spare := 0; spare <= 2*len(want); spare++ {
			dst := append(make([]byte, 0, 3+len(want)+spare), "pre"...)
			got, err := AppendBrowseResponse(dst, g, region, cols, rows, ests, nil)
			if err != nil || !bytes.Equal(got[3:], want) || string(got[:3]) != "pre" {
				t.Fatalf("%dx%d with %d spare bytes: wire bytes differ from json.Marshal (err %v)\n got: %.300s\nwant: %.300s",
					cols, rows, spare, err, got, want)
			}
		}
	}
}

// countBoundaries are the values where a count's digit length or the
// table words the count writer stores change: 0, every 10^k−1 / 10^k /
// 10^k+1, the extremes, and negatives (which clamp to 0).
func countBoundaries() []int64 {
	vals := []int64{math.MinInt64, -100, -10, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	for p := int64(10); ; p *= 10 {
		vals = append(vals, p-1, p, p+1)
		if p > math.MaxInt64/10 {
			return vals
		}
	}
}

// checkAppendCount compares the count writer with strconv.AppendInt of the
// clamped value: appendCount onto a buffer with spare capacity and onto a
// full one, and putCount's stores into the fewest bytes it may be given,
// max(8, digits), over stale bytes. The digit count is decimalLen's, which
// sizes the body.
func checkAppendCount(t *testing.T, prefix string, v int64) {
	t.Helper()
	want := strconv.AppendInt([]byte(prefix), max(v, 0), 10)
	roomy := append(make([]byte, 0, len(prefix)+32), prefix...)
	full := []byte(prefix)
	for name, dst := range map[string][]byte{"roomy": roomy, "full": full[:len(full):len(full)], "nil": nil} {
		if name == "nil" && prefix != "" {
			continue
		}
		if got := appendCount(dst, v); !bytes.Equal(got, want) {
			t.Fatalf("appendCount(%s %q, %d) = %q, want %q", name, prefix, v, got, want)
		}
	}
	digits := want[len(prefix):]
	b := bytes.Repeat([]byte{'x'}, max(8, len(digits)))
	if n := putCount(b, uint64(max(v, 0))); n != len(digits) || !bytes.Equal(b[:n], digits) || n != decimalLen(v) {
		t.Fatalf("putCount(%d) = %q (%d digits), want %q (decimalLen %d)", v, b[:n], n, digits, decimalLen(v))
	}
}

func TestAppendCount(t *testing.T) {
	for _, v := range countBoundaries() {
		checkAppendCount(t, "", v)
		checkAppendCount(t, `,"overlap":`, v)
	}
}

func FuzzAppendCount(f *testing.F) {
	for _, v := range countBoundaries() {
		f.Add(v, "")
		f.Add(v, `{"n":`)
	}
	f.Fuzz(func(t *testing.T, v int64, prefix string) { checkAppendCount(t, prefix, v) })
}

// TestServedBodiesAreCanonicalJSON drives every tile-serving handler and
// checks the body is what encoding/json renders for the decoded response:
// decoding into the wire type and marshaling back must reproduce it byte
// for byte. It also pins Content-Length on each.
func TestServedBodiesAreCanonicalJSON(t *testing.T) {
	fetch := func(url string) []byte {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %v %s", url, resp.StatusCode, err, body)
		}
		if resp.ContentLength != int64(len(body)) {
			t.Fatalf("GET %s: Content-Length %d for a body of %d bytes", url, resp.ContentLength, len(body))
		}
		return body
	}
	roundTrip := func(body []byte, v any) {
		t.Helper()
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("decoding %.200s: %v", body, err)
		}
		again, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, again) {
			t.Fatalf("served body is not json.Marshal of its decoded form\n got: %.300s\nwant: %.300s", body, again)
		}
	}

	plain := testServer(t)
	roundTrip(fetch(plain.URL+"/api/browse?x1=0&y1=0&x2=36&y2=18&cols=12&rows=6"), new(BrowseResponse))
	roundTrip(fetch(plain.URL+"/api/query?x1=2&y1=2&x2=30&y2=15"), new(TileEstimate))
	roundTrip(fetch(plain.URL+"/api/drill?x1=0&y1=0&x2=36&y2=18&relation=overlap&hot=1&depth=3"), new(DrillResponse))

	approx := new(BrowseResponse)
	roundTrip(fetch(approxTestServer(t, 2).URL+"/api/browse?x1=1&y1=1&x2=97&y2=97&cols=2&rows=2"), approx)
	if approx.ApproxErrorBound == nil {
		t.Fatal("the ε branch was not exercised")
	}
}

// TestEncodeFailureIs500: an encoder failure inside a browse computation
// is a server bug — a counted 500, not the 400 of an unanswerable request.
func TestEncodeFailureIs500(t *testing.T) {
	reg := telemetry.NewRegistry()
	nan := math.NaN()
	g := grid.NewUnit(4, 4)
	h := newHTTPMetrics(reg, nil, "").wrap("/api/browse", func(w http.ResponseWriter, r *http.Request) {
		data, err := encoded(AppendBrowseResponse(nil, g, grid.Span{I2: 3, J2: 3}, 2, 2, make([]core.Estimate, 4), &nan))
		writeRead(w, data, err)
	})
	prevLogf := logf
	logf = func(string, ...any) {}
	defer func() { logf = prevLogf }()

	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/api/browse", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if got := reg.Counter("geobrowse_http_encode_errors_total", "").Value(); got != 1 {
		t.Errorf("encode errors = %d, want 1", got)
	}
}

// TestLargeMapIsNotChunked: a 16k-tile map goes out with its length
// declared, not chunk-framed, and the middleware's byte counter equals the
// body length.
func TestLargeMapIsNotChunked(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := grid.NewUnit(256, 128)
	srv := httptest.NewServer(New("wide", StaticSource(cellCounter{g}), Options{Telemetry: reg}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/browse?x1=0&y1=0&x2=256&y2=128&cols=128&rows=128")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, err %v", resp.StatusCode, err)
	}
	var decoded BrowseResponse
	if err := json.Unmarshal(body, &decoded); err != nil || len(decoded.Tiles) != 128*128 {
		t.Fatalf("decoded %d tiles (err %v)", len(decoded.Tiles), err)
	}
	if len(resp.TransferEncoding) != 0 {
		t.Errorf("Transfer-Encoding %v on a body of known length", resp.TransferEncoding)
	}
	if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(body)) {
		t.Errorf("Content-Length %q, body is %d bytes", got, len(body))
	}
	if got := reg.Counter(metricRespBytes, "", "endpoint", "/api/browse").Value(); got != int64(len(body)) {
		t.Errorf("middleware counted %d body bytes, body is %d", got, len(body))
	}
}

// FuzzBrowseEncode checks AppendBrowseResponse against json.Marshal over
// arbitrary extents, tilings, counts and bounds, appended onto a prefix of
// that many bytes with spare bytes of capacity: identical bytes after the
// prefix, or both fail — with the identical error when a finite grid meets
// a non-finite bound. A body that had to grow has no slack (cap == len);
// one that fit is written in place. first is every count of the first
// tile and, negated, the last tile's overlap.
func FuzzBrowseEncode(f *testing.F) {
	f.Add(0.0, 0.0, 360.0, 180.0, uint8(36), uint8(18), uint8(0), uint8(0), uint8(6), uint8(3), int64(2002), int64(-5), 0.0, false, uint8(0), uint8(0))
	f.Add(-180.0, -90.0, 180.0, 90.0, uint8(144), uint8(72), uint8(4), uint8(2), uint8(10), uint8(7), int64(7), int64(math.MaxInt64), 1.5, true, uint8(0), uint8(0))
	f.Add(1e-9, -1e-8, 1e-8, 1e-8, uint8(9), uint8(20), uint8(0), uint8(0), uint8(9), uint8(20), int64(1), int64(0), 1e-9, true, uint8(0), uint8(0))
	f.Add(5e20, -2e21, 2e21, 2e21, uint8(6), uint8(8), uint8(1), uint8(1), uint8(2), uint8(3), int64(3), int64(math.MinInt64), 1e21, true, uint8(0), uint8(0))
	f.Add(-1.7e308, 0.0, 1.7e308, 1.0, uint8(4), uint8(4), uint8(0), uint8(0), uint8(2), uint8(2), int64(4), int64(1), math.NaN(), true, uint8(0), uint8(0))
	f.Add(0.0, 0.0, 1.0, 1.0, uint8(1), uint8(1), uint8(0), uint8(0), uint8(1), uint8(1), int64(5), int64(9), math.Inf(-1), true, uint8(0), uint8(0))
	for k, v := range countBoundaries() { // first lands in the first tile's disjoint, −first in the last's overlap
		f.Add(0.0, 0.0, 360.0, 180.0, uint8(36), uint8(18), uint8(0), uint8(0), uint8(6), uint8(3), int64(k), v, 0.0, false, uint8(0), uint8(0))
	}
	// The longest coordinate texts: 17 significant digits, negative, in
	// 'f' form (25 bytes, the longest block) and in 'e' form.
	f.Add(-1.2345678901234567e-6, -1.2345678901234567e-6, 1e-5, 1e-5, uint8(7), uint8(9), uint8(0), uint8(0), uint8(7), uint8(9), int64(6), int64(math.MaxInt64), 0.0, false, uint8(0), uint8(0))
	f.Add(-1.2345678901234567e-100, -1.2345678901234567e-100, 1e-99, 1e-99, uint8(3), uint8(5), uint8(0), uint8(0), uint8(3), uint8(5), int64(7), int64(math.MaxInt64), -1.2345678901234567e-100, true, uint8(0), uint8(0))
	// Counts where the writer changes how many table entries it stores.
	for _, v := range []int64{1e4 - 1, 1e4, 1e8 - 1, 1e8, math.MaxInt64} {
		f.Add(-180.0, -90.0, 180.0, 90.0, uint8(144), uint8(72), uint8(0), uint8(0), uint8(12), uint8(8), int64(8), v, 0.0, false, uint8(0), uint8(0))
	}
	// 1×1, 1×N and N×1 maps onto a prefix, without spare capacity and with.
	for _, shape := range [][2]uint8{{1, 1}, {1, 9}, {9, 1}} {
		for _, spare := range []uint8{0, 5, 200} {
			f.Add(-123.45678901234567, -67.891234567890123, 123.0, 68.0, uint8(9), uint8(9), uint8(0), uint8(0), shape[0], shape[1], int64(9), int64(math.MaxInt64), 2.5, spare == 5, uint8(6), spare)
		}
	}
	f.Fuzz(func(t *testing.T, x1, y1, x2, y2 float64, nx, ny, i1, j1, cols, rows uint8, seed, first int64, bound float64, hasBound bool, prefix, spare uint8) {
		extent := geom.Rect{XMin: x1, YMin: y1, XMax: x2, YMax: y2}
		if nx == 0 || ny == 0 || !extent.Valid() || extent.Degenerate() {
			t.Skip()
		}
		g := grid.New(extent, int(nx), int(ny))
		c, r := int(cols), int(rows)
		if c == 0 || r == 0 || int(i1) >= int(nx) || int(j1) >= int(ny) {
			t.Skip()
		}
		// The widest region from (i1, j1) the tiling divides, at least one
		// cell per tile.
		tw, th := (int(nx)-int(i1))/c, (int(ny)-int(j1))/r
		if tw == 0 || th == 0 {
			t.Skip()
		}
		region := grid.Span{I1: int(i1), J1: int(j1), I2: int(i1) + c*tw - 1, J2: int(j1) + r*th - 1}
		ests := wireEstimates(rand.New(rand.NewSource(seed)), c*r)
		ests[0] = core.Estimate{Disjoint: first, Contains: first, Contained: first, Overlap: first}
		ests[len(ests)-1].Overlap = -first
		var b *float64
		if hasBound {
			b = &bound
		}

		var dst []byte
		if prefix > 0 || spare > 0 {
			dst = append(make([]byte, 0, int(prefix)+int(spare)), bytes.Repeat([]byte{'p'}, int(prefix))...)
		}
		want, wantErr := oracleBrowse(g, region, c, r, ests, b)
		got, err := AppendBrowseResponse(dst, g, region, c, r, ests, b)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("error = %v, json.Marshal's = %v", err, wantErr)
		}
		if wantErr != nil {
			if _, gridErr := oracleBrowse(g, region, c, r, ests, nil); gridErr == nil && err.Error() != wantErr.Error() {
				t.Fatalf("error = %v, want json.Marshal's %v", err, wantErr)
			}
			return
		}
		if !bytes.Equal(got[:min(len(got), int(prefix))], dst) || !bytes.Equal(got[min(len(got), int(prefix)):], want) {
			t.Fatalf("wire bytes differ from json.Marshal after a %d-byte prefix\n got: %.300s\nwant: %.300s", prefix, got, want)
		}
		if grew := cap(dst) < len(got); grew && cap(got) != len(got) {
			t.Fatalf("body of %d bytes retains capacity %d", len(got), cap(got))
		} else if !grew && &got[0] != &dst[:1][0] {
			t.Fatalf("a body that fits %d bytes of capacity was written elsewhere", cap(dst))
		}
	})
}

// servedEstimates draws counts with the digit lengths of a cold-maps
// map's tiles over a 1M-object dataset: disjoint has 7 digits on every
// tile, contains 1, 2 or 3 on 70, 28 and 2 % of them, contained 3 on 99 %
// (2 on the rest), overlap 2 or 3 on 70 and 30 %.
func servedEstimates(r *rand.Rand, n int) []core.Estimate {
	digits := func(d int) int64 { // a number of exactly d digits
		lo := int64(math.Pow10(d - 1))
		return lo + r.Int63n(9*lo)
	}
	pick := func(shares ...int) int { // the length whose cumulative percentage the draw falls under
		p := r.Intn(100)
		for d := 1; ; d++ {
			if p -= shares[d-1]; p < 0 {
				return d
			}
		}
	}
	ests := make([]core.Estimate, n)
	for k := range ests {
		contains := digits(pick(70, 28, 2))
		if contains < 10 {
			contains = r.Int63n(10) // 0 too
		}
		ests[k] = core.Estimate{Disjoint: digits(7), Contains: contains,
			Contained: digits(pick(0, 1, 99)), Overlap: digits(pick(0, 70, 30))}
	}
	return ests
}

// BenchmarkBrowseEncode is the encode rung of the browse ladder at the
// benchmark's map sizes (648 and 4050 tiles on 360×180, 16 384 on
// 1440×720), counts shaped like served ones: the reflection oracle, the
// append encoder into a fresh body (a cached miss), and into a recycled
// one with room (recycled: an uncached server's path, which allocates
// nothing).
func BenchmarkBrowseEncode(b *testing.B) {
	for _, m := range []struct {
		nx, ny, cols, rows int
	}{{360, 180, 36, 18}, {360, 180, 90, 45}, {1440, 720, 128, 128}} {
		g := grid.New(geom.NewRect(-180, -90, 180, 90), m.nx, m.ny)
		tw, th := m.nx/m.cols, m.ny/m.rows
		region := grid.Span{I2: m.cols*tw - 1, J2: m.rows*th - 1}
		ests := servedEstimates(rand.New(rand.NewSource(2002)), m.cols*m.rows)
		name := fmt.Sprintf("tiles=%d", len(ests))
		b.Run("reflect/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				body, err := oracleBrowse(g, region, m.cols, m.rows, ests, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(body)))
			}
		})
		b.Run("append/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				body, err := AppendBrowseResponse(nil, g, region, m.cols, m.rows, ests, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(body)))
			}
		})
		b.Run("recycled/"+name, func(b *testing.B) {
			b.ReportAllocs()
			var body []byte
			for i := 0; i < b.N; i++ {
				var err error
				if body, err = AppendBrowseResponse(body[:0], g, region, m.cols, m.rows, ests, nil); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(body)))
			}
		})
	}
}

// cellCounter is a trivial estimator over g: every tile counts the cells
// it covers, which keeps large-map tests independent of a dataset.
type cellCounter struct{ g *grid.Grid }

func (e cellCounter) Name() string        { return "cells" }
func (e cellCounter) Grid() *grid.Grid    { return e.g }
func (e cellCounter) Count() int64        { return int64(e.g.Cells()) }
func (e cellCounter) StorageBuckets() int { return 0 }
func (e cellCounter) Estimate(q grid.Span) core.Estimate {
	return core.Estimate{Contains: int64(q.Cells()), Disjoint: int64(e.g.Cells() - q.Cells())}
}
