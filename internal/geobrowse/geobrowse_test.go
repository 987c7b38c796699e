package geobrowse

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spatialhist/internal/core"
	"spatialhist/internal/euler"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/telemetry"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	g := grid.NewUnit(36, 18)
	h := euler.FromRects(g, []geom.Rect{
		geom.NewRect(2, 2, 4, 4),
		geom.NewRect(10, 5, 30, 15),
		geom.NewRect(2.5, 2.5, 3, 3),
	})
	srv := httptest.NewServer(New("testdata", StaticSource(core.NewEuler(h)), Options{}))
	t.Cleanup(srv.Close)
	return srv
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
}

func TestInfo(t *testing.T) {
	srv := testServer(t)
	var info Info
	getJSON(t, srv.URL+"/api/info", &info)
	if info.Dataset != "testdata" || info.Objects != 3 || info.Algorithm != "EulerApprox" {
		t.Fatalf("info = %+v", info)
	}
	if info.GridNX != 36 || info.GridNY != 18 || info.Extent != [4]float64{0, 0, 36, 18} {
		t.Fatalf("grid info = %+v", info)
	}
}

func TestQuery(t *testing.T) {
	srv := testServer(t)
	var tile TileEstimate
	getJSON(t, srv.URL+"/api/query?x1=0&y1=0&x2=6&y2=6", &tile)
	if tile.Contains != 2 || tile.Disjoint != 1 {
		t.Fatalf("tile = %+v", tile)
	}
	if tile.Rect != [4]float64{0, 0, 6, 6} {
		t.Fatalf("rect = %v", tile.Rect)
	}
}

func TestBrowse(t *testing.T) {
	srv := testServer(t)
	var resp BrowseResponse
	getJSON(t, srv.URL+"/api/browse?x1=0&y1=0&x2=36&y2=18&cols=6&rows=3", &resp)
	if resp.Cols != 6 || resp.Rows != 3 || len(resp.Tiles) != 18 {
		t.Fatalf("browse = %d x %d, %d tiles", resp.Cols, resp.Rows, len(resp.Tiles))
	}
	// The SW tile holds the two small objects.
	if resp.Tiles[0].Contains != 2 {
		t.Fatalf("SW tile = %+v", resp.Tiles[0])
	}
	// Totals per tile are consistent (clamped estimates can lose a little,
	// but never exceed the object count).
	for i, tile := range resp.Tiles {
		sum := tile.Disjoint + tile.Contains + tile.Contained + tile.Overlap
		if sum < 0 || sum > 4 {
			t.Fatalf("tile %d sums to %d: %+v", i, sum, tile)
		}
	}
}

func TestBadRequests(t *testing.T) {
	srv := testServer(t)
	cases := []string{
		"/api/query",                                          // missing params
		"/api/query?x1=a&y1=0&x2=6&y2=6",                      // non-numeric
		"/api/query?x1=0.5&y1=0&x2=6&y2=6",                    // misaligned
		"/api/query?x1=0&y1=0&x2=600&y2=6",                    // out of space
		"/api/browse?x1=0&y1=0&x2=36&y2=18&cols=0&rows=3",     // bad cols
		"/api/browse?x1=0&y1=0&x2=36&y2=18&cols=5&rows=3",     // non-dividing
		"/api/browse?x1=0&y1=0&x2=36&y2=18&cols=999&rows=999", // tile limit
		"/api/browse?x1=0&y1=0&x2=36&y2=18&cols=6",            // missing rows
	}
	for _, path := range cases {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", path, resp.StatusCode)
		}
	}
}

func TestIndexPage(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "GeoBrowse") {
		t.Fatalf("index page broken: %d", resp.StatusCode)
	}
	// Unknown paths 404.
	r2, err := http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path: %d, want 404", r2.StatusCode)
	}
}

func TestDrill(t *testing.T) {
	srv := testServer(t)
	var resp DrillResponse
	getJSON(t, srv.URL+"/api/drill?x1=0&y1=0&x2=36&y2=18&relation=contains&hot=1&depth=3", &resp)
	if resp.Relation != "contains" || len(resp.Tiles) < 4 {
		t.Fatalf("drill = %+v", resp)
	}
	refined := false
	for _, tile := range resp.Tiles {
		if tile.Depth > 0 {
			refined = true
		}
		if tile.Depth > 3 {
			t.Fatalf("tile beyond depth limit: %+v", tile)
		}
	}
	if !refined {
		t.Fatal("expected refinement around the objects")
	}
	for _, path := range []string{
		"/api/drill?x1=0&y1=0&x2=36&y2=18&relation=bogus&hot=1&depth=3",
		"/api/drill?x1=0&y1=0&x2=36&y2=18&relation=contains&hot=0&depth=3",
		"/api/drill?x1=0&y1=0&x2=36&y2=18&relation=contains&hot=1&depth=99",
		"/api/drill?x1=0&y1=0&x2=37&y2=18&relation=contains&hot=1&depth=3",
	} {
		r2, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", path, r2.StatusCode)
		}
	}
}

// TestDrillLeavesBrowseCacheAlone: a drill is answered from the estimator
// alone. Nothing computes or stores a browse map behind its response, then
// or a while later.
func TestDrillLeavesBrowseCacheAlone(t *testing.T) {
	g := grid.NewUnit(36, 18)
	h := euler.FromRects(g, []geom.Rect{geom.NewRect(2, 2, 4, 4), geom.NewRect(10, 5, 30, 15)})
	s := New("testdata", StaticSource(core.NewEuler(h)), Options{Telemetry: telemetry.NewRegistry()})
	srv := httptest.NewServer(s)
	defer srv.Close()

	var resp DrillResponse
	getJSON(t, srv.URL+"/api/drill?x1=0&y1=0&x2=36&y2=18&relation=overlap&hot=1&depth=2", &resp)
	time.Sleep(200 * time.Millisecond)
	if hits, misses := s.CacheStats(); hits != 0 || misses != 0 || s.CacheBytes() != 0 {
		t.Fatalf("after a drill the browse cache saw %d hits and %d misses and holds %d bytes, want none", hits, misses, s.CacheBytes())
	}
}

func TestParseRelation(t *testing.T) {
	for arg, want := range map[string]geom.Rel2{
		"contains":  geom.Rel2Contains,
		"contained": geom.Rel2Contained,
		"overlap":   geom.Rel2Overlap,
		"disjoint":  geom.Rel2Disjoint,
	} {
		if got, err := parseRelation(arg); err != nil || got != want {
			t.Errorf("parseRelation(%q) = %v, %v", arg, got, err)
		}
	}
	for _, bad := range []string{"equals", "", "Contains"} {
		if _, err := parseRelation(bad); err == nil || !strings.Contains(err.Error(), `"`+bad+`"`) {
			t.Errorf("parseRelation(%q): %v, want an error naming it", bad, err)
		}
	}
}
