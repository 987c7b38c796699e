package geobrowse

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"spatialhist/internal/live"
	"spatialhist/internal/telemetry"
)

// TestLiveServerErrorPaths is the table of every way a request to the live
// browse stack can be malformed, and the status code plus telemetry each
// must produce. Nothing here may come back 200: a handler that accepts a
// broken request corrupts the caller's mental model of what was applied.
func TestLiveServerErrorPaths(t *testing.T) {
	reg := telemetry.NewRegistry()
	store := newLiveStore(t, live.Config{})
	srv := New("errs", store, Options{Telemetry: reg})

	cases := []struct {
		name     string
		method   string
		path     string
		body     string
		wantCode int
		// endpoint is the route label the middleware must count the
		// request under; empty when the mux rejects it before wrap runs
		// (wrong-method requests never reach a handler).
		endpoint string
		wantFrag string
	}{
		{name: "ingest empty body", method: "POST", path: "/api/ingest", body: "",
			wantCode: 400, endpoint: "/api/ingest", wantFrag: "decoding body"},
		{name: "ingest malformed json", method: "POST", path: "/api/ingest", body: `{"rects":[[1,1`,
			wantCode: 400, endpoint: "/api/ingest", wantFrag: "decoding body"},
		{name: "ingest wrong type", method: "POST", path: "/api/ingest", body: `{"rects":"nope"}`,
			wantCode: 400, endpoint: "/api/ingest", wantFrag: "decoding body"},
		{name: "ingest no rects", method: "POST", path: "/api/ingest", body: `{"rects":[]}`,
			wantCode: 400, endpoint: "/api/ingest", wantFrag: "at least one rect"},
		{name: "ingest trailing garbage", method: "POST", path: "/api/ingest",
			body:     `{"rects":[[1,1,2,2]]}garbage`,
			wantCode: 400, endpoint: "/api/ingest", wantFrag: "trailing data"},
		{name: "ingest second json value", method: "POST", path: "/api/ingest",
			body:     `{"rects":[[1,1,2,2]]}{"rects":[[3,3,4,4]]}`,
			wantCode: 400, endpoint: "/api/ingest", wantFrag: "trailing data"},
		{name: "delete trailing garbage", method: "POST", path: "/api/delete",
			body:     `{"rects":[[1,1,2,2]]} extra`,
			wantCode: 400, endpoint: "/api/delete", wantFrag: "trailing data"},
		{name: "ingest wrong method", method: "GET", path: "/api/ingest",
			wantCode: 405},
		{name: "delete wrong method", method: "PUT", path: "/api/delete", body: `{"rects":[[1,1,2,2]]}`,
			wantCode: 405},
		{name: "status wrong method", method: "POST", path: "/api/store/status",
			wantCode: 405},
		{name: "browse missing region", method: "GET", path: "/api/browse?cols=4&rows=4",
			wantCode: 400, endpoint: "/api/browse", wantFrag: `missing parameter "x1"`},
		{name: "browse bad float", method: "GET", path: "/api/browse?x1=zero&y1=0&x2=20&y2=20&cols=4&rows=4",
			wantCode: 400, endpoint: "/api/browse", wantFrag: `parameter "x1"`},
		{name: "browse misaligned region", method: "GET", path: "/api/browse?x1=0.37&y1=0&x2=20&y2=20&cols=4&rows=4",
			wantCode: 400, endpoint: "/api/browse", wantFrag: "region"},
		{name: "browse region outside space", method: "GET", path: "/api/browse?x1=-40&y1=0&x2=20&y2=20&cols=4&rows=4",
			wantCode: 400, endpoint: "/api/browse"},
		{name: "browse zero cols", method: "GET", path: "/api/browse?x1=0&y1=0&x2=20&y2=20&cols=0&rows=4",
			wantCode: 400, endpoint: "/api/browse", wantFrag: `parameter "cols"`},
		{name: "browse negative rows", method: "GET", path: "/api/browse?x1=0&y1=0&x2=20&y2=20&cols=4&rows=-1",
			wantCode: 400, endpoint: "/api/browse", wantFrag: `parameter "rows"`},
		{name: "browse non-dividing tiling", method: "GET", path: "/api/browse?x1=0&y1=0&x2=20&y2=20&cols=3&rows=4",
			wantCode: 400, endpoint: "/api/browse"},
		{name: "browse tile limit", method: "GET", path: "/api/browse?x1=0&y1=0&x2=20&y2=20&cols=40000&rows=40000",
			wantCode: 400, endpoint: "/api/browse", wantFrag: "exceeds"},
		{name: "query missing params", method: "GET", path: "/api/query?x1=1",
			wantCode: 400, endpoint: "/api/query", wantFrag: "missing parameter"},
		{name: "drill bad relation", method: "GET", path: "/api/drill?x1=0&y1=0&x2=20&y2=20&relation=sideways",
			wantCode: 400, endpoint: "/api/drill"},
		{name: "unknown path", method: "GET", path: "/api/nothing",
			wantCode: 404},
	}

	// Every (endpoint, code) series this table exercises, counted before
	// the requests run so the assertions below are increments, not totals.
	before := map[[2]string]int64{}
	for _, tc := range cases {
		if tc.endpoint != "" {
			key := [2]string{tc.endpoint, "400"}
			before[key] = reg.Counter(metricRequests, "", "endpoint", key[0], "code", key[1]).Value()
		}
	}
	wantInc := map[[2]string]int64{}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body *strings.Reader
			if tc.body != "" {
				body = strings.NewReader(tc.body)
			} else {
				body = strings.NewReader("")
			}
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, body))
			if rec.Code != tc.wantCode {
				t.Fatalf("%s %s: code %d, want %d (body %q)", tc.method, tc.path, rec.Code, tc.wantCode, rec.Body.String())
			}
			if tc.wantFrag != "" && !strings.Contains(rec.Body.String(), tc.wantFrag) {
				t.Fatalf("%s %s: body %q does not explain the failure (want %q)", tc.method, tc.path, rec.Body.String(), tc.wantFrag)
			}
			if tc.endpoint != "" && tc.wantCode == 400 {
				wantInc[[2]string{tc.endpoint, "400"}]++
			}
		})
	}

	for key, inc := range wantInc {
		got := reg.Counter(metricRequests, "", "endpoint", key[0], "code", key[1]).Value() - before[key]
		if got != inc {
			t.Errorf("requests_total{endpoint=%q,code=%q} grew by %d, want %d", key[0], key[1], got, inc)
		}
	}

	// None of the malformed requests may have mutated the store.
	if n := store.Status().LiveObjects; n != 0 {
		t.Fatalf("error-path requests changed the store: %d objects", n)
	}
}

// TestMutationRejectsTrailingGarbageButAppliesCleanBody pins the repaired
// behavior from both sides: the exact same rects that 400 with a trailing
// byte are applied when the body is clean.
func TestMutationRejectsTrailingGarbageButAppliesCleanBody(t *testing.T) {
	store := newLiveStore(t, live.Config{})
	srv := New("trail", store, Options{Telemetry: telemetry.NewRegistry()})

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/api/ingest?flush=1",
		strings.NewReader(`{"rects":[[1,1,3,3],[5,5,8,8]]}]`)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("trailing byte accepted: %d %s", rec.Code, rec.Body.String())
	}
	if n := store.Status().LiveObjects; n != 0 {
		t.Fatalf("rejected request still applied %d rects", n)
	}

	rec, resp := postJSON(t, srv, "/api/ingest?flush=1",
		MutationRequest{Rects: [][4]float64{{1, 1, 3, 3}, {5, 5, 8, 8}}})
	if rec.Code != http.StatusOK || resp.Applied != 2 {
		t.Fatalf("clean body: %d applied=%d (%s)", rec.Code, resp.Applied, rec.Body.String())
	}
	if n := store.Status().LiveObjects; n != 2 {
		t.Fatalf("store holds %d objects, want 2", n)
	}
}
