package main

import (
	"flag"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spatialhist/internal/core"
	"spatialhist/internal/dataset"
	"spatialhist/internal/grid"
)

func TestParseTenants(t *testing.T) {
	type built struct {
		ds   string
		n    int
		seed int64
	}
	var calls []built
	build := func(ds string, n int, seed int64) (core.Estimator, error) {
		calls = append(calls, built{ds, n, seed})
		return nil, nil
	}
	tenants, err := parseTenants("west=adl:1000, east=ca_road ,south=sp_skew:5", 42, build, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(tenants) != 3 {
		t.Fatalf("parsed %d tenants, want 3", len(tenants))
	}
	wantNames := []string{"west", "east", "south"}
	for i, tc := range tenants {
		if tc.Name != wantNames[i] {
			t.Errorf("tenant %d = %q, want %q", i, tc.Name, wantNames[i])
		}
		if _, err := tc.Load(); err != nil {
			t.Fatal(err)
		}
	}
	// Loaders capture their own dataset, count (default when omitted) and
	// a per-tenant seed derived from the base.
	want := []built{{"adl", 1000, 100}, {"ca_road", 42, 101}, {"sp_skew", 5, 102}}
	for i, c := range calls {
		if c != want[i] {
			t.Errorf("loader %d built %+v, want %+v", i, c, want[i])
		}
	}

	// "uni" is the kind of typo that must fail at startup, not as 500s
	// at first lazy touch.
	for _, bad := range []string{"", "noequals", "=adl", "west=", "west=adl:0", "west=adl:x", " , ", "east=uni"} {
		if _, err := parseTenants(bad, 42, build, 1); err == nil {
			t.Errorf("spec %q must error", bad)
		}
	}
}

func TestParseAreas(t *testing.T) {
	got, err := parseAreas("1, 9,100")
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 9 || got[2] != 100 {
		t.Fatalf("parseAreas = %v, %v", got, err)
	}
	for _, bad := range []string{"1,x", "", "1,,9"} {
		if _, err := parseAreas(bad); err == nil {
			t.Errorf("area list %q must error", bad)
		}
	}
}

func TestBuildEstimator(t *testing.T) {
	d := dataset.SpSkew(200, 1)
	g := grid.New(d.Extent, 36, 18)
	for algo, name := range map[string]string{
		"seuler": "S-EulerApprox",
		"euler":  "EulerApprox",
		"meuler": "M-EulerApprox(2)",
	} {
		est, err := buildEstimator(algo, "1,9", g, d)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if est.Name() != name || est.Count() != 200 {
			t.Errorf("%s: %s/%d", algo, est.Name(), est.Count())
		}
	}
	if _, err := buildEstimator("bogus", "1", g, d); err == nil {
		t.Error("unknown algorithm must error")
	}
	if _, err := buildEstimator("meuler", "1,x", g, d); err == nil {
		t.Error("bad areas must error")
	}
	if _, err := buildEstimator("meuler", "9,1", g, d); err == nil {
		t.Error("invalid thresholds must error")
	}
}

func TestParseShardSpec(t *testing.T) {
	groups, err := parseShardSpec(" http://a:1 , http://b:2/ ; http://c:3 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("parsed %d shards, want 2", len(groups))
	}
	if got := groups[0].Leader.Name(); got != "http://a:1" {
		t.Errorf("shard 0 leader = %q", got)
	}
	if len(groups[0].Followers) != 1 || groups[0].Followers[0].Name() != "http://b:2" {
		t.Errorf("shard 0 followers = %v", groups[0].Followers)
	}
	if len(groups[1].Followers) != 0 || groups[1].Leader.Name() != "http://c:3" {
		t.Errorf("shard 1 = %+v", groups[1])
	}
	for _, bad := range []string{"", " ; ", "http://a:1,,http://b:2"} {
		if _, err := parseShardSpec(bad); err == nil {
			t.Errorf("spec %q must error", bad)
		}
	}
}

// TestAssembleRefusesBadCommandLines: every flag combination main used to
// die on inside a mode, and every flag a mode would silently drop, is an
// error assemble returns before serving anything. A dropped flag's error
// must name it, so a case cannot pass for another reason (an unreachable
// -coordinator, say).
func TestAssembleRefusesBadCommandLines(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	save := filepath.Join(t.TempDir(), "s.bin")
	for _, tc := range []struct {
		args []string
		flag string // the flag the error must name; "" for any error
	}{
		{[]string{"-live", "-load", "summary.bin"}, ""},
		{[]string{"-shards", "2"}, ""},
		{[]string{"-replica-of", "http://localhost:1", "-live"}, ""},
		{[]string{"-coordinator", "http://localhost:1", "-tenants", "a=adl"}, ""},
		{[]string{"-coordinator", " ; "}, ""},
		{[]string{"-replica-of", "http://localhost:1"}, ""}, // no -checkpoint
		{[]string{"-tenants", "a=adl", "-file", "adl.bin"}, ""},
		{[]string{"-tenants", "a=uni"}, ""},
		{[]string{"-load", filepath.Join(t.TempDir(), "missing.bin")}, ""},
		{[]string{"-file", filepath.Join(t.TempDir(), "missing.bin")}, ""},
		{[]string{"-dataset", "uni"}, ""},
		{[]string{"-algo", "bogus"}, ""},
		{[]string{"-algo", "meuler", "-areas", "9,1"}, ""},
		{[]string{"-live", "-algo", "bogus"}, ""},
		{[]string{"-live", "-areas", "1,x"}, ""},
		{[]string{"-live", "-shards", "100000", "-gw", "8"}, ""},
		{[]string{"-save", filepath.Join(t.TempDir(), "no", "such", "dir", "s.bin")}, ""},
		{[]string{"-live", "-shards", "2", "-cache", "8"}, "-cache"},
		{[]string{"-live", "-shards", "2", "-overview-epsilon", "0.05"}, "-overview-epsilon"},
		{[]string{"-coordinator", "http://localhost:1", "-cache", "8"}, "-cache"},
		{[]string{"-coordinator", "http://localhost:1", "-overview-epsilon", "0.05"}, "-overview-epsilon"},
		{[]string{"-live", "-save", save}, "-save"},
		{[]string{"-live", "-shards", "2", "-save", save}, "-save"},
	} {
		fs := flag.NewFlagSet("geobrowsed", flag.ContinueOnError)
		var cfg config
		cfg.register(fs)
		if err := fs.Parse(append([]string{"-n", "50"}, tc.args...)); err != nil {
			t.Fatal(err)
		}
		nd, err := assemble(cfg)
		switch {
		case err == nil:
			t.Errorf("%v: assembled a node", tc.args)
			if nd.close != nil {
				nd.close()
			}
		case tc.flag != "" && !strings.HasPrefix(err.Error(), tc.flag+" would be ignored"):
			t.Errorf("%v: error %q, want %s refused", tc.args, err, tc.flag)
		}
	}
	if _, err := os.Stat(save); !os.IsNotExist(err) {
		t.Errorf("a refused -save wrote %s (stat: %v)", save, err)
	}
}

// TestRetiredFlagsAreErrors: flags whose settings the code now makes from
// the data are gone, and passing one fails the command line instead of
// being ignored.
func TestRetiredFlagsAreErrors(t *testing.T) {
	for _, args := range [][]string{{"-rebuild-crossover", "-1"}, {"-pack-cold", "3"}, {"-pyramid-min-grid", "8"}, {"-workers", "2"}} {
		t.Run(args[0], func(t *testing.T) {
			fs := flag.NewFlagSet("geobrowsed", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			var cfg config
			cfg.register(fs)
			if err := fs.Parse(append([]string{"-live"}, args...)); err == nil || !strings.Contains(err.Error(), args[0][1:]) {
				t.Fatalf("%v parsed (err %v), want an undefined-flag error", args, err)
			}
		})
	}
}

// heldWriter is a ResponseWriter whose first Write blocks until release is
// closed, signalling held as it starts to wait: the handler writing through
// it keeps whatever it holds — an admission slot — until then.
type heldWriter struct {
	h       http.Header
	held    chan struct{}
	release chan struct{}
}

func (w *heldWriter) Header() http.Header { return w.h }
func (w *heldWriter) WriteHeader(int)     {}
func (w *heldWriter) Write(p []byte) (int, error) {
	if w.held != nil {
		close(w.held)
		w.held = nil
		<-w.release
	}
	return len(p), nil
}

// TestCoordinatorFrontHonoursServingFlags: an in-process coordinator front
// is assembled like any other, so the admission limiter the command line
// sizes is its own — a second browse map is shed with 429 while the one
// slot is held.
func TestCoordinatorFrontHonoursServingFlags(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	fs := flag.NewFlagSet("geobrowsed", flag.ContinueOnError)
	var cfg config
	cfg.register(fs)
	if err := fs.Parse([]string{"-live", "-shards", "2", "-dataset", "adl", "-n", "2000",
		"-max-inflight", "1", "-shed-after", "10ms", "-report", "0"}); err != nil {
		t.Fatal(err)
	}
	nd, err := assemble(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.close()
	const browse = "/api/browse?x1=0&y1=0&x2=360&y2=180&cols=12&rows=9"

	hold := &heldWriter{h: http.Header{}, held: make(chan struct{}), release: make(chan struct{})}
	held := hold.held
	done := make(chan struct{})
	go func() {
		defer close(done)
		nd.handler.ServeHTTP(hold, httptest.NewRequest("GET", browse, nil))
	}()
	<-held // the first map is writing its body, its slot held
	rec := httptest.NewRecorder()
	nd.handler.ServeHTTP(rec, httptest.NewRequest("GET", browse, nil))
	close(hold.release)
	<-done
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") == "" {
		t.Errorf("browse while the one slot is held: %d (Retry-After %q), want 429",
			rec.Code, rec.Header().Get("Retry-After"))
	}
	rec = httptest.NewRecorder()
	nd.handler.ServeHTTP(rec, httptest.NewRequest("GET", browse, nil))
	if rec.Code != http.StatusOK {
		t.Errorf("browse once the slot is free: %d %s", rec.Code, rec.Body.String())
	}
}
