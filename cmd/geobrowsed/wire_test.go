package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/wire_golden.txt from what this build serves")

const wireGoldenFile = "testdata/wire_golden.txt"

// wireModes are the serving modes the golden covers, each assembled from
// its command line over the one seeded dataset.
var wireModes = []struct {
	name string
	args []string
	live bool
}{
	{name: "meuler"},
	{name: "meuler-nocache", args: []string{"-cache", "-1"}},
	{name: "meuler-cache1", args: []string{"-cache", "1"}},
	{name: "seuler", args: []string{"-algo", "seuler"}},
	{name: "euler", args: []string{"-algo", "euler"}},
	{name: "epsilon", args: []string{"-overview-epsilon", "0.05"}},
	{name: "live", args: []string{"-live"}, live: true},
	{name: "live-shards2", args: []string{"-live", "-shards", "2"}, live: true},
}

// wireReads is the read traffic every mode answers: the 360×180 grid has a
// three-level pyramid, so tiles of 8×4 cells route to level 2, 10×10 to
// level 1 and anything odd to the base.
var wireReads = []string{
	"/api/info",
	"/api/query?x1=10&y1=20&x2=20&y2=30",
	"/api/query?x1=0&y1=0&x2=360&y2=180",
	"/api/query?x1=128&y1=64&x2=192&y2=128",
	// Level-aligned tilings.
	"/api/browse?x1=0&y1=0&x2=360&y2=180&cols=36&rows=18",
	"/api/browse?x1=0&y1=0&x2=360&y2=180&cols=45&rows=45",
	"/api/browse?x1=64&y1=32&x2=320&y2=160&cols=8&rows=8",
	// Unaligned: odd origin, odd tiles.
	"/api/browse?x1=1&y1=1&x2=91&y2=46&cols=9&rows=5",
	"/api/browse?x1=3&y1=7&x2=103&y2=57&cols=4&rows=10",
	// Overview maps: the exact route is the base, so an ε server tries the
	// reduced tier.
	"/api/browse?x1=0&y1=0&x2=360&y2=180&cols=2&rows=2",
	"/api/browse?x1=0&y1=0&x2=360&y2=180&cols=4&rows=4",
	"/api/browse?x1=0&y1=0&x2=360&y2=180&cols=8&rows=4",
	"/api/browse?x1=0&y1=0&x2=360&y2=180&cols=1&rows=2",
	"/api/browse?x1=0&y1=0&x2=360&y2=180&cols=3&rows=2",
	"/api/browse?x1=0&y1=0&x2=360&y2=180&cols=2&rows=4",
	// Already at the reduced tier's level: nothing to gain, served exactly.
	"/api/browse?x1=0&y1=0&x2=360&y2=180&cols=1&rows=1",
	// Banded maps of at least 4096 tiles, at a coarse level and at the base.
	"/api/browse?x1=0&y1=0&x2=360&y2=180&cols=90&rows=90",
	"/api/browse?x1=0&y1=0&x2=360&y2=180&cols=120&rows=60",
	// Repeats, served from the cache where there is one.
	"/api/browse?x1=0&y1=0&x2=360&y2=180&cols=36&rows=18",
	"/api/browse?x1=0&y1=0&x2=360&y2=180&cols=90&rows=90",
	"/api/drill?x1=0&y1=0&x2=360&y2=180&depth=2&hot=4&relation=overlap",
	"/api/drill?x1=0&y1=0&x2=256&y2=128&depth=4&hot=200&relation=contains",
	"/api/drill?x1=90&y1=45&x2=270&y2=135&depth=3&hot=50&relation=contained",
	// Refused: misaligned, untileable, over the limits, malformed.
	"/api/browse?x1=0.5&y1=0&x2=360&y2=180&cols=4&rows=4",
	"/api/query?x1=0&y1=0&x2=360.25&y2=180",
	"/api/browse?x1=0&y1=0&x2=360&y2=180&cols=100&rows=100",
	"/api/browse?x1=0&y1=0&x2=360&y2=180&cols=7&rows=18",
	"/api/browse?x1=0&y1=0&x2=360&y2=180&cols=100000&rows=99999",
	"/api/browse?x1=0&y1=0&x2=360&y2=180&cols=0&rows=4",
	"/api/browse?x1=0&y1=0&x2=360&y2=180&cols=100001&rows=1",
	"/api/browse?x1=0&y1=0&x2=360&y2=180&cols=400&rows=300",
	"/api/browse?x1=0&y1=0&x2=abc&y2=180&cols=4&rows=4",
	"/api/drill?x1=0&y1=0&x2=360&y2=180&depth=2&hot=4&relation=near",
	"/api/drill?x1=0&y1=0&x2=360&y2=180&depth=99&hot=4&relation=overlap",
}

// statusClock matches the wall-clock fields of /api/store/status.
var statusClock = regexp.MustCompile(`"snapshotAgeSeconds":[^,}]*|"snapshotBuiltAt":"[^"]*"`)

// wireMutations is the seeded write traffic of the live modes: an ingest of
// objects inside, across and outside the data space, a delete of some of
// them, both published at once.
func wireMutations() (ingest, remove string) {
	rng := rand.New(rand.NewSource(2002))
	var rects []string
	for i := 0; i < 400; i++ {
		x, y := rng.Float64()*380-10, rng.Float64()*200-10
		w, h := rng.Float64()*rng.Float64()*40, rng.Float64()*rng.Float64()*30
		rects = append(rects, fmt.Sprintf("[%.4f,%.4f,%.4f,%.4f]", x, y, x+w, y+h))
	}
	rects = append(rects, "[400,200,410,210]") // outside: journaled, rejected
	body := func(rs []string) string { return `{"rects":[` + strings.Join(rs, ",") + `]}` }
	return body(rects), body(append(rects[40:120:120], "[500,500,501,501]"))
}

// TestWireGolden pins the bytes geobrowsed serves: every mode is assembled
// as main would, driven through the same requests, and the SHA-256 of each
// response compared with the committed golden — recorded at the commit
// before the estimator plan, assembly and pin were unified, so a change
// that moves a byte in any mode names the request that moved.
func TestWireGolden(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	var got bytes.Buffer
	bodies := 0
	for _, mode := range wireModes {
		fs := flag.NewFlagSet(mode.name, flag.ContinueOnError)
		var cfg config
		cfg.register(fs)
		if err := fs.Parse(append([]string{"-dataset", "adl", "-n", "20000", "-seed", "2002"}, mode.args...)); err != nil {
			t.Fatal(err)
		}
		nd, err := assemble(cfg)
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		do := func(method, target, body string) {
			req := httptest.NewRequest(method, target, strings.NewReader(body))
			rec := httptest.NewRecorder()
			nd.handler.ServeHTTP(rec, req)
			data := rec.Body.Bytes()
			if strings.HasPrefix(target, "/api/store/status") {
				data = statusClock.ReplaceAll(data, nil)
			}
			fmt.Fprintf(&got, "%s\t%s %s\t%d\t%d\t%x\n", mode.name, method, target, rec.Code, len(data), sha256.Sum256(data))
			bodies++
		}
		if mode.live {
			ingest, remove := wireMutations()
			do(http.MethodGet, "/api/info", "")
			do(http.MethodPost, "/api/ingest", ingest)
			do(http.MethodPost, "/api/delete?flush=1", remove)
			do(http.MethodPost, "/api/ingest", `{"rects":[]}`)
			do(http.MethodPost, "/api/ingest", `{"rects":[[1,1,2,2]]} trailing`)
			do(http.MethodGet, "/api/store/status", "")
		}
		for _, target := range wireReads {
			do(http.MethodGet, target, "")
		}
		if nd.close != nil {
			if err := nd.close(); err != nil {
				t.Errorf("%s: closing: %v", mode.name, err)
			}
		}
	}
	if bodies < 80 {
		t.Fatalf("golden covers %d bodies, want at least 80", bodies)
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wireGoldenFile, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d bodies to %s", bodies, wireGoldenFile)
		return
	}
	want, err := os.ReadFile(wireGoldenFile)
	if err != nil {
		t.Fatalf("%v (record it with go test -run TestWireGolden -update)", err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("served %d lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := 0; i < min(len(gotLines), len(wantLines)); i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
