package main

import (
	"io"
	"log"
	"os"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"spatialhist/internal/dataset"
	"spatialhist/internal/geobrowse"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/telemetry"
)

// assembleTestStatic assembles a static M-EulerApprox node over d from a
// command line's config, as assemble would.
func assembleTestStatic(t *testing.T, d *dataset.Dataset, args ...string) node {
	t.Helper()
	cfg := parseConfig(t, append([]string{"-report", "0"}, args...)...)
	nd, err := assembleStatic(cfg, geobrowse.Options{Telemetry: telemetry.NewRegistry()}, grid.New(d.Extent, cfg.gridW, cfg.gridH), d)
	if err != nil {
		t.Fatal(err)
	}
	return nd
}

// TestStaticNodeLetsGoOfTheObjects: once a static node is assembled, the
// dataset's rect array is unreachable — the node serves from its lattice
// alone — so a collection frees it, and the node still answers.
func TestStaticNodeLetsGoOfTheObjects(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	d := dataset.ADLLike(20_000, 2002)
	freed := make(chan struct{})
	runtime.SetFinalizer(&d.Rects[0], func(*geom.Rect) { close(freed) })
	nd := assembleTestStatic(t, d, "-pyramid-levels", "2")
	gone := false
	for k := 0; k < 20 && !gone; k++ {
		runtime.GC()
		select {
		case <-freed:
			gone = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	runtime.KeepAlive(d) // the dataset itself stays reachable: only its objects go
	if !gone {
		t.Fatal("the dataset's rect array is still reachable from an assembled static node")
	}
	if rec := serve(nd, "GET", "/api/browse?x1=0&y1=0&x2=360&y2=180&cols=36&rows=18", ""); rec.Code != 200 {
		t.Fatalf("browse after the objects went: %d %s", rec.Code, rec.Body.String())
	}
}

// TestGCAllowance: a static node's GC percent is what the live heap
// outside its lattice comes to — at least the runtime's 4 MiB, at most the
// default 100 — and an explicit GOGC is left alone.
func TestGCAllowance(t *testing.T) {
	for _, tc := range []struct {
		live, lattice uint64
		want          int
	}{
		{70e6, 66e6, 6},             // 4 MB outside the lattice is under 4 MiB
		{132e6, 66e6, 50},           // half the heap is lattice
		{10 << 20, 0, 100},          // no lattice: the default
		{2 << 20, 1 << 20, 100},     // 4 MiB is more than the heap: capped
		{0, 0, 100},                 // nothing measured
		{100<<20 + 1, 96 << 20, 5},  // rounded up: just over 4 %
		{1 << 30, (1 << 30) - 1, 1}, // a 1 GiB lattice: 4 MiB is 0.4 %
		{50 << 20, 60 << 20, 8},     // more lattice than heap: 4 MiB of 50
	} {
		if got := gcPercent(tc.live, tc.lattice); got != tc.want {
			t.Errorf("gcPercent(%d live, %d lattice) = %d, want %d", tc.live, tc.lattice, got, tc.want)
		}
	}

	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	defer debug.SetGCPercent(debug.SetGCPercent(100))
	if v, set := os.LookupEnv("GOGC"); set {
		t.Setenv("GOGC", v) // restored when the test ends
		os.Unsetenv("GOGC")
	}
	nd := assembleTestStatic(t, dataset.ADLLike(20_000, 2002), "-gw", "720", "-gh", "360")
	runtime.GC()
	percent, ok := setGCAllowance(nd.lattice)
	if !ok {
		t.Fatal("no GC percent set with GOGC unset")
	}
	if got := debug.SetGCPercent(100); got != percent {
		t.Fatalf("the runtime's GC percent is %d, setGCAllowance returned %d", got, percent)
	}
	// A 16.5 MB lattice in a test process's heap of a few MB more.
	if percent <= 0 || percent >= 100 {
		t.Fatalf("GC percent %d over a %d-byte lattice, want the lattice left out of 100", percent, nd.lattice)
	}

	t.Setenv("GOGC", "150")
	if _, ok := setGCAllowance(nd.lattice); ok {
		t.Fatal("a GC percent was set over an explicit GOGC")
	}
	if got := debug.SetGCPercent(100); got != 100 {
		t.Fatalf("the runtime's GC percent moved to %d under an explicit GOGC", got)
	}
	runtime.KeepAlive(nd)
}
