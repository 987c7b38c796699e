package core

import (
	"math/rand"
	"testing"

	"spatialhist/internal/euler"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
)

// benchZoom builds a browse-scale S-EulerApprox stack: a 4096×4096 base
// grid over 50k rects — a 536 MB cumulative lattice, far past LLC, so
// level-0 sweeps pay the full-resolution memory traffic a real server
// pays — with eight coarse levels above it (4096 → 16).
func benchZoom(b *testing.B) (*SEuler, *Zoom) {
	b.Helper()
	g := grid.NewUnit(4096, 4096)
	r := rand.New(rand.NewSource(97))
	rects := make([]geom.Rect, 50_000)
	for i := range rects {
		x, y := r.Float64()*4000, r.Float64()*4000
		rects[i] = geom.NewRect(x, y, x+r.Float64()*80+0.1, y+r.Float64()*48+0.1)
	}
	base := SEulerFromRects(g, rects)
	zoom := zoomOver(b, AlgoSEuler, euler.NewPyramid(base.Histogram(), euler.PyramidOpts{MinGrid: 16}))
	if NumLevels(zoom) != 9 {
		b.Fatalf("zoom stack has %d levels, want 9", NumLevels(zoom))
	}
	return base, zoom
}

// BenchmarkBrowsePyramid measures tile-map sweeps at browse zoom levels,
// level-0-only vs pyramid-routed. The routed variants report the lattice
// footprint of the level actually swept — the ~1/4^k memory a coarse
// tiling touches. The coarser the tiling, the wider apart the level-0
// corner reads land (tile width × 8 bytes): past the prefetcher's reach
// every corner is an LLC miss and past 4 KB every corner is also a TLB
// walk, which is exactly the traffic the routed level never generates.
// Fine maps route near the base and stay within noise of it; unaligned
// tilings fall back to level 0 by construction and must cost the same as
// serving without a pyramid.
func BenchmarkBrowsePyramid(b *testing.B) {
	base, zoom := benchZoom(b)
	full := grid.Span{I2: 4095, J2: 4095}
	cases := []struct {
		name       string
		region     grid.Span
		cols, rows int
		level      int // expected routed level
	}{
		{"overview-16x16", full, 16, 16, 8}, // 256-cell tiles → level 8
		{"coarse-32x32", full, 32, 32, 7},   // 128-cell tiles → level 7
		{"mid-64x64", full, 64, 64, 6},      // 64-cell tiles → level 6
		{"fine-1024x1024", full, 1024, 1024, 2},
		{"unaligned-240x240", grid.Span{I1: 1, J1: 1, I2: 4080, J2: 4080}, 240, 240, 0}, // 17-cell tiles
	}
	for _, c := range cases {
		level, _ := zoom.RouteGrid(c.region, c.cols, c.rows)
		if level != c.level {
			b.Fatalf("%s routes to level %d, want %d", c.name, level, c.level)
		}
		b.Run(c.name+"/level0", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := EstimateGrid(base, c.region, c.cols, c.rows); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/pyramid", func(b *testing.B) {
			b.ReportMetric(float64(zoom.Level(level).(LatticeSizer).LatticeBytes()), "lattice-bytes")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := EstimateGrid(zoom, c.region, c.cols, c.rows); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
