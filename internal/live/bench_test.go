package live

import (
	"math/rand"
	"path/filepath"
	"testing"

	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/telemetry"
)

func benchRects(n int) []geom.Rect {
	r := rand.New(rand.NewSource(42))
	out := make([]geom.Rect, n)
	for i := range out {
		x1 := r.Float64() * 1000
		y1 := r.Float64() * 1000
		out[i] = geom.NewRect(x1, y1, x1+r.Float64()*40, y1+r.Float64()*40)
	}
	return out
}

// BenchmarkIngest measures raw mutation throughput on the paper-scale
// 50×50 grid. The acceptance bar for the subsystem is ≥10k mutations/sec
// sustained; the O(1) difference-array apply plus a buffered journal
// append clears it by orders of magnitude.
func BenchmarkIngest(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"seuler/mem", Config{Grid: grid.NewUnit(50, 50), Algo: AlgoSEuler}},
		{"meuler/mem", Config{Grid: grid.NewUnit(50, 50), Algo: AlgoMEuler, Areas: []float64{1, 9, 100}}},
		{"meuler/wal", Config{Grid: grid.NewUnit(50, 50), Algo: AlgoMEuler, Areas: []float64{1, 9, 100}}},
		{"meuler/wal-sync", Config{Grid: grid.NewUnit(50, 50), Algo: AlgoMEuler, Areas: []float64{1, 9, 100}, SyncEvery: 64}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := bc.cfg
			cfg.Telemetry = telemetry.NewRegistry()
			cfg.RebuildEvery = 4096
			if bc.name != "seuler/mem" && bc.name != "meuler/mem" {
				cfg.WALPath = filepath.Join(b.TempDir(), "bench.wal")
			}
			s, err := Open(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			rects := benchRects(1 << 14)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := rects[i&(1<<14-1)]
				if i%3 == 2 {
					s.Delete(r)
				} else {
					s.Insert(r)
				}
			}
		})
	}
}

// BenchmarkRebuild measures generation publication latency — the pause-free
// cost a snapshot swap adds while browse traffic keeps reading the old
// generation. One mutation lands between publishes so every iteration
// pays a real (dirty-region) rebuild rather than the unchanged-skip path;
// its allocations are the publish-path number that
// TestSteadyStatePublishAllocatesDirty bounds.
func BenchmarkRebuild(b *testing.B) {
	s, err := Open(Config{Grid: grid.NewUnit(50, 50), Algo: AlgoMEuler,
		Areas: []float64{1, 9, 100}, Seed: benchRects(10000),
		RebuildEvery: -1, Telemetry: telemetry.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	rects := benchRects(1 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Insert(rects[i&(1<<10-1)])
		s.rebuild()
	}
}
