package geobrowse

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/live"
	"spatialhist/internal/telemetry"
)

// benchIngestRate is the sustained mutation rate of the "ingesting"
// variant: 5× the 10k mutations/sec acceptance floor. The writer is
// paced rather than free-running so the benchmark measures reader/writer
// isolation at the specified load, not CPU starvation at the millions of
// mutations per second the store can absorb (BenchmarkIngest covers raw
// throughput).
const benchIngestRate = 50_000

// BenchmarkBrowseUnderIngest is the isolation criterion for the live
// stack: browse latency with the store idle versus while a writer
// goroutine sustains benchIngestRate (the reported ingest-ops/s metric
// shows the achieved rate). Browse requests read immutable snapshots and
// writers never block readers, so the two ns/op figures should agree
// within noise.
func BenchmarkBrowseUnderIngest(b *testing.B) {
	for _, ingesting := range []bool{false, true} {
		name := "idle"
		if ingesting {
			name = "ingesting"
		}
		b.Run(name, func(b *testing.B) {
			g := grid.NewUnit(50, 50)
			r := rand.New(rand.NewSource(1))
			seed := make([]geom.Rect, 20000)
			for i := range seed {
				x, y := r.Float64()*48, r.Float64()*48
				seed[i] = geom.NewRect(x, y, x+r.Float64()*8, y+r.Float64()*8)
			}
			store, err := live.Open(live.Config{Grid: g, Algo: live.AlgoMEuler,
				Areas: []float64{1, 9, 100}, Seed: seed,
				RebuildEvery: 4096, Telemetry: telemetry.NewRegistry()})
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			// Storage off (single-flight kept): every browse computes, so
			// the measurement is estimation latency, not cache hits.
			srv := New("bench", store, Options{CacheSize: -1, Telemetry: telemetry.NewRegistry()})

			stop := make(chan struct{})
			var muts atomic.Int64
			if ingesting {
				go func() {
					wr := rand.New(rand.NewSource(2))
					const burst = 500
					interval := burst * time.Second / benchIngestRate
					tick := time.NewTicker(interval)
					defer tick.Stop()
					for {
						select {
						case <-stop:
							return
						case <-tick.C:
						}
						for i := 0; i < burst; i++ {
							x, y := wr.Float64()*48, wr.Float64()*48
							store.Insert(geom.NewRect(x, y, x+2, y+3))
						}
						muts.Add(burst)
					}
				}()
			}

			req := httptest.NewRequest("GET", "/api/browse?x1=0&y1=0&x2=50&y2=50&cols=10&rows=10", nil)
			start := time.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("browse: %d %s", rec.Code, rec.Body.String())
				}
			}
			b.StopTimer()
			close(stop)
			if ingesting {
				rate := float64(muts.Load()) / time.Since(start).Seconds()
				b.ReportMetric(rate, "ingest-ops/s")
			}
		})
	}
}
