// Runtime telemetry for the estimation entry points. Instrumentation
// records into telemetry.Default() — the registry cmd/geobrowsed exposes
// at /metrics — at tile-map granularity, never per tile or per row band.
// An algorithm's series are resolved on its first map and held, so a map
// costs one lock-free map load, two counter adds and one observation.
package core

import (
	"sync"
	"time"

	"spatialhist/internal/telemetry"
)

// sweepBuckets cover batch sweeps from sub-100µs small maps to multi-
// second worst cases.
var sweepBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// sweepSeries are one algorithm's resolved sweep series.
type sweepSeries struct {
	tiles, sweeps *telemetry.Counter
	seconds       *telemetry.Histogram
}

// seriesByAlgo maps an algorithm name to its *sweepSeries once resolved.
var seriesByAlgo sync.Map

// observeSweep records one completed tile-map estimation for the named
// algorithm: the tiles it answered, the sweep count, and the sweep
// duration.
func observeSweep(algo string, tiles int, start time.Time) {
	v, ok := seriesByAlgo.Load(algo)
	if !ok {
		reg := telemetry.Default()
		v, _ = seriesByAlgo.LoadOrStore(algo, &sweepSeries{
			tiles: reg.Counter("core_tile_estimates_total",
				"Tiles answered through the batch estimation entry points, by algorithm.",
				"algo", algo),
			sweeps: reg.Counter("core_batch_sweeps_total",
				"Batch sweeps run through the estimation entry points, by algorithm.",
				"algo", algo),
			seconds: reg.Histogram("core_batch_sweep_seconds",
				"Batch sweep duration in seconds, by algorithm.",
				sweepBuckets, "algo", algo),
		})
	}
	s := v.(*sweepSeries)
	s.tiles.Add(int64(tiles))
	s.sweeps.Inc()
	s.seconds.ObserveDuration(time.Since(start))
}
