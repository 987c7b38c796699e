// Runtime telemetry for the estimation entry points. Instrumentation
// records into telemetry.Default() — the registry cmd/geobrowsed exposes
// at /metrics — at tile-map granularity, never per tile or per row band:
// one counter add and one histogram observation per map keeps the
// overhead invisible next to a multi-thousand-tile lattice pass.
package core

import (
	"time"

	"spatialhist/internal/telemetry"
)

// sweepBuckets cover batch sweeps from sub-100µs small maps to multi-
// second worst cases.
var sweepBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// observeSweep records one completed tile-map estimation for the named
// algorithm: the tiles it answered, the sweep count, and the sweep
// duration.
func observeSweep(algo string, tiles int, start time.Time) {
	reg := telemetry.Default()
	reg.Counter("core_tile_estimates_total",
		"Tiles answered through the batch estimation entry points, by algorithm.",
		"algo", algo).Add(int64(tiles))
	reg.Counter("core_batch_sweeps_total",
		"Batch sweeps run through the estimation entry points, by algorithm.",
		"algo", algo).Inc()
	reg.Histogram("core_batch_sweep_seconds",
		"Batch sweep duration in seconds, by algorithm.",
		sweepBuckets, "algo", algo).ObserveDuration(time.Since(start))
}
