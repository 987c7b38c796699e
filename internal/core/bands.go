package core

import (
	"runtime"
	"sync"

	"spatialhist/internal/telemetry"
)

// bandMinTiles is the tile count below which a map runs inline as one
// band: a sweep clears 100k tiles in a few milliseconds, so goroutine
// fan-out only pays for itself on large maps.
const bandMinTiles = 4096

// BandPool bounds the goroutines that row bands of large tile maps run on:
// the one fan-out of the browse path, shared by sweeps and encoders. A
// server keeps one pool for all its requests, so concurrent maps contend
// for a fixed CPU budget; a nil pool runs every map inline.
type BandPool struct {
	sem    chan struct{}
	active *telemetry.Gauge   // bands holding a slot right now
	bands  *telemetry.Counter // bands dispatched; nil is not counted
}

// NewBandPool returns a pool of workers slots (workers <= 0 means
// GOMAXPROCS) reporting into the given metrics.
func NewBandPool(workers int, active *telemetry.Gauge, bands *telemetry.Counter) *BandPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &BandPool{sem: make(chan struct{}, workers), active: active, bands: bands}
}

// Bands splits the rows of a cols×rows tile map into at most one
// contiguous band [r0, r1) per pool slot and runs fn on each, waiting for
// all of them; every band holds a slot while it runs. Small maps, one-row
// maps and single-slot (or nil) pools run fn(0, rows) on the caller's
// goroutine. Bands are disjoint, so fn may write its rows of a shared
// row-major plane without synchronization.
func (p *BandPool) Bands(cols, rows int, fn func(r0, r1 int) error) error {
	workers := 1
	if p != nil {
		workers = min(cap(p.sem), rows)
	}
	if workers <= 1 || cols*rows < bandMinTiles {
		return fn(0, rows)
	}
	band := (rows + workers - 1) / workers
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w*band < rows; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.sem <- struct{}{}
			defer func() { <-p.sem }()
			if p.bands != nil {
				p.bands.Inc()
			}
			p.active.Inc()
			defer p.active.Dec()
			errs[w] = fn(w*band, min((w+1)*band, rows))
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
