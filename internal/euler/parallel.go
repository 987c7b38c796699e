package euler

import (
	"runtime"
	"sync"
	"time"

	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/telemetry"
)

// FromRectsParallel builds an Euler histogram over g using up to workers
// goroutines (0 means GOMAXPROCS). Each worker accumulates its shard into
// a private difference array; the arrays are summed and finalized once.
// The result is identical to FromRects — difference-array insertion is
// commutative.
//
// Insertion is four scattered memory writes per object, so construction
// is memory-bandwidth-bound and parallel speedup is modest. The merge
// sums the workers' difference arrays chunked by lattice range, so the
// chunks fan across the same workers with disjoint writes and the merge
// is O(lattice × workers / min(workers, GOMAXPROCS)) wall-clock instead
// of the serial O(lattice × workers) pass that used to erase the
// insertion speedup (BenchmarkParallelHistogramBuild compares worker
// counts; on a single-core host all counts converge, which is the
// correctness floor — extra workers must not cost). The automatic policy
// is AutoWorkers, which scales with both object count and lattice size. An
// explicit worker count is honored as given; workers <= 0 asks for the
// automatic policy.
// AutoWorkers is the automatic worker policy for histogram construction:
// one extra worker per 250k objects (insertion is four scattered writes
// per object) or per 2M lattice buckets (the cumulative pass is a fixed
// O(lattice) sweep that now parallelizes too), whichever asks for more,
// capped at GOMAXPROCS. The old policy looked only at the object count, so
// a sparse dataset on a fine grid — where the Build pass is the entire
// cost — was pinned to one core.
func AutoWorkers(latticeBuckets, objects int) int {
	byObjects := 1 + objects/250_000
	byLattice := 1 + latticeBuckets/(2<<20)
	return min(runtime.GOMAXPROCS(0), max(byObjects, byLattice))
}

func FromRectsParallel(g *grid.Grid, rects []geom.Rect, workers int) *Histogram {
	if workers <= 0 {
		workers = AutoWorkers((2*g.NX()-1)*(2*g.NY()-1), len(rects))
	}
	if workers == 1 || len(rects) == 0 {
		return FromRects(g, rects)
	}
	// The insertion fan is bounded by the object count, but the final
	// cumulative pass parallelizes over the lattice regardless of how few
	// objects there are.
	buildWorkers := min(workers, runtime.GOMAXPROCS(0))
	workers = min(workers, len(rects))

	// Construction telemetry: worker occupancy across both the insertion
	// and merge fans, plus a build counter and duration histogram, all in
	// telemetry.Default() (atomic adds per worker, not per object).
	start := time.Now()
	reg := telemetry.Default()
	active := reg.Gauge("euler_build_workers_active",
		"Histogram-construction workers currently running.")

	builders := make([]*Builder, workers)
	var wg sync.WaitGroup
	shard := (len(rects) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := min(w*shard, len(rects))
		hi := min(lo+shard, len(rects))
		b := NewBuilder(g)
		builders[w] = b
		wg.Add(1)
		go func(part []geom.Rect) {
			defer wg.Done()
			active.Inc()
			defer active.Dec()
			b.AddAll(part)
		}(rects[lo:hi])
	}
	wg.Wait()

	// Merge worker diffs into the first builder and finalize once. The
	// merge is chunked by lattice range: each chunk of the index space sums
	// every worker's slice of it independently, so the chunks fan across
	// cores with disjoint writes and perfectly sequential reads. The sum is
	// bounded by the sum of the workers' bounds, so the merged array is
	// narrow exactly when a single builder fed every object would be.
	root := merged(builders)
	size := (root.lx + 1) * (root.ly + 1)
	mergeWorkers := min(workers, runtime.GOMAXPROCS(0))
	chunk := (size + mergeWorkers - 1) / mergeWorkers
	var merge sync.WaitGroup
	for c := 0; c < mergeWorkers; c++ {
		lo := min(c*chunk, size)
		hi := min(lo+chunk, size)
		if lo >= hi {
			break
		}
		merge.Add(1)
		go func(lo, hi int) {
			defer merge.Done()
			active.Inc()
			defer active.Dec()
			for _, b := range builders[1:] {
				switch {
				case root.d32 != nil:
					addCells(root.d32[lo:hi], b.d32[lo:hi])
				case b.d32 != nil:
					addCells(root.d64[lo:hi], b.d32[lo:hi])
				default:
					addCells(root.d64[lo:hi], b.d64[lo:hi])
				}
			}
		}(lo, hi)
	}
	merge.Wait()
	h := root.BuildParallel(buildWorkers)
	reg.Counter("euler_parallel_builds_total",
		"Parallel histogram constructions completed.").Inc()
	reg.Histogram("euler_build_seconds",
		"Parallel histogram construction duration in seconds.", nil).
		ObserveDuration(time.Since(start))
	return h
}

// merged returns the builder the shards' difference arrays are summed into
// — the first, carrying every shard's counts and bounds, and widened first
// when together they pass the limit.
func merged(builders []*Builder) *Builder {
	root := builders[0]
	for _, b := range builders[1:] {
		root.n += b.n
		root.rects += b.rects
		root.bound += b.bound
	}
	if root.d32 != nil && root.bound > root.limit {
		root.widen()
	}
	return root
}

// addCells adds src into dst element by element, across cell widths.
func addCells[D, S Cell](dst []D, src []S) {
	for i, v := range src {
		dst[i] += D(v)
	}
}
