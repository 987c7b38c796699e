package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"spatialhist"
	"spatialhist/internal/dataset"
	"spatialhist/internal/exact"
	"spatialhist/internal/query"
)

// browseMaps are the full-space tile maps of the library workload, from
// the UI default to the finest map a 360×180 grid tiles evenly. Five maps
// times three estimators is an odd number of (map, estimator) classes, so
// the median browse latency sits inside one class instead of on the gap
// between two.
var browseMaps = [][2]int{{36, 18}, {60, 30}, {72, 36}, {90, 45}, {180, 90}}

// paperSummaries builds the three estimators through the root façade.
func paperSummaries(g *spatialhist.Grid, rects []spatialhist.Rect) ([]*spatialhist.Summary, error) {
	m, err := spatialhist.NewMEuler(g, accuracyAreas, rects)
	if err != nil {
		return nil, err
	}
	return []*spatialhist.Summary{spatialhist.NewSEuler(g, rects), spatialhist.NewEuler(g, rects), m}, nil
}

// runPaperQueries measures the library with no HTTP and one goroutine: the
// first half of the window answers the paper's Q_n tile sets one QuerySpan
// at a time, round-robin over the three estimators; the second half answers
// full-space Browse maps.
func runPaperQueries(e *env) (*runResult, error) {
	res := newResult(e, "paper-queries")
	d, err := dataset.Generate("adl", e.size.objects, e.seed)
	if err != nil {
		return nil, err
	}
	g := spatialhist.NewUnitGrid(360, 180)
	sets, err := query.AllPaperSets(g)
	if err != nil {
		return nil, err
	}
	// The load is fixed by the paper; the seed only picks the dataset.
	res.TraceHash = fmt.Sprintf("%016x", traceHash([]generator{&paperGen{g: g, sets: sets}}, 4096))

	// One goroutine on one thread, and rates counted against that thread's
	// processor time: time the host steals from the machine is not the
	// library's. The library never enters the kernel, so no wake kernel.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	ref, err := newReference(false, threadClock)
	if err != nil {
		return nil, err
	}
	spans := exact.Spans(g, d.Rects)

	// What the library keeps resident is what the resident set grows by
	// while the three summaries are built, freed memory handed back before
	// each reading.
	debug.FreeOSMemory()
	rss := -currentRSSMB(os.Getpid())
	var sums []*spatialhist.Summary
	var setup []float64
	for moreSetups(e.size, setup) {
		start := time.Now()
		if sums, err = paperSummaries(g, d.Rects); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	debug.FreeOSMemory()
	rss += currentRSSMB(os.Getpid())

	t := &tally{}
	checkPaperAnswers(t, sums, sets, spans, e.corrupt)
	if e.trace != 0 {
		res.count(t)
		if err := e.libraryLadder(res, d.Rects, g, sets); err != nil {
			return nil, err
		}
		res.finish()
		return res, nil
	}

	// Each segment spends half its time on single estimates and half on
	// tile maps; see segments for why the window is cut up.
	var win windowStats
	var browse latencies
	estimates := 0
	var sink spatialhist.Estimate
	region := g.Extent()
	half := e.dur(0.5 / segments)
	before := ref.measure()
	for i := 0; i < segments; i++ {
		// Query phase: the paper's tile sets, one QuerySpan at a time.
		n := 0
		start, cpu := time.Now(), threadClock()
		for time.Since(start) < half {
			for _, qs := range sets {
				for _, tile := range qs.Tiles {
					for _, s := range sums {
						sink = s.QuerySpan(tile)
					}
				}
				n += len(qs.Tiles) * len(sums)
			}
		}
		queryCPU := (threadClock() - cpu).Seconds()

		// Browse phase: full-space tile maps.
		var seg latencies
		nTiles := 0
		start, cpu = time.Now(), threadClock()
		for time.Since(start) < half {
			for _, m := range browseMaps {
				for _, s := range sums {
					t0 := time.Now()
					ests, err := s.Browse(region, m[0], m[1])
					seg.add(time.Since(t0))
					if err != nil || len(ests) != m[0]*m[1] {
						t.fail(fmt.Errorf("Browse %dx%d: %d tiles: %v", m[0], m[1], len(ests), err))
					}
					t.attempted++
					nTiles += len(ests)
				}
			}
		}
		browseCPU := (threadClock() - cpu).Seconds()

		after := ref.measure()
		win.add(&seg, float64(n)/queryCPU, float64(nTiles)/browseCPU, false, before, after)
		before = after
		browse.ns = append(browse.ns, seg.ns...)
		estimates += n
	}
	_ = sink
	t.attempted += int64(estimates)

	paperMaps := make([][2]int, len(sets))
	for i, qs := range sets {
		paperMaps[i] = [2]int{qs.Cols, qs.Rows}
	}
	acc, err := avgRelError(g, spans, paperMaps, func(cols, rows int) ([]int64, error) {
		ests, err := sums[2].Browse(region, cols, rows)
		out := make([]int64, len(ests))
		for k, est := range ests {
			out[k] = est.Contains
		}
		return out, err
	})
	if err != nil {
		return nil, err
	}
	res.set("setup_s", median(setup))
	win.report(res)
	res.set("rss_mb", rss)
	res.set("avg_rel_error", acc)
	res.info("browse_p99_raw_ms", browse.ms(99), "ms")
	res.info("browse_samples", float64(browse.n()), "count")
	res.info("query_samples", float64(estimates), "count")
	res.count(t)
	res.finish()
	return res, nil
}

// checkPaperAnswers asserts, for every tile of every paper set and every
// estimator, Equation 11 (the four counts sum to |S|) and that the
// disjoint — hence the intersect — count is exact, as §4 promises.
func checkPaperAnswers(t *tally, sums []*spatialhist.Summary, sets []*query.Set, spans []spatialhist.Span, corrupt bool) {
	for _, qs := range sets {
		want := exact.EvaluateSet(spans, qs)
		for _, s := range sums {
			for k, tile := range qs.Tiles {
				est := s.QuerySpan(tile)
				wantDisjoint := want[k].Disjoint
				if corrupt {
					wantDisjoint++
				}
				t.attempted++
				if est.Total() != s.Count() || est.Disjoint != wantDisjoint {
					t.fail(fmt.Errorf("%s %s tile %v: estimate %v totals %d of %d objects, exact disjoint %d",
						s.Algorithm(), qs.Name, tile, est, est.Total(), s.Count(), wantDisjoint))
				}
			}
		}
	}
}

// paperGen renders the library workload's query stream as requests, for
// the trace hash only.
type paperGen struct {
	g       *spatialhist.Grid
	sets    []*query.Set
	set, at int
}

func (p *paperGen) next() request {
	qs := p.sets[p.set]
	r := queryRequest(p.g, qs.Tiles[p.at])
	if p.at++; p.at == len(qs.Tiles) {
		p.at, p.set = 0, (p.set+1)%len(p.sets)
	}
	return r
}
