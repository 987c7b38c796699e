package geobrowse

import (
	"errors"
	"net/http"

	"spatialhist/internal/core"
	"spatialhist/internal/grid"
)

// Source is the dataset a Server serves, read once per request in one of
// two ways. An EstimatorSource (a fixed summary, a live store) is pinned
// at one generation, which keys the browse cache, and its estimator plans
// every map. A Reader (the shard coordinator) answers as it is, uncached:
// it pins no generation, so nothing could key a cache entry. Everything
// else a Server mounts is found on the source by capability: see New.
type Source interface {
	Grid() *grid.Grid
}

// EstimatorSource supplies the estimator a request is answered with,
// pinned, together with the generation it belongs to and the release that
// undoes the pin — never nil, called when the request is done with the
// estimator. Fixed summaries are always generation 0 and release nothing; a
// live store advances the generation at every snapshot swap, which is what
// keys browse-cache invalidation, and recycles a generation's histogram
// buffers once every pin on it is released. There is no unpinned accessor:
// a reader the store cannot see would make every buffer it might still be
// reading unrecyclable forever.
//
// Implementations must be safe for concurrent use and must return
// estimators that never change after being returned (the live store's
// snapshots are immutable by construction).
type EstimatorSource interface {
	Source
	AcquireEstimator() (core.Estimator, uint64, func())
}

// StaticSource adapts a fixed estimator to the EstimatorSource contract at
// generation 0.
func StaticSource(est core.Estimator) EstimatorSource { return staticSource{est} }

// staticSource answers Grid with its estimator's.
type staticSource struct{ core.Estimator }

func (s staticSource) AcquireEstimator() (core.Estimator, uint64, func()) {
	return s.Estimator, 0, func() {}
}

// Reader is a Source that answers every read itself, in raw estimates the
// Server clamps once, as it encodes them: /api/info, the generation
// /healthz reports (read without touching the data), span batches for
// queries and each drill-down level, and tile maps into buf's storage. A
// read fails with a *RequestError for a request the source refuses,
// answered 400; any other failure is a 502.
type Reader interface {
	Source
	Info() (Info, error)
	Generation() uint64
	EstimateSpans(spans []grid.Span) ([]core.Estimate, error)
	SumGrid(buf []core.Estimate, region grid.Span, cols, rows int) ([]core.Estimate, error)
}

// RequestError is a read a source refuses before doing any work: a span
// outside the grid, or a tiling that does not divide its region. It is the
// client's error, answered 400.
type RequestError struct{ Err error }

func (e *RequestError) Error() string { return e.Err.Error() }
func (e *RequestError) Unwrap() error { return e.Err }

// readStatus is the status of a failed read: 400 for a request the source
// refused, 500 for one that waited on a computation that panicked, 502
// when the source could not answer it.
func readStatus(err error) int {
	var re *RequestError
	switch {
	case errors.As(err, &re):
		return http.StatusBadRequest
	case errors.Is(err, errComputePanicked):
		return http.StatusInternalServerError
	}
	return http.StatusBadGateway
}

// EstimatorInfo describes a dataset served by est at generation gen.
func EstimatorInfo(name string, est core.Estimator, gen uint64) Info {
	g := est.Grid()
	ext := g.Extent()
	return Info{
		Dataset:        name,
		Algorithm:      est.Name(),
		Objects:        est.Count(),
		StorageBuckets: est.StorageBuckets(),
		Extent:         [4]float64{ext.XMin, ext.YMin, ext.XMax, ext.YMax},
		GridNX:         g.NX(),
		GridNY:         g.NY(),
		Generation:     gen,
	}
}

// reading is one request's read of its Server's source: every handler
// reads through one and answers from it alone.
type reading interface {
	Info() (Info, error)
	Generation() uint64
	EstimateSpans(spans []grid.Span) ([]core.Estimate, error)
	// browseMap answers one tile map, sweeping into m's recycled plane, and
	// returns the response body.
	browseMap(m *mapBuffers, span grid.Span, cols, rows int) ([]byte, error)
}

// mapBuffers is everything a browse miss writes — the plane, the tiling's
// edge blocks and the body — kept for the next request once the body is
// written.
type mapBuffers struct {
	plane []core.Estimate
	tiles tileMap
	body  []byte
}

// encode writes the browse response of ests, a cols×rows tiling of span
// over e's grid, into m's body.
func (m *mapBuffers) encode(e *edgeTexts, span grid.Span, cols, rows int, ests []core.Estimate) ([]byte, error) {
	var err error
	m.body, err = m.tiles.appendResponse(m.body[:0], e, span, cols, rows, ests)
	return encoded(m.body, err)
}

// pinned is one request's read of an EstimatorSource: the estimator of one
// generation, held until the handler releases the pin.
type pinned struct {
	s   *Server
	est core.Estimator
	gen uint64
}

func (p *pinned) Info() (Info, error) { return EstimatorInfo(p.s.name, p.est, p.gen), nil }

func (p *pinned) Generation() uint64 { return p.gen }

func (p *pinned) EstimateSpans(spans []grid.Span) ([]core.Estimate, error) {
	return core.EstimateSet(p.est, spans), nil
}

// browseMap plans the map once and reads the plan twice: its level keys
// the cache entry, and it answers the miss into the recycled plane,
// encoding into m. The cache copies what it keeps, so the body returned
// may be m's.
func (p *pinned) browseMap(m *mapBuffers, span grid.Span, cols, rows int) ([]byte, error) {
	s := p.s
	plan, err := core.PlanGrid(p.est, span, cols, rows)
	if err != nil {
		return nil, &RequestError{err}
	}
	return s.cache.Do(browseKey(p.gen, plan.Level, span, cols, rows), func() ([]byte, error) {
		var err error
		if m.plane, err = plan.Estimates(m.plane); err != nil {
			return nil, err
		}
		return m.encode(s.edges, span, cols, rows, m.plane)
	})
}

// uncached reads a Reader as it is.
type uncached struct {
	Reader
	s *Server
}

func (u uncached) browseMap(m *mapBuffers, span grid.Span, cols, rows int) ([]byte, error) {
	var err error
	if m.plane, err = u.SumGrid(m.plane, span, cols, rows); err != nil {
		return nil, err
	}
	return m.encode(u.s.edges, span, cols, rows, m.plane)
}
