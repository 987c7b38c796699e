// Package spatialhist implements the Euler-histogram machinery of Sun,
// Agrawal and El Abbadi, "Exploring Spatial Datasets with Histograms"
// (ICDE 2002): constant-time, storage-efficient estimation of Level 2
// spatial relation counts — how many objects of a dataset are disjoint
// from, contained in, containing, or overlapping a query rectangle — at a
// configurable grid resolution.
//
// The intended use is spatial dataset browsing: a user selects a region,
// grids it into tiles, and every tile is answered as a COUNT query over
// the relations, letting the user see where the data is before running any
// real queries. The same machinery serves as a Level 2 selectivity
// estimator for query optimizers.
//
// # Quick start
//
//	g := spatialhist.NewUnitGrid(360, 180)            // 1°×1° world grid
//	s := spatialhist.NewSEuler(g, rects)              // summarize the MBRs
//	est, err := s.Query(spatialhist.NewRect(10, 20, 20, 30))
//	// est.Contains = objects inside the query, est.Overlap = partial, ...
//
// Three estimators are provided, all sharing the identical exact machinery
// for disjoint/intersect and differing in how they attribute the
// intersecting objects among contains/contained/overlap:
//
//   - NewSEuler (S-EulerApprox): assumes no object contains the query.
//     Near-exact for datasets of small objects.
//   - NewEuler (EulerApprox): additionally estimates the number of objects
//     containing the query by offsetting the loophole effect.
//   - NewMEuler (M-EulerApprox): several histograms partitioned by object
//     area; the most accurate option when object sizes vary widely. Use
//     Tune to pick the area thresholds for a target error.
//
// All estimates are computed from histograms of (2nx−1)(2ny−1) buckets —
// no access to the original objects — in constant time per query.
package spatialhist

import (
	"fmt"

	"spatialhist/internal/core"
	"spatialhist/internal/euler"
	"spatialhist/internal/exact"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/query"
)

// Re-exported geometry types. Rect is the MBR representation of every
// spatial object; see NewRect.
type (
	// Rect is an axis-aligned rectangle [XMin,XMax]×[YMin,YMax].
	Rect = geom.Rect
	// Point is a location in the data space.
	Point = geom.Point
	// Relation is a Level 2 spatial relation under the interior–exterior
	// intersection model.
	Relation = geom.Rel2
	// Counts tallies exact per-relation object counts for one query.
	Counts = geom.Rel2Counts
	// Estimate holds estimated per-relation object counts for one query.
	// Fields can be negative when an algorithm's assumptions are violated;
	// use Clamped for display.
	Estimate = core.Estimate
	// Grid is an equi-width gridding of the data space fixing the
	// resolution at which queries are answered.
	Grid = grid.Grid
	// Span is a query or object expressed as an inclusive range of grid
	// cells.
	Span = grid.Span
)

// The five Level 2 relations. Contains and Contained are query-centric:
// RelationContains counts objects contained in the query.
const (
	RelationDisjoint  = geom.Rel2Disjoint
	RelationContains  = geom.Rel2Contains
	RelationContained = geom.Rel2Contained
	RelationEquals    = geom.Rel2Equals
	RelationOverlap   = geom.Rel2Overlap
)

// NewRect returns the rectangle with the given bounds, normalizing
// coordinate order.
func NewRect(x1, y1, x2, y2 float64) Rect { return geom.NewRect(x1, y1, x2, y2) }

// NewGrid grids extent into nx×ny equal cells.
func NewGrid(extent Rect, nx, ny int) *Grid { return grid.New(extent, nx, ny) }

// NewUnitGrid grids the [0,w]×[0,h] space at 1×1 resolution, the paper's
// standard configuration with w=360, h=180.
func NewUnitGrid(w, h int) *Grid { return grid.NewUnit(w, h) }

// Level2 classifies the exact Level 2 relation between a query and an
// object rectangle (boundary-insensitive; degenerate objects are treated
// as infinitesimally extended).
func Level2(query, object Rect) Relation { return geom.Level2Browse(query, object) }

// Summary is a queryable spatial-relation summary of a dataset: one of the
// paper's three estimators behind a uniform API. Summaries are immutable
// and safe for concurrent queries.
type Summary struct {
	est core.Estimator
	g   *Grid
}

// NewSEuler summarizes the MBRs with the S-EulerApprox algorithm (§5.2).
func NewSEuler(g *Grid, rects []Rect) *Summary {
	return &Summary{est: core.SEulerFromRects(g, rects), g: g}
}

// NewEuler summarizes the MBRs with the EulerApprox algorithm (§5.3).
func NewEuler(g *Grid, rects []Rect) *Summary {
	return &Summary{est: core.EulerFromRects(g, rects), g: g}
}

// NewMEuler summarizes the MBRs with the M-EulerApprox algorithm (§5.4).
// areas lists the per-histogram area thresholds in unit cells, ascending,
// starting at 1 — e.g. {1, 9, 100} for histograms splitting at 3×3-cell
// and 10×10-cell objects.
func NewMEuler(g *Grid, areas []float64, rects []Rect) (*Summary, error) {
	m, err := core.NewMEuler(g, areas, rects)
	if err != nil {
		return nil, err
	}
	return &Summary{est: m, g: g}, nil
}

// FromHistogram wraps a prebuilt Euler histogram with the EulerApprox
// query logic; use it when the histogram is built incrementally via
// Builder.
func FromHistogram(h *euler.Histogram) *Summary {
	return &Summary{est: core.NewEuler(h), g: h.Grid()}
}

// Algorithm returns the wrapped algorithm's name.
func (s *Summary) Algorithm() string { return s.est.Name() }

// Estimator exposes the wrapped core estimator for in-module plumbing
// (e.g. handing a loaded summary to the geobrowse HTTP server). External
// modules cannot name the returned type but can pass it along.
func (s *Summary) Estimator() core.Estimator { return s.est }

// SummaryOf wraps an existing core estimator (one of the three algorithms,
// or a zoom stack of one, which saves as its base level) as a Summary, e.g.
// to Save it. It rejects estimator types the Summary API cannot persist.
func SummaryOf(est core.Estimator) (*Summary, error) {
	if _, _, ok := core.SpecOf(est); !ok {
		return nil, fmt.Errorf("spatialhist: unsupported estimator %T", est)
	}
	return &Summary{est: est, g: est.Grid()}, nil
}

// Grid returns the resolution the summary answers queries at.
func (s *Summary) Grid() *Grid { return s.g }

// Count returns the number of summarized objects.
func (s *Summary) Count() int64 { return s.est.Count() }

// StorageBuckets returns the number of histogram values kept.
func (s *Summary) StorageBuckets() int { return s.est.StorageBuckets() }

// Query estimates the Level 2 relation counts for a grid-aligned query
// rectangle. Non-aligned rectangles are rejected: estimates are defined at
// the summary's resolution (§3 of the paper).
func (s *Summary) Query(q Rect) (Estimate, error) {
	span, err := s.g.AlignedSpan(q, 1e-9)
	if err != nil {
		return Estimate{}, err
	}
	return s.est.Estimate(span), nil
}

// QuerySpan estimates the Level 2 relation counts for a query given
// directly as a cell span.
func (s *Summary) QuerySpan(q Span) Estimate { return s.est.Estimate(q) }

// Browse answers a browsing query: region is gridded into cols×rows tiles
// (row-major from the south-west corner) and every tile is estimated. The
// region must be grid-aligned and evenly tileable.
//
// The whole tile map is answered through the batch path — one sweep over
// the cumulative lattice per histogram instead of per-tile lookups — with
// results identical to estimating each tile individually.
func (s *Summary) Browse(region Rect, cols, rows int) ([]Estimate, error) {
	span, err := s.g.AlignedSpan(region, 1e-9)
	if err != nil {
		return nil, err
	}
	return core.EstimateGrid(s.est, span, cols, rows)
}

// Builder incrementally constructs an Euler histogram; see FromHistogram.
type Builder = euler.Builder

// NewBuilder returns a Builder over g.
func NewBuilder(g *Grid) *Builder { return euler.NewBuilder(g) }

// Exact computes the exact Level 2 relation counts of a dataset for one
// grid-aligned query — the ground truth the estimators approximate. It is
// O(len(rects)) per call; for exact answers to many queries over a static
// dataset, snap once and reuse, or use an R-tree.
func Exact(g *Grid, rects []Rect, q Rect) (Counts, error) {
	span, err := g.AlignedSpan(q, 1e-9)
	if err != nil {
		return Counts{}, err
	}
	return exact.EvaluateQuery(exact.Spans(g, rects), span), nil
}

// TuneOptions configures Tune; see core.TuneOptions for field docs.
type TuneOptions = core.TuneOptions

// Tune runs the paper's pragmatic procedure (§6.4) for choosing
// M-EulerApprox area thresholds against a target contains-estimate error,
// evaluated on Q_n-style tilings of the whole space for the given tile
// sizes. It returns the thresholds to pass to NewMEuler.
func Tune(g *Grid, rects []Rect, tileSizes []int, opts TuneOptions) ([]float64, error) {
	sets := make([]*query.Set, 0, len(tileSizes))
	for _, n := range tileSizes {
		qs, err := query.QN(g, n)
		if err != nil {
			return nil, fmt.Errorf("spatialhist: tile size %d: %w", n, err)
		}
		sets = append(sets, qs)
	}
	res, err := core.TuneAreas(g, rects, sets, opts)
	if err != nil {
		return nil, err
	}
	return res.Areas, nil
}

// GroupDetail is the per-group breakdown of one M-EulerApprox estimate;
// see QueryDetail.
type GroupDetail = core.GroupDetail

// QueryDetail estimates like Query and, for M-EulerApprox summaries, also
// returns the per-area-group breakdown: groups answered by a sound
// algorithm versus groups that needed the EulerApprox heuristic — a
// confidence signal for browsing clients. Details are nil for the
// single-histogram algorithms.
func (s *Summary) QueryDetail(q Rect) (Estimate, []GroupDetail, error) {
	span, err := s.g.AlignedSpan(q, 1e-9)
	if err != nil {
		return Estimate{}, nil, err
	}
	if m, ok := s.est.(*core.MEuler); ok {
		est, details := m.EstimateDetail(span)
		return est, details, nil
	}
	return s.est.Estimate(span), nil, nil
}

// QueryNearest answers an arbitrary (possibly unaligned) query rectangle by
// evaluating the smallest grid-aligned span covering it. The returned span
// tells the caller what was actually answered; coverage is the ratio of
// the query's area to the evaluated span's area (1 for aligned queries),
// a direct measure of how far the answer is from the asked question.
//
// This is the pragmatic interface for callers whose rectangles do not come
// from a tile grid (ad-hoc selectivity probes, user-drawn regions): the
// counts are exact-at-resolution for the covering span and, by
// monotonicity of intersect counts, upper-bound the query's intersecting
// objects. Queries outside the data space are clipped to it; a query with
// no overlap at all is rejected.
func (s *Summary) QueryNearest(q Rect) (est Estimate, answered Span, coverage float64, err error) {
	if !q.Valid() || q.Degenerate() {
		return Estimate{}, Span{}, 0, fmt.Errorf("spatialhist: invalid query rectangle %v", q)
	}
	clipped, ok := q.Clip(s.g.Extent())
	if !ok || clipped.Degenerate() {
		return Estimate{}, Span{}, 0, fmt.Errorf("spatialhist: query %v outside the data space", q)
	}
	span, ok := s.g.Snap(clipped)
	if !ok {
		return Estimate{}, Span{}, 0, fmt.Errorf("spatialhist: query %v outside the data space", q)
	}
	answeredRect := s.g.SpanRect(span)
	return s.est.Estimate(span), span, clipped.Area() / answeredRect.Area(), nil
}
