package geobrowse

import (
	"net/http"

	"spatialhist/internal/core"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
)

// DrillResponse is the /api/drill response: leaf tiles of an adaptive
// refinement, depth-first from the south-west.
type DrillResponse struct {
	Relation string      `json:"relation"`
	Tiles    []DrillTile `json:"tiles"`
}

// DrillTile is one leaf of a drill-down.
type DrillTile struct {
	TileEstimate
	Depth int `json:"depth"`
}

// DrillMaxTiles bounds the leaves of one drill response; exported so a
// coordinator front-end applies the identical cap.
const DrillMaxTiles = 50_000

// drillMaxDepth bounds the depth parameter.
const drillMaxDepth = 16

// ParseDrillRequest reads the region, relation, hot threshold and depth
// parameters of a drill request against g — exported for front-ends (the
// shard coordinator) that must accept exactly the requests a Server
// accepts.
func ParseDrillRequest(g *grid.Grid, r *http.Request) (span grid.Span, rel geom.Rel2, hot, depth int, err error) {
	if span, err = ParseRegionRequest(g, r); err != nil {
		return grid.Span{}, 0, 0, 0, err
	}
	if rel, err = parseRelation(r.URL.Query().Get("relation")); err != nil {
		return grid.Span{}, 0, 0, 0, err
	}
	if hot, err = posIntParam(r, "hot", unboundedParam); err != nil {
		return grid.Span{}, 0, 0, 0, err
	}
	if depth, err = posIntParam(r, "depth", drillMaxDepth); err != nil {
		return grid.Span{}, 0, 0, 0, err
	}
	return span, rel, hot, depth, nil
}

// handleDrill serves GET /api/drill?x1=&y1=&x2=&y2=&relation=&hot=&depth=:
// adaptive refinement of the region, splitting only tiles whose count for
// the relation reaches the hot threshold.
func (s *Server) handleDrill(w http.ResponseWriter, r *http.Request) {
	span, rel, hot, depth, err := ParseDrillRequest(s.g, r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	est, _, release := s.src.AcquireEstimator()
	defer release()
	leaves, err := core.Drilldown(est, span, core.DrillOptions{
		Relation:     rel,
		HotThreshold: int64(hot),
		MaxDepth:     depth,
		MaxTiles:     DrillMaxTiles,
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	data, err := AppendDrillResponse(nil, s.g, rel, leaves)
	writeEncoded(w, data, err)
	s.warmFromDrill(span, depth)
}

// warmFromDrill asynchronously pre-populates the browse cache entry for
// the even tile map a drill over this region implies: a client that
// drilled to depth d typically follows with a browse of the same region at
// the matching granularity, and that map's level-keyed cache entry can be
// computed while the drill response is still being read.
func (s *Server) warmFromDrill(span grid.Span, depth int) {
	cols, rows, ok := warmTiling(span, depth)
	if !ok {
		return
	}
	s.warmWG.Add(1)
	go func() {
		defer s.warmWG.Done()
		// A fresh pin: the drill request's pin is released when its handler
		// returns, which may be before the warmer finishes. Warming against
		// whatever generation is current is exactly right — that is the one
		// the follow-up browse will hit.
		est, gen, release := s.src.AcquireEstimator()
		defer release()
		if _, err := s.browseBytes(est, gen, span, cols, rows); err == nil {
			s.warms.Inc()
		}
	}()
}

// warmTiling picks the browse tiling a drill to depth implies: per axis,
// the largest power of two that both divides the span evenly (browse
// tilings must be exact) and stays within the drill's splitting depth.
// Maps smaller than 2×2 warm nothing worth caching, and the product is
// bounded the same way ParseBrowseRequest bounds requested tilings.
func warmTiling(span grid.Span, depth int) (cols, rows int, ok bool) {
	cols = pow2Divisor(span.Width(), depth+1)
	rows = pow2Divisor(span.Height(), depth+1)
	if cols*rows < 4 || cols*rows > maxTiles {
		return 0, 0, false
	}
	return cols, rows, true
}

// pow2Divisor returns the largest power of two ≤ 2^maxExp dividing n.
func pow2Divisor(n, maxExp int) int {
	d := 1
	for e := 0; e < maxExp && n%(d*2) == 0; e++ {
		d *= 2
	}
	return d
}

func parseRelation(arg string) (geom.Rel2, error) {
	switch arg {
	case "contains":
		return geom.Rel2Contains, nil
	case "contained":
		return geom.Rel2Contained, nil
	case "overlap":
		return geom.Rel2Overlap, nil
	case "disjoint":
		return geom.Rel2Disjoint, nil
	}
	return 0, &badRelationError{arg}
}

type badRelationError struct{ arg string }

func (e *badRelationError) Error() string {
	return "parameter \"relation\" must be one of contains, contained, overlap, disjoint; got \"" + e.arg + "\""
}
