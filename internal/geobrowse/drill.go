package geobrowse

import (
	"net/http"
	"net/url"

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

// DrillMaxTiles bounds the leaves of one drill response.
const DrillMaxTiles = 50_000

// drillMaxDepth bounds the depth parameter.
const drillMaxDepth = 16

// parseDrillRequest reads the region, relation, hot threshold and depth
// parameters of a drill request against g.
func parseDrillRequest(g *grid.Grid, q url.Values) (span grid.Span, rel geom.Rel2, hot, depth int, err error) {
	if span, err = parseRegionRequest(g, q); err != nil {
		return grid.Span{}, 0, 0, 0, err
	}
	if rel, err = parseRelation(q.Get("relation")); err != nil {
		return grid.Span{}, 0, 0, 0, err
	}
	if hot, err = posIntParam(q, "hot", unboundedParam); err != nil {
		return grid.Span{}, 0, 0, 0, err
	}
	if depth, err = posIntParam(q, "depth", drillMaxDepth); err != nil {
		return grid.Span{}, 0, 0, 0, err
	}
	return span, rel, hot, depth, nil
}

// handleDrill serves GET /api/drill?x1=&y1=&x2=&y2=&relation=&hot=&depth=:
// adaptive refinement of the region, splitting only tiles whose count for
// the relation reaches the hot threshold. Each depth level is one span
// batch of the request's one read, so a drill sees one generation.
func (s *Server) handleDrill(w http.ResponseWriter, r *http.Request) {
	span, rel, hot, depth, err := parseDrillRequest(s.g, r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rd, release := s.read()
	defer release()
	var readErr error
	leaves, err := core.DrilldownBatch(func(spans []grid.Span) ([]core.Estimate, error) {
		ests, err := rd.EstimateSpans(spans)
		readErr = err
		return ests, err
	}, span, core.DrillOptions{
		Relation:     rel,
		HotThreshold: int64(hot),
		MaxDepth:     depth,
		MaxTiles:     DrillMaxTiles,
	})
	var data []byte
	switch {
	case err != nil && readErr == nil:
		err = &RequestError{err} // a drill the request itself made too large
	case err == nil:
		data, err = encoded(AppendDrillResponse(nil, s.g, rel, leaves))
	}
	writeRead(w, data, err)
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
