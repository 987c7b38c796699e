package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"

	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
)

// The benchmark owns its load. The session machine below is a port of the
// zoom/pan/drill idiom of cmd/loadgen/trace.go, kept here so that later
// changes to loadgen cannot move the benchmark's numbers. Every stream is
// a pure function of (seed, connection index, grid).

type reqKind uint8

const (
	kindBrowse reqKind = iota
	kindQuery
	kindDrill
	kindIngest
	kindDelete
	numKinds
)

var kindNames = [numKinds]string{"browse", "query", "drill", "ingest", "delete"}

// request is one generated operation: its wire form for the HTTP workloads
// and its decoded geometry for the in-process oracle and ladder replay.
type request struct {
	kind   reqKind
	method string
	path   string
	body   []byte

	span       grid.Span // browse, query, drill region in base cells
	cols, rows int       // browse tiling
	hot, depth int       // drill
	rects      []geom.Rect
	flush      bool // mutation published before it is acknowledged
}

func (r *request) tiles() int {
	if r.kind == kindBrowse {
		return r.cols * r.rows
	}
	return 0
}

// generator is an infinite deterministic request stream.
type generator interface{ next() request }

// traceHash fingerprints the first n requests of each stream with fnv64a:
// the witness that two runs were driven by identical load.
func traceHash(gens []generator, n int) uint64 {
	h := fnv.New64a()
	for w, g := range gens {
		for k := 0; k < n; k++ {
			r := g.next()
			fmt.Fprintf(h, "%d %s %s %s\n", w, r.method, r.path, r.body)
		}
	}
	return h.Sum64()
}

func regionParams(g *grid.Grid, s grid.Span) string {
	r := g.SpanRect(s)
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return "x1=" + f(r.XMin) + "&y1=" + f(r.YMin) + "&x2=" + f(r.XMax) + "&y2=" + f(r.YMax)
}

func browseRequest(g *grid.Grid, s grid.Span, cols, rows int) request {
	return request{kind: kindBrowse, method: "GET", span: s, cols: cols, rows: rows,
		path: "/api/browse?" + regionParams(g, s) + "&cols=" + strconv.Itoa(cols) + "&rows=" + strconv.Itoa(rows)}
}

func queryRequest(g *grid.Grid, s grid.Span) request {
	return request{kind: kindQuery, method: "GET", span: s, path: "/api/query?" + regionParams(g, s)}
}

func drillRequest(g *grid.Grid, s grid.Span, hot, depth int) request {
	return request{kind: kindDrill, method: "GET", span: s, hot: hot, depth: depth,
		path: "/api/drill?" + regionParams(g, s) + "&relation=overlap&hot=" + strconv.Itoa(hot) + "&depth=" + strconv.Itoa(depth)}
}

// sessionGen is one user's browse session: a state machine over a viewport
// that zooms toward a Zipf-ranked hotspot, pans, drills, hovers a tile, or
// abandons the region. Hotspots are shared by all connections of a run.
type sessionGen struct {
	g        *grid.Grid
	rng      *rand.Rand
	zipf     *rand.Zipf
	hotspots [][2]int

	viewport   grid.Span
	cols, rows int
	focus      [2]int
}

const (
	sessionHotspots = 16
	sessionZipfS    = 1.4
	// sessionMaxCols × sessionMaxRows is the UI's default tile map.
	sessionMaxCols = 36
	sessionMaxRows = 18
)

func newSessionGen(seed int64, conn int, g *grid.Grid) *sessionGen {
	hrng := rand.New(rand.NewSource(seed))
	hotspots := make([][2]int, sessionHotspots)
	for i := range hotspots {
		hotspots[i] = [2]int{hrng.Intn(g.NX()), hrng.Intn(g.NY())}
	}
	rng := rand.New(rand.NewSource(seed ^ (int64(conn)+1)*0x1E3779B97F4A7C15))
	s := &sessionGen{
		g:        g,
		rng:      rng,
		zipf:     rand.NewZipf(rng, sessionZipfS, 1, sessionHotspots-1),
		hotspots: hotspots,
	}
	s.reset()
	return s
}

func (s *sessionGen) reset() {
	s.viewport = grid.Span{I1: 0, J1: 0, I2: s.g.NX() - 1, J2: s.g.NY() - 1}
	s.cols = largestDivisorAtMost(s.g.NX(), sessionMaxCols)
	s.rows = largestDivisorAtMost(s.g.NY(), sessionMaxRows)
	s.focus = s.hotspots[s.zipf.Uint64()]
}

func largestDivisorAtMost(n, max int) int {
	for d := max; d > 1; d-- {
		if n%d == 0 {
			return d
		}
	}
	return 1
}

func (s *sessionGen) next() request {
	switch x := s.rng.Float64(); {
	case x < 0.30:
		s.zoom(true)
	case x < 0.60:
		s.pan()
	case x < 0.70:
		s.zoom(false)
	case x < 0.80:
		return drillRequest(s.g, s.viewport, 1+s.rng.Intn(64), 2+s.rng.Intn(3))
	case x < 0.90:
		return s.hover()
	default:
		s.reset()
	}
	return browseRequest(s.g, s.viewport, s.cols, s.rows)
}

// zoom halves or doubles the viewport around the focus, clamped to the grid
// and kept an exact multiple of the tiling; integer cell math throughout.
func (s *sessionGen) zoom(in bool) {
	nx, ny := s.g.NX(), s.g.NY()
	w, h := s.viewport.Width(), s.viewport.Height()
	if in {
		w, h = w/2, h/2
	} else {
		w, h = w*2, h*2
	}
	w = clampInt(roundToMultiple(w, s.cols), s.cols, nx-nx%s.cols)
	h = clampInt(roundToMultiple(h, s.rows), s.rows, ny-ny%s.rows)
	i1 := clampInt(s.focus[0]-w/2, 0, nx-w)
	j1 := clampInt(s.focus[1]-h/2, 0, ny-h)
	s.viewport = grid.Span{I1: i1, J1: j1, I2: i1 + w - 1, J2: j1 + h - 1}
}

// pan shifts the viewport by one tile in a random direction.
func (s *sessionGen) pan() {
	w, h := s.viewport.Width(), s.viewport.Height()
	di := (s.rng.Intn(3) - 1) * (w / s.cols)
	dj := (s.rng.Intn(3) - 1) * (h / s.rows)
	i1 := clampInt(s.viewport.I1+di, 0, s.g.NX()-w)
	j1 := clampInt(s.viewport.J1+dj, 0, s.g.NY()-h)
	s.viewport = grid.Span{I1: i1, J1: j1, I2: i1 + w - 1, J2: j1 + h - 1}
}

// hover estimates one tile of the current viewport.
func (s *sessionGen) hover() request {
	tw, th := s.viewport.Width()/s.cols, s.viewport.Height()/s.rows
	i1 := s.viewport.I1 + s.rng.Intn(s.cols)*tw
	j1 := s.viewport.J1 + s.rng.Intn(s.rows)*th
	return queryRequest(s.g, grid.Span{I1: i1, J1: j1, I2: i1 + tw - 1, J2: j1 + th - 1})
}

// regionGen streams large tile maps over regions that practically never
// repeat, so a response cache cannot help: half of them pyramid-aligned
// (origin and tile size multiples of 2^k, k >= 1, which a zoom stack serves
// from a coarse level), half unaligned (odd tile size or origin, always the
// base level). One request in ten is a single-tile /api/query.
type regionGen struct {
	g                  *grid.Grid
	rng                *rand.Rand
	minTiles, maxTiles int
	n, maps            int
}

func newRegionGen(seed int64, conn int, g *grid.Grid, minTiles, maxTiles int) *regionGen {
	return &regionGen{
		g:        g,
		rng:      rand.New(rand.NewSource(seed ^ 0x5EED ^ (int64(conn)+1)*0x2545F4914F6CDD1D)),
		minTiles: minTiles, maxTiles: maxTiles,
	}
}

func (r *regionGen) next() request {
	r.n++
	nx, ny := r.g.NX(), r.g.NY()
	if r.n%10 == 0 {
		w, h := 1+r.rng.Intn(nx/8), 1+r.rng.Intn(ny/8)
		i1, j1 := r.rng.Intn(nx-w+1), r.rng.Intn(ny-h+1)
		return queryRequest(r.g, grid.Span{I1: i1, J1: j1, I2: i1 + w - 1, J2: j1 + h - 1})
	}
	r.maps++
	aligned := r.maps%2 == 0
	for {
		// Tile size first: it fixes how many tiles fit on each axis.
		var tw, th, step int
		if aligned {
			step = 2 << r.rng.Intn(3) // 2, 4 or 8 cells
			tw, th = step, step
		} else {
			step = 1
			tw, th = 1+2*r.rng.Intn(2), 1+2*r.rng.Intn(2) // 1 or 3 cells
		}
		maxCols, maxRows := nx/tw, ny/th
		if maxCols*maxRows < r.minTiles {
			continue
		}
		cols := 1 + r.rng.Intn(maxCols)
		rows := 1 + r.rng.Intn(maxRows)
		if t := cols * rows; t < r.minTiles || t > r.maxTiles {
			continue
		}
		w, h := cols*tw, rows*th
		i1 := r.rng.Intn((nx-w)/step+1) * step
		j1 := r.rng.Intn((ny-h)/step+1) * step
		return browseRequest(r.g, grid.Span{I1: i1, J1: j1, I2: i1 + w - 1, J2: j1 + h - 1}, cols, rows)
	}
}

// ingestGen is a localized feed: batches of ingestBatch small rectangles
// around a slowly drifting focus. Four insert batches are followed by one
// delete batch that removes the first batch of its group, so every delete
// names objects that are present (80 % inserts, 20 % deletes) and none is
// rejected. Every 20th batch asks for its mutations to be published before
// the acknowledgement (flush=1).
type ingestGen struct {
	g      *grid.Grid
	rng    *rand.Rand
	fi, fj int
	n      int
	group  []geom.Rect // first insert batch of the current group of five
}

const (
	ingestBatch      = 50
	ingestFlushEvery = 20
)

func newIngestGen(seed int64, g *grid.Grid) *ingestGen {
	rng := rand.New(rand.NewSource(seed ^ 0x1005))
	return &ingestGen{g: g, rng: rng, fi: rng.Intn(g.NX()), fj: rng.Intn(g.NY())}
}

func (s *ingestGen) next() request {
	k := s.n
	s.n++
	req := request{kind: kindIngest, method: "POST", path: "/api/ingest", flush: s.n%ingestFlushEvery == 0}
	if k%5 == 4 {
		req.kind, req.path, req.rects = kindDelete, "/api/delete", s.group
	} else {
		req.rects = s.batch()
		if k%5 == 0 {
			s.group = req.rects
		}
	}
	if req.flush {
		req.path += "?flush=1"
	}
	var b strings.Builder
	b.WriteString(`{"rects":[`)
	for i, r := range req.rects {
		if i > 0 {
			b.WriteByte(',')
		}
		for c, v := range [4]float64{r.XMin, r.YMin, r.XMax, r.YMax} {
			if c == 0 {
				b.WriteByte('[')
			} else {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		b.WriteByte(']')
	}
	b.WriteString(`]}`)
	req.body = []byte(b.String())
	return req
}

// batch draws ingestBatch rectangles of 1–4 cells within 12 cells of the
// focus, then lets the focus drift by at most 3 cells.
func (s *ingestGen) batch() []geom.Rect {
	nx, ny := s.g.NX(), s.g.NY()
	cw, ch := s.g.CellWidth(), s.g.CellHeight()
	ext := s.g.Extent()
	rects := make([]geom.Rect, ingestBatch)
	for k := range rects {
		i := clampInt(s.fi+s.rng.Intn(25)-12, 0, nx-1)
		j := clampInt(s.fj+s.rng.Intn(25)-12, 0, ny-1)
		// Strictly inside cell boundaries: the object snaps to the same
		// cells whatever the floating-point rounding of the edges.
		x1 := ext.XMin + (float64(i)+0.25)*cw
		y1 := ext.YMin + (float64(j)+0.25)*ch
		x2 := min(x1+float64(s.rng.Intn(4))*cw+0.5*cw, ext.XMax-0.25*cw)
		y2 := min(y1+float64(s.rng.Intn(4))*ch+0.5*ch, ext.YMax-0.25*ch)
		rects[k] = geom.NewRect(x1, y1, x2, y2)
	}
	s.fi = clampInt(s.fi+s.rng.Intn(7)-3, 0, nx-1)
	s.fj = clampInt(s.fj+s.rng.Intn(7)-3, 0, ny-1)
	return rects
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// roundToMultiple rounds v down to a multiple of m (at least m).
func roundToMultiple(v, m int) int {
	if v < m {
		return m
	}
	return v / m * m
}
