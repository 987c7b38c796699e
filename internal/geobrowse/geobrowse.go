// Package geobrowse implements a small HTTP version of the GeoBrowsing
// service of §1: clients select a region of a spatial dataset, grid it
// into tiles, and receive per-tile Level 2 relation counts estimated from
// the dataset's Euler histograms — the "hundreds of trial queries with a
// single click" interaction, without touching the actual objects.
//
// One constructor, New, builds the front of every serving mode over
// a Source; its doc lists the endpoints. Query parameters are
// x1,y1,x2,y2 for a region, plus cols,rows for a browse map and
// relation,hot,depth for a drill-down. All coordinates must align with the
// summary's grid resolution, matching the paper's queries-at-resolution
// model; misaligned requests get 400s.
//
// Browse requests take the batch estimation path: the whole tile map is
// planned once and answered in one sweep per histogram (core.PlanGrid,
// Plan.Estimates) on the request's goroutine, and responses are cached
// in a small LRU with single-flight deduplication so identical concurrent
// requests are computed once.
package geobrowse

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"

	"spatialhist/internal/core"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/live"
	"spatialhist/internal/telemetry"
)

// logf reports server-side I/O and encoding problems; a variable so tests
// can capture it.
var logf = log.Printf

// maxTiles bounds one browse response; it doubles as the individual bound
// on cols and rows so their product cannot overflow before the check.
const maxTiles = 100_000

// Options tunes a Server's serving machinery.
type Options struct {
	// CacheSize bounds the browse-response LRU: at most CacheSize entries,
	// each a body of at most 128 KiB (a larger one is served, not stored).
	// 0 means the default, 64; negative disables storage while keeping
	// single-flight deduplication of concurrent identical requests.
	CacheSize int
	// Telemetry receives the server's runtime metrics and backs its
	// /metrics endpoint. nil means telemetry.Default().
	Telemetry *telemetry.Registry
	// AccessLog, when non-nil, receives one structured JSON line per API
	// request (endpoint, status, bytes, duration).
	AccessLog io.Writer
	// Limiter applies admission control to the browse-path endpoints
	// (query, browse, drill): bounded concurrency, bounded wait,
	// 429 load-shedding. nil admits everything.
	Limiter *Limiter
}

func (o Options) withDefaults() Options {
	if o.CacheSize == 0 {
		o.CacheSize = 64
	}
	if o.CacheSize < 0 {
		o.CacheSize = 0
	}
	if o.Telemetry == nil {
		o.Telemetry = telemetry.Default()
	}
	return o
}

// accessLogger builds the optional request logger.
func (o Options) accessLogger() *telemetry.Logger {
	if o.AccessLog == nil {
		return nil
	}
	return telemetry.NewLogger(o.AccessLog)
}

// Server answers browsing queries over one dataset. Every front — a fixed
// summary, a live store, a shard coordinator — is one, built by New.
type Server struct {
	name    string
	g       *grid.Grid // constant across generations
	edges   *edgeTexts // g's edges, formatted once for every browse map
	read    func() (reading, func())
	mux     *http.ServeMux
	metrics *httpMetrics
	cache   *browseCache     // nil for a Reader: it pins no generation
	maps    chan *mapBuffers // idle map buffers, kept across GCs
	limiter *Limiter
	drain   atomic.Bool
}

// NewServerOpts is New over a fixed estimator; benchmark/layers.go builds
// its summary fronts with it.
func NewServerOpts(name string, est core.Estimator, opts Options) *Server {
	return New(name, StaticSource(est), opts)
}

// New creates the Server for a named dataset read from src (see Source):
//
//	GET  /                 minimal built-in heat-map client
//	GET  /api/info         dataset and summary metadata
//	GET  /api/query        one estimate
//	GET  /api/browse       tiled estimates
//	GET  /api/drill        adaptive refinement
//	GET  /healthz          readiness: 503 while draining
//	GET  /metrics          the telemetry registry's exposition
//	POST /api/ingest       inserts, when src is a Mutator
//	POST /api/delete       deletes, when src is a Mutator
//	GET  /api/store/status store status, when src has Status() live.Status
//
// It is the one place a mux is made and wired: every route, and every one
// mounted later with Handle, runs behind the same request metrics and
// access log; query, browse and drill also wait for admission.
func New(name string, src Source, opts Options) *Server {
	opts = opts.withDefaults()
	g := src.Grid()
	s := &Server{
		name:    name,
		g:       g,
		edges:   newEdgeTexts(g),
		mux:     http.NewServeMux(),
		metrics: &httpMetrics{reg: opts.Telemetry, access: opts.accessLogger()},
		limiter: opts.Limiter,
		// One idle set per P: misses sweep and encode on their request's
		// goroutine, so more than GOMAXPROCS of them rarely run at once,
		// and a set is a plane and a body of up to ≈ 2 MB each.
		maps: make(chan *mapBuffers, runtime.GOMAXPROCS(0)),
	}
	switch src := src.(type) {
	case EstimatorSource:
		s.cache = newBrowseCache(opts.CacheSize, opts.Telemetry)
		s.read = func() (reading, func()) {
			est, gen, release := src.AcquireEstimator()
			return &pinned{s: s, est: est, gen: gen}, release
		}
	case Reader:
		rd := reading(uncached{Reader: src, s: s})
		s.read = func() (reading, func()) { return rd, func() {} }
	default:
		panic(fmt.Sprintf("geobrowse: %T is neither an EstimatorSource nor a Reader", src))
	}
	s.Handle("GET /api/info", s.handleInfo)
	s.Handle("GET /api/query", s.admit(s.handleQuery))
	s.Handle("GET /api/browse", s.admit(s.handleBrowse))
	s.Handle("GET /api/drill", s.admit(s.handleDrill))
	s.Handle("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /{$}", s.metrics.wrap("/", s.handleIndex))
	s.mux.Handle("GET /metrics", opts.Telemetry.Handler())
	if m, ok := src.(Mutator); ok {
		s.Handle("POST /api/ingest", mutationHandler(m, live.OpInsert))
		s.Handle("POST /api/delete", mutationHandler(m, live.OpDelete))
	}
	if st, ok := src.(interface{ Status() live.Status }); ok {
		s.Handle("GET /api/store/status", func(w http.ResponseWriter, r *http.Request) { WriteJSON(w, st.Status()) })
	}
	return s
}

// Handle mounts h at pattern ("METHOD /path") behind the server's request
// metrics and access log, labelled with the pattern's path — the one way
// anything is added to a Server's routes.
func (s *Server) Handle(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, s.metrics.wrap(pattern[strings.IndexByte(pattern, ' ')+1:], h))
}

// admit applies the server's admission limiter to one browse-path
// handler: the request runs with a slot held, or is shed with 429 and a
// Retry-After hint. A nil limiter admits everything.
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	if s.limiter == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		release, err := s.limiter.Acquire(r.Context())
		if err != nil {
			w.Header().Set("Retry-After", "1")
			http.Error(w, err.Error(), http.StatusTooManyRequests)
			return
		}
		defer release()
		h(w, r)
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// CacheStats reports browse-cache hits (served from memory or a shared
// in-flight computation) and misses (computed); a server with no cache
// reports none.
func (s *Server) CacheStats() (hits, misses int64) {
	if s.cache == nil {
		return 0, 0
	}
	return s.cache.Stats()
}

// CacheBytes reports the bytes of response bodies the browse cache holds.
func (s *Server) CacheBytes() int64 {
	if s.cache == nil {
		return 0
	}
	return s.cache.Bytes()
}

// Info is the /api/info response.
type Info struct {
	Dataset        string     `json:"dataset"`
	Algorithm      string     `json:"algorithm"`
	Objects        int64      `json:"objects"`
	StorageBuckets int        `json:"storageBuckets"`
	Extent         [4]float64 `json:"extent"` // x1,y1,x2,y2
	GridNX         int        `json:"gridNX"`
	GridNY         int        `json:"gridNY"`
	Generation     uint64     `json:"generation"` // 0 for fixed summaries
}

// TileEstimate is one tile of a /api/browse response.
type TileEstimate struct {
	Rect      [4]float64 `json:"rect"`
	Disjoint  int64      `json:"disjoint"`
	Contains  int64      `json:"contains"`
	Contained int64      `json:"contained"`
	Overlap   int64      `json:"overlap"`
}

// BrowseResponse is the /api/browse response.
type BrowseResponse struct {
	Cols  int            `json:"cols"`
	Rows  int            `json:"rows"`
	Tiles []TileEstimate `json:"tiles"` // row-major from the south-west
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	rd, release := s.read()
	defer release()
	info, err := rd.Info()
	if err != nil {
		http.Error(w, err.Error(), readStatus(err))
		return
	}
	WriteJSON(w, info)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	span, err := parseRegionRequest(s.g, r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rd, release := s.read()
	defer release()
	ests, err := rd.EstimateSpans([]grid.Span{span})
	var data []byte
	if err == nil {
		data, err = encoded(AppendTile(nil, s.g, span, ests[0]))
	}
	writeRead(w, data, err)
}

// handleBrowse answers a tile map from one request's recycled buffers. The
// read spans the whole computation — the cache fill included — since it
// reads the generation's histogram buffers, and the buffers go back only
// once the body is written: w keeps no reference to it once Write returns.
func (s *Server) handleBrowse(w http.ResponseWriter, r *http.Request) {
	span, cols, rows, err := parseBrowseRequest(s.g, r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rd, release := s.read()
	defer release()
	var m *mapBuffers
	select {
	case m = <-s.maps:
	default:
		m = new(mapBuffers)
	}
	data, err := rd.browseMap(m, span, cols, rows)
	writeRead(w, data, err)
	select {
	case s.maps <- m:
	default: // GOMAXPROCS sets are idle already
	}
}

// encodeError marks a read that failed while encoding its response — a
// server bug (500) — apart from one the source refused (400) or could not
// answer (502).
type encodeError struct{ err error }

func (e *encodeError) Error() string { return e.err.Error() }
func (e *encodeError) Unwrap() error { return e.err }

// encoded adapts an append encoder's result to a read's: its failures
// become encodeErrors.
func encoded(data []byte, err error) ([]byte, error) {
	if err != nil {
		return nil, &encodeError{err}
	}
	return data, nil
}

// writeRead writes the outcome of a read: the body, or its failure's
// status.
func writeRead(w http.ResponseWriter, data []byte, err error) {
	var enc *encodeError
	switch {
	case errors.As(err, &enc):
		writeEncoded(w, nil, enc.err)
	case err != nil:
		http.Error(w, err.Error(), readStatus(err))
	default:
		writeJSONBytes(w, data)
	}
}

// TileEstimates pairs clamped estimates with their tile rectangles in
// row-major order — the decoded form of a browse response body. Servers
// write the wire form with AppendBrowseResponse; this is what clients
// decode into and the oracle that encoder is tested against.
func TileEstimates(g *grid.Grid, region grid.Span, cols, rows int, ests []core.Estimate) []TileEstimate {
	tw := region.Width() / cols
	th := region.Height() / rows
	tiles := make([]TileEstimate, len(ests))
	for k, est := range ests {
		col, row := k%cols, k/cols
		i1 := region.I1 + col*tw
		j1 := region.J1 + row*th
		tiles[k] = NewTileEstimate(g, grid.Span{I1: i1, J1: j1, I2: i1 + tw - 1, J2: j1 + th - 1}, est)
	}
	return tiles
}

// NewTileEstimate renders one raw estimate for a span into the clamped
// wire form of a browse tile.
func NewTileEstimate(g *grid.Grid, span grid.Span, e core.Estimate) TileEstimate {
	rect := g.SpanRect(span)
	c := e.Clamped()
	return TileEstimate{
		Rect:      [4]float64{rect.XMin, rect.YMin, rect.XMax, rect.YMax},
		Disjoint:  c.Disjoint,
		Contains:  c.Contains,
		Contained: c.Contained,
		Overlap:   c.Overlap,
	}
}

// browseKey identifies one browse computation. gen is the snapshot
// generation the response was computed against (0 for fixed summaries), so
// publishing a new generation invalidates exactly the stale entries:
// fresh requests form new keys and miss, while entries for other
// generations are left to age out of the LRU rather than being flushed.
// level is the plan's pyramid level (0 when no pyramid is in play): it is
// part of what was computed, and two requests over the same region and
// tiling resolve different levels once a snapshot swap changes the stack
// depth.
func browseKey(gen uint64, level int, span grid.Span, cols, rows int) string {
	return fmt.Sprintf("g%d:l%d:%d,%d,%d,%d/%dx%d", gen, level, span.I1, span.J1, span.I2, span.J2, cols, rows)
}

// parseBrowseRequest reads the region and tiling of a browse request
// against g, bounding cols and rows individually before multiplying so the
// product check cannot be bypassed by overflow.
func parseBrowseRequest(g *grid.Grid, q url.Values) (span grid.Span, cols, rows int, err error) {
	span, err = parseRegionRequest(g, q)
	if err != nil {
		return grid.Span{}, 0, 0, err
	}
	cols, err = posIntParam(q, "cols", maxTiles)
	if err != nil {
		return grid.Span{}, 0, 0, err
	}
	rows, err = posIntParam(q, "rows", maxTiles)
	if err != nil {
		return grid.Span{}, 0, 0, err
	}
	if int64(cols)*int64(rows) > maxTiles {
		return grid.Span{}, 0, 0, fmt.Errorf("tiling %dx%d exceeds the %d-tile limit", cols, rows, maxTiles)
	}
	return span, cols, rows, nil
}

// parseRegionRequest reads the x1..y2 region parameters of a request's
// parsed query and converts them to a span aligned with g.
func parseRegionRequest(g *grid.Grid, q url.Values) (grid.Span, error) {
	var vals [4]float64
	for i, name := range []string{"x1", "y1", "x2", "y2"} {
		raw := q.Get(name)
		if raw == "" {
			return grid.Span{}, fmt.Errorf("missing parameter %q", name)
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return grid.Span{}, fmt.Errorf("parameter %q: %v", name, err)
		}
		vals[i] = v
	}
	rect := geom.NewRect(vals[0], vals[1], vals[2], vals[3])
	span, err := g.AlignedSpan(rect, 1e-9)
	if err != nil {
		return grid.Span{}, fmt.Errorf("region %v: %v", rect, err)
	}
	return span, nil
}

// posIntParam parses a positive integer parameter bounded by max.
func posIntParam(q url.Values, name string, max int) (int, error) {
	raw := q.Get(name)
	v, err := strconv.Atoi(raw)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("parameter %q must be a positive integer, got %q", name, raw)
	}
	if v > max {
		return 0, fmt.Errorf("parameter %q must be at most %d, got %d", name, max, v)
	}
	return v, nil
}

// WriteJSON marshals v and writes it with the JSON content type. Encoding
// failures are a server bug: they are logged, counted (via the middleware's
// metricsWriter), and turned into a 500 before any of the response is
// committed.
func WriteJSON(w http.ResponseWriter, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		err = fmt.Errorf("%T: %w", v, err)
	}
	writeEncoded(w, data, err)
}

// writeEncoded writes an encoder's output, or reports its failure: logged,
// counted and answered with a 500.
func writeEncoded(w http.ResponseWriter, data []byte, err error) {
	if err != nil {
		logf("geobrowse: encoding %v", err)
		if mw, ok := w.(interface{ countEncodeError() }); ok {
			mw.countEncodeError()
		}
		http.Error(w, "internal error", http.StatusInternalServerError)
		return
	}
	writeJSONBytes(w, data)
}

// writeJSONBytes writes pre-encoded JSON, setting the content type and —
// the body being fully known — its length before the status code is
// committed, so large tile maps are not chunk-framed. Write errors mean
// the client went away; they are logged, and because every handler runs
// behind the telemetry middleware, the bytes written and the error also
// land in the geobrowse_http_response_bytes_total and
// geobrowse_http_write_errors_total counters through the metricsWriter
// this writes to.
func writeJSONBytes(w http.ResponseWriter, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(data); err != nil {
		logf("geobrowse: writing response: %v", err)
	}
}

// unboundedParam is the bound for parameters that are semantically
// unlimited counts (e.g. drill hot thresholds).
const unboundedParam = math.MaxInt
