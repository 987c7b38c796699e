package geobrowse

import (
	"net/http"
	"strconv"
	"strings"

	"spatialhist/internal/archive"
	"spatialhist/internal/core"
	"spatialhist/internal/query"
)

// ArchiveServer serves faceted browsing over a multi-attribute archive —
// the full GeoBrowsing interaction of the paper's Figure 1, where queries
// combine region, date range and subject types.
//
// Endpoints:
//
//	GET /api/info     archive metadata (subjects, date range, counts)
//	GET /api/browse   x1,y1,x2,y2,cols,rows[,subjects][,from,to]
//
// subjects is a comma-separated list of subject indices; from/to must
// align with the archive's date bands.
//
// Like Server, browse requests take the batch path per selected partition,
// large maps are split by tile row across a bounded worker pool, and
// responses are cached with single-flight deduplication, keyed by region,
// tiling and facets.
type ArchiveServer struct {
	name  string
	a     *archive.Archive
	mux   *http.ServeMux
	cache *browseCache
	pool  *core.BandPool
}

// NewArchiveServer creates an ArchiveServer for a named archive with
// default options.
func NewArchiveServer(name string, a *archive.Archive) *ArchiveServer {
	return NewArchiveServerOpts(name, a, Options{})
}

// NewArchiveServerOpts creates an ArchiveServer with explicit serving
// options.
func NewArchiveServerOpts(name string, a *archive.Archive, opts Options) *ArchiveServer {
	opts = opts.withDefaults()
	s := &ArchiveServer{
		name:  name,
		a:     a,
		mux:   http.NewServeMux(),
		cache: newBrowseCache(opts.CacheSize, opts.Telemetry, opts.Tenant),
		pool:  newBandPool(opts.Telemetry, opts.Workers),
	}
	// The facet endpoints run behind the same telemetry middleware as the
	// plain Server's, so archive traffic shows up in the identical metric
	// families.
	m := newHTTPMetrics(opts.Telemetry, opts.accessLogger(), opts.Tenant)
	s.mux.HandleFunc("GET /api/info", m.wrap("/api/info", s.handleInfo))
	s.mux.HandleFunc("GET /api/browse", m.wrap("/api/browse", s.handleBrowse))
	s.mux.Handle("GET /metrics", opts.Telemetry.Handler())
	return s
}

// ServeHTTP implements http.Handler.
func (s *ArchiveServer) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// CacheStats reports browse-cache hits and misses.
func (s *ArchiveServer) CacheStats() (hits, misses int64) { return s.cache.Stats() }

// ArchiveInfo is the archive /api/info response.
type ArchiveInfo struct {
	Archive        string     `json:"archive"`
	Records        int64      `json:"records"`
	StorageBuckets int        `json:"storageBuckets"`
	Subjects       []string   `json:"subjects"`
	DateLo         float64    `json:"dateLo"`
	DateHi         float64    `json:"dateHi"`
	DateBands      int        `json:"dateBands"`
	Extent         [4]float64 `json:"extent"`
	GridNX         int        `json:"gridNX"`
	GridNY         int        `json:"gridNY"`
}

func (s *ArchiveServer) handleInfo(w http.ResponseWriter, r *http.Request) {
	sc := s.a.Schema()
	ext := sc.Grid.Extent()
	writeJSON(w, ArchiveInfo{
		Archive:        s.name,
		Records:        s.a.Count(),
		StorageBuckets: s.a.StorageBuckets(),
		Subjects:       sc.Subjects,
		DateLo:         sc.DateLo,
		DateHi:         sc.DateHi,
		DateBands:      sc.DateBands,
		Extent:         [4]float64{ext.XMin, ext.YMin, ext.XMax, ext.YMax},
		GridNX:         sc.Grid.NX(),
		GridNY:         sc.Grid.NY(),
	})
}

// FacetedBrowseResponse is the archive /api/browse response.
type FacetedBrowseResponse struct {
	Cols     int            `json:"cols"`
	Rows     int            `json:"rows"`
	Matching int64          `json:"matching"` // records matching the facets
	Tiles    []TileEstimate `json:"tiles"`
}

func (s *ArchiveServer) handleBrowse(w http.ResponseWriter, r *http.Request) {
	sc := s.a.Schema()
	span, cols, rows, err := ParseBrowseRequest(sc.Grid, r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	f := archive.Filter{}
	if raw := r.URL.Query().Get("subjects"); raw != "" {
		for _, part := range strings.Split(raw, ",") {
			idx, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				http.Error(w, "parameter \"subjects\" must be a comma-separated list of indices",
					http.StatusBadRequest)
				return
			}
			f.Subjects = append(f.Subjects, idx)
		}
	}
	fromRaw, toRaw := r.URL.Query().Get("from"), r.URL.Query().Get("to")
	if (fromRaw == "") != (toRaw == "") {
		http.Error(w, "parameters \"from\" and \"to\" must be given together", http.StatusBadRequest)
		return
	}
	if fromRaw != "" {
		from, err1 := strconv.ParseFloat(fromRaw, 64)
		to, err2 := strconv.ParseFloat(toRaw, 64)
		if err1 != nil || err2 != nil {
			http.Error(w, "parameters \"from\"/\"to\" must be numbers", http.StatusBadRequest)
			return
		}
		f.DateFrom, f.DateTo = from, to
	}

	// The filter participates in the cache key via its raw parameters.
	facets := r.URL.Query().Get("subjects") + "|" + r.URL.Query().Get("from") + "|" + r.URL.Query().Get("to")
	key := browseKey(0, 0, span, cols, rows, facets)
	data, err := s.cache.Do(key, func() ([]byte, error) {
		matching, err := s.a.MatchCount(f)
		if err != nil {
			return nil, err
		}
		_, th, err := query.Tiling(span, cols, rows)
		if err != nil {
			return nil, err
		}
		ests := make([]core.Estimate, cols*rows)
		err = s.pool.Bands(cols, rows, func(r0, r1 int) error {
			part, err := s.a.Browse(f, query.RowBand(span, th, r0, r1-1), cols, r1-r0)
			copy(ests[r0*cols:], part)
			return err
		})
		if err != nil {
			return nil, err
		}
		return encoded(appendFacetedBrowseResponse(s.pool, nil, sc.Grid, span, cols, rows, matching, ests))
	})
	writeBrowse(w, data, err)
}
