package shard

import (
	"errors"
	"fmt"
	"net/http"
	"sync"

	"spatialhist/internal/core"
	"spatialhist/internal/geobrowse"
	"spatialhist/internal/grid"
	"spatialhist/internal/live"
	"spatialhist/internal/telemetry"
)

// NewServer mounts the coordinator behind the geobrowse API surface:
//
//	GET  /api/info      aggregated dataset metadata
//	GET  /api/query     one summed estimate
//	GET  /api/browse    summed tile maps, one gather per request
//	GET  /api/drill     adaptive refinement, one gather per depth level
//	POST /api/ingest    inserts routed to the owning writer shards
//	POST /api/delete    deletes routed to the owning writer shards
//	GET  /api/shards    probed topology: bands, backends, lag
//	GET  /healthz       200 while every shard has an alive backend
//	GET  /metrics       the registry's exposition
//
// Requests are parsed with the geobrowse parsers, mutations served by
// geobrowse's one mutation handler and responses written with the
// geobrowse tile encoders, so the coordinator's wire format —
// including clamping, tile order and rectangle geometry — is byte-for-byte
// the single-server format. Shards are summed on raw estimates; clamping
// is applied only afterward, exactly once, like a single store does. A
// browse map's in-process shards sweep into one plane, which is encoded
// into one body: both are recycled across requests, and the rows of maps
// past the band floor are fanned over one pool the front owns, for the
// sweeps and the encoder alike. reg receives the shard_* metrics of the
// front's pool (nil means telemetry.Default()).
func NewServer(c *Coordinator, reg *telemetry.Registry) http.Handler {
	if reg == nil {
		reg = telemetry.Default()
	}
	s := &server{c: c, pool: core.NewBandPool(0,
		reg.Gauge("shard_pool_active_workers",
			"Tile-row workers of the shard front currently holding a pool slot."),
		reg.Counter("shard_pool_bands_total",
			"Tile-row bands the shard front dispatched to its pool."))}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/info", s.handleInfo)
	mux.HandleFunc("GET /api/query", s.handleQuery)
	mux.HandleFunc("GET /api/browse", s.handleBrowse)
	mux.HandleFunc("GET /api/drill", s.handleDrill)
	mux.HandleFunc("POST /api/ingest", geobrowse.MutationHandler(c, live.OpInsert))
	mux.HandleFunc("POST /api/delete", geobrowse.MutationHandler(c, live.OpDelete))
	mux.HandleFunc("GET /api/shards", s.handleTopology)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", reg.Handler())
	return mux
}

type server struct {
	c    *Coordinator
	pool *core.BandPool
	maps sync.Pool // *mapBuffers
}

// mapBuffers is a browse map's plane and body, kept for the next request
// once the body is written.
type mapBuffers struct {
	plane []core.Estimate
	body  []byte
}

// readStatus is the status of a failed read: 400 for a query the
// coordinator refused, 502 when the shards could not answer it.
func readStatus(err error) int {
	var re *RequestError
	if errors.As(err, &re) {
		return http.StatusBadRequest
	}
	return http.StatusBadGateway
}

func (s *server) handleInfo(w http.ResponseWriter, r *http.Request) {
	info, err := s.c.Info()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	writeJSON(w, info)
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	span, err := geobrowse.ParseRegionRequest(s.c.Grid(), r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ests, err := s.c.EstimateSpans([]grid.Span{span})
	if err != nil {
		http.Error(w, err.Error(), readStatus(err))
		return
	}
	data, err := geobrowse.AppendTile(nil, s.c.Grid(), span, ests[0])
	writeEncoded(w, data, err)
}

func (s *server) handleBrowse(w http.ResponseWriter, r *http.Request) {
	span, cols, rows, err := geobrowse.ParseBrowseRequest(s.c.Grid(), r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	m, _ := s.maps.Get().(*mapBuffers)
	if m == nil {
		m = new(mapBuffers)
	}
	// The body is written before the buffers go back: w keeps no reference
	// to it once Write returns.
	defer s.maps.Put(m)
	m.plane, err = s.c.SumGrid(m.plane, span, cols, rows, s.pool)
	if err != nil {
		http.Error(w, err.Error(), readStatus(err))
		return
	}
	m.body, err = geobrowse.AppendBrowseResponse(s.pool, m.body[:0], s.c.Grid(), span, cols, rows, m.plane, nil)
	writeEncoded(w, m.body, err)
}

func (s *server) handleDrill(w http.ResponseWriter, r *http.Request) {
	span, rel, hot, depth, err := geobrowse.ParseDrillRequest(s.c.Grid(), r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var readErr error
	leaves, err := core.DrilldownBatch(func(spans []grid.Span) ([]core.Estimate, error) {
		ests, err := s.c.EstimateSpans(spans)
		readErr = err
		return ests, err
	}, span, core.DrillOptions{
		Relation:     rel,
		HotThreshold: int64(hot),
		MaxDepth:     depth,
		MaxTiles:     geobrowse.DrillMaxTiles,
	})
	if err != nil {
		status := http.StatusBadRequest // a drill the request itself made too large
		if readErr != nil {
			status = readStatus(readErr)
		}
		http.Error(w, err.Error(), status)
		return
	}
	data, err := geobrowse.AppendDrillResponse(nil, s.c.Grid(), rel, leaves)
	writeEncoded(w, data, err)
}

// TopologyBackend is one backend's probed state in /api/shards.
type TopologyBackend struct {
	Name        string `json:"name"`
	Role        string `json:"role"`
	Alive       bool   `json:"alive"`
	AppliedSeq  int64  `json:"appliedSeq"`
	SnapshotSeq int64  `json:"snapshotSeq"`
	LagBytes    int64  `json:"lagBytes"`
	Generation  uint64 `json:"generation"`
}

// TopologyShard is one shard's band and backends in /api/shards.
type TopologyShard struct {
	Band     [2]int            `json:"band"` // inclusive column range
	Backends []TopologyBackend `json:"backends"`
}

// TopologyResponse is the /api/shards response.
type TopologyResponse struct {
	Shards      []TopologyShard `json:"shards"`
	MaxLagBytes int64           `json:"maxLagBytes"`
}

func (s *server) handleTopology(w http.ResponseWriter, r *http.Request) {
	resp := TopologyResponse{MaxLagBytes: s.c.maxLag}
	for si, grp := range s.c.shards {
		c1, c2 := s.c.part.Band(si)
		ts := TopologyShard{Band: [2]int{c1, c2}}
		leaderSeq := grp.leader.appliedSeq.Load()
		for _, be := range grp.all {
			ts.Backends = append(ts.Backends, TopologyBackend{
				Name:        be.h.Name(),
				Role:        be.role,
				Alive:       be.alive.Load(),
				AppliedSeq:  be.appliedSeq.Load(),
				SnapshotSeq: be.snapshotSeq.Load(),
				LagBytes:    max(0, leaderSeq-be.snapshotSeq.Load()),
				Generation:  be.gen.Load(),
			})
		}
		resp.Shards = append(resp.Shards, ts)
	}
	writeJSON(w, resp)
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !s.c.Healthy() {
		http.Error(w, "a shard has no alive backend", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}
