// Cross-tenant join estimation: POST /api/join on the registry front.
//
// The estimator registry is the one place that holds many datasets at
// once, so it is where two-histogram join selectivity (core.JoinEstimator)
// becomes a serving feature: pick two tenant names, get the estimated
// number of cell-sharing object pairs and the selectivity, computed from
// the resident lattices alone — no object data is ever loaded. Tenants are
// fixed summaries whose loaders are deterministic, so a response cached by
// the pair of names stays right across evictions and reloads.
package geobrowse

import (
	"encoding/json"
	"errors"
	"net/http"

	"spatialhist/internal/core"
	"spatialhist/internal/telemetry"
)

// JoinRequest is the POST /api/join body: two configured tenant names.
type JoinRequest struct {
	A string `json:"a"`
	B string `json:"b"`
}

// JoinResponse is the /api/join response.
type JoinResponse struct {
	A           string  `json:"a"`
	B           string  `json:"b"`
	GenerationA uint64  `json:"generationA"` // 0: tenants are fixed summaries
	GenerationB uint64  `json:"generationB"`
	Pairs       int64   `json:"pairs"`
	CountA      int64   `json:"countA"`
	CountB      int64   `json:"countB"`
	Selectivity float64 `json:"selectivity"`
	Resampled   bool    `json:"resampled"`
	Certified   bool    `json:"certified"`
}

// joinFront is the MultiServer's join endpoint state: a response cache
// partition (labelled "join" next to the per-tenant partitions) and the
// core_join_* counters.
type joinFront struct {
	reg    *Registry
	cache  *browseCache
	mReqs  *telemetry.Counter
	mErrs  *telemetry.Counter
	mCerts *telemetry.Counter
}

func newJoinFront(reg *Registry) *joinFront {
	t := reg.opts.Server.Telemetry
	return &joinFront{
		reg:   reg,
		cache: newBrowseCache(reg.opts.Server.CacheSize, t, "join"),
		mReqs: t.Counter("core_join_requests_total",
			"Two-histogram join estimates requested via /api/join."),
		mErrs: t.Counter("core_join_errors_total",
			"Join estimates that failed (unknown tenant, incompatible grids)."),
		mCerts: t.Counter("core_join_certified_total",
			"Join estimates certified exact at grid resolution."),
	}
}

// handleJoin serves POST /api/join: {"a": tenant, "b": tenant}.
func (s *MultiServer) handleJoin(w http.ResponseWriter, r *http.Request) {
	s.join.mReqs.Inc()
	var req JoinRequest
	if err := DecodeBody(w, r, &req, 64<<10); err != nil {
		s.join.mErrs.Inc()
		http.Error(w, "bad join request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.A == "" || req.B == "" {
		s.join.mErrs.Inc()
		http.Error(w, "join needs both tenant names a and b", http.StatusBadRequest)
		return
	}
	data, err := s.join.estimate(req)
	if err != nil {
		s.join.mErrs.Inc()
		code := http.StatusUnprocessableEntity
		if errors.Is(err, ErrUnknownTenant) {
			code = http.StatusNotFound
		}
		http.Error(w, err.Error(), code)
		return
	}
	writeJSONBytes(w, data)
}

// estimate resolves both tenants and returns the (possibly cached) join
// estimate. Tenants are fixed summaries, so both generations are 0.
func (f *joinFront) estimate(req JoinRequest) ([]byte, error) {
	_, estA, err := f.reg.Resolve(req.A)
	if err != nil {
		return nil, err
	}
	_, estB, err := f.reg.Resolve(req.B)
	if err != nil {
		return nil, err
	}
	return f.cache.Do(req.A+"\x00"+req.B, func() ([]byte, error) {
		je, err := core.NewJoin(estA, estB)
		if err != nil {
			return nil, err
		}
		est, err := je.Estimate()
		if err != nil {
			return nil, err
		}
		if est.Certified {
			f.mCerts.Inc()
		}
		return json.Marshal(JoinResponse{
			A:           req.A,
			B:           req.B,
			Pairs:       est.Pairs,
			CountA:      est.CountA,
			CountB:      est.CountB,
			Selectivity: est.Selectivity,
			Resampled:   est.Resampled,
			Certified:   est.Certified,
		})
	})
}
