package geobrowse

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"spatialhist/internal/core"
	"spatialhist/internal/geom"
	"spatialhist/internal/live"
)

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
	AcquireEstimator() (core.Estimator, uint64, func())
}

// StaticSource adapts a fixed estimator to the EstimatorSource contract at
// generation 0.
func StaticSource(est core.Estimator) EstimatorSource { return staticSource{est} }

type staticSource struct{ est core.Estimator }

func (s staticSource) AcquireEstimator() (core.Estimator, uint64, func()) {
	return s.est, 0, func() {}
}

// NewLiveServer creates a Server over a live ingestion store: the browse
// endpoints read the store's current snapshot, and three extra endpoints
// mutate and observe it:
//
//	POST /api/ingest        insert object MBRs ({"rects":[[x1,y1,x2,y2],...]})
//	POST /api/delete        delete previously inserted MBRs (same body)
//	GET  /api/store/status  generation, staleness and journal size
//
// Mutations become visible when the store's rebuild policy publishes the
// next snapshot (or immediately with ?flush=1); until then browse traffic
// keeps reading the current generation, and the generation-tagged cache
// keys guarantee a swap is never served from a stale entry.
func NewLiveServer(name string, store *live.Store, opts Options) *Server {
	opts = opts.withDefaults()
	s := NewSourceServer(name, store, opts)
	m := newHTTPMetrics(opts.Telemetry, opts.accessLogger(), opts.Tenant)
	s.mux.HandleFunc("POST /api/ingest", m.wrap("/api/ingest", MutationHandler(store, live.OpInsert)))
	s.mux.HandleFunc("POST /api/delete", m.wrap("/api/delete", MutationHandler(store, live.OpDelete)))
	s.mux.HandleFunc("GET /api/store/status", m.wrap("/api/store/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, store.Status())
	}))
	return s
}

// MutationRequest is the body of POST /api/ingest and /api/delete.
type MutationRequest struct {
	// Rects are object MBRs as [x1,y1,x2,y2] quadruples.
	Rects [][4]float64 `json:"rects"`
}

// MutationResponse reports what an ingestion request did.
type MutationResponse struct {
	// Applied counts mutations that changed the store.
	Applied int `json:"applied"`
	// Rejected counts mutations that did not (outside the data space, or a
	// delete with nothing to remove). They are journaled regardless.
	Rejected int `json:"rejected"`
	// Generation is the published generation after the request (only past
	// this generation are the mutations visible to browsing).
	Generation uint64 `json:"generation"`
}

// maxMutationRects bounds one ingestion request body, maxMutationBody its
// bytes.
const (
	maxMutationRects = 100_000
	maxMutationBody  = 8 << 20
)

// DecodeBody decodes a request body that must be exactly one JSON value of
// at most limit bytes into v: trailing bytes mean a truncated or
// concatenated request, and acting on its prefix would silently drop the
// rest.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any, limit int64) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding body: %w", err)
	}
	if err := dec.Decode(&struct{}{}); !errors.Is(err, io.EOF) {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// Mutator applies one batch of inserts (live.OpInsert) or deletes
// (live.OpDelete), publishing at the end when flush is set, with
// live.Store.Apply's contract. A live store, a shard backend and a shard
// coordinator all are one.
type Mutator interface {
	Apply(op byte, rects []geom.Rect, flush bool) (applied, rejected int, gen uint64, err error)
}

// MutationHandler serves the op endpoint against m — POST /api/ingest
// with live.OpInsert, /api/delete with live.OpDelete — for a live Server
// and a shard coordinator front alike, so both accept exactly the same
// requests and answer them with the same bodies.
func MutationHandler(m Mutator, op byte) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rects, flush, err := parseMutationRequest(w, r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		applied, rejected, gen, err := m.Apply(op, rects, flush)
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		writeJSON(w, MutationResponse{Applied: applied, Rejected: rejected, Generation: gen})
	}
}

// parseMutationRequest reads the body of an ingest or delete request — one
// to maxMutationRects MBRs — and its flush parameter.
func parseMutationRequest(w http.ResponseWriter, r *http.Request) (rects []geom.Rect, flush bool, err error) {
	var req MutationRequest
	if err := DecodeBody(w, r, &req, maxMutationBody); err != nil {
		return nil, false, err
	}
	if len(req.Rects) == 0 {
		return nil, false, errors.New("body must carry at least one rect")
	}
	if len(req.Rects) > maxMutationRects {
		return nil, false, fmt.Errorf("at most %d rects per request, got %d", maxMutationRects, len(req.Rects))
	}
	rects = make([]geom.Rect, len(req.Rects))
	for i, q := range req.Rects {
		rects[i] = geom.NewRect(q[0], q[1], q[2], q[3])
	}
	return rects, r.URL.Query().Get("flush") == "1", nil
}
