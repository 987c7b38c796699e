package geobrowse

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"spatialhist/internal/geom"
	"spatialhist/internal/live"
)

// NewLiveServer is New over a live store; benchmark/layers.go builds its
// live fronts with it.
func NewLiveServer(name string, store *live.Store, opts Options) *Server {
	return New(name, store, opts)
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
// live.Store.Apply's contract. A live store, a shard backend, a shard
// coordinator and a replica (which refuses with ErrReadOnly) all are one;
// a Server over one mounts POST /api/ingest and /api/delete.
type Mutator interface {
	Apply(op byte, rects []geom.Rect, flush bool) (applied, rejected int, gen uint64, err error)
}

// ErrReadOnly is what a Mutator that takes no writes of its own returns —
// a read replica, whose writes belong to its leader. It is answered 403.
var ErrReadOnly = errors.New("read-only replica: send writes to the leader")

// mutationHandler serves the op endpoint against m — POST /api/ingest
// with live.OpInsert, /api/delete with live.OpDelete. A refused write is a
// 403, any other failure to apply a 503.
func mutationHandler(m Mutator, op byte) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rects, flush, err := parseMutationRequest(w, r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		applied, rejected, gen, err := m.Apply(op, rects, flush)
		if err != nil {
			code := http.StatusServiceUnavailable
			if errors.Is(err, ErrReadOnly) {
				code = http.StatusForbidden
			}
			http.Error(w, err.Error(), code)
			return
		}
		WriteJSON(w, MutationResponse{Applied: applied, Rejected: rejected, Generation: gen})
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
