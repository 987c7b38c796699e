package shard

import (
	"fmt"
	"net/http"
	"strconv"

	"spatialhist/internal/core"
	"spatialhist/internal/geobrowse"
	"spatialhist/internal/grid"
	"spatialhist/internal/live"
	"spatialhist/internal/telemetry"
)

// walSizeHeader carries the journal's total size on WAL segment
// responses, so a tailer learns its lag from every fetch — including an
// empty one.
const walSizeHeader = "X-Wal-Size"

// maxSpanBatch bounds one /api/shard/spans request, and maxBody the bytes
// of any shard request body.
const (
	maxSpanBatch = 100_000
	maxBody      = 8 << 20
)

// defaultSegmentBytes is the WAL segment size a follower fetches, and the
// one served when a tailer doesn't ask for a specific max;
// maxSegmentBytes caps what it may ask for.
const (
	defaultSegmentBytes = 1 << 20
	maxSegmentBytes     = 8 << 20
)

// ServeNode mounts a live store's shard-node API on srv — the endpoints a
// coordinator and a replica tailer consume:
//
//	POST /api/shard/estimate    raw tile-map estimates {"region":[i1,j1,i2,j2],"cols":C,"rows":R}
//	POST /api/shard/spans       raw span-batch estimates {"spans":[[i1,j1,i2,j2],...]}
//	GET  /api/replica/wal       journal bytes from ?from= (at most ?max=), X-Wal-Size = total
//	GET  /api/replica/checkpoint  checkpoint stream of the current state
//
// Estimates are served RAW (unclamped): the coordinator merges them by
// addition and clamps only the merged sums, which is what keeps sharded
// answers bit-identical to a single store's. The endpoints run behind
// srv's middleware like its own; reg receives shard_node_* telemetry (nil
// means telemetry.Default()).
func ServeNode(srv *geobrowse.Server, store *live.Store, reg *telemetry.Registry) {
	if reg == nil {
		reg = telemetry.Default()
	}
	n := &node{
		store: store,
		estimates: reg.Counter("shard_node_estimate_total",
			"Raw estimate batches served to coordinators.", "kind", "grid"),
		spanBatches: reg.Counter("shard_node_estimate_total",
			"Raw estimate batches served to coordinators.", "kind", "spans"),
		walRequests: reg.Counter("shard_node_wal_requests_total",
			"WAL segment fetches served to replica tailers."),
		walBytes: reg.Counter("shard_node_wal_bytes_total",
			"WAL bytes shipped to replica tailers."),
		checkpoints: reg.Counter("shard_node_checkpoint_total",
			"Checkpoint streams served to bootstrapping replicas."),
	}
	srv.Handle("POST /api/shard/estimate", n.handleEstimateGrid)
	srv.Handle("POST /api/shard/spans", n.handleEstimateSpans)
	srv.Handle("GET /api/replica/wal", n.handleWAL)
	srv.Handle("GET /api/replica/checkpoint", n.handleCheckpoint)
}

type node struct {
	store       *live.Store
	estimates   *telemetry.Counter
	spanBatches *telemetry.Counter
	walRequests *telemetry.Counter
	walBytes    *telemetry.Counter
	checkpoints *telemetry.Counter
}

// checkSpan validates that a span is well-formed and inside the grid.
func checkSpan(g *grid.Grid, s grid.Span) error {
	if !s.Valid() || s.I1 < 0 || s.J1 < 0 || s.I2 >= g.NX() || s.J2 >= g.NY() {
		return fmt.Errorf("span %v outside the %dx%d grid", s, g.NX(), g.NY())
	}
	return nil
}

func (n *node) handleEstimateGrid(w http.ResponseWriter, r *http.Request) {
	var req estimateGridRequest
	if err := geobrowse.DecodeBody(w, r, &req, maxBody); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	region := grid.Span{I1: req.Region[0], J1: req.Region[1], I2: req.Region[2], J2: req.Region[3]}
	if err := checkSpan(n.store.Grid(), region); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.Cols < 1 || req.Rows < 1 || int64(req.Cols)*int64(req.Rows) > maxSpanBatch {
		http.Error(w, fmt.Sprintf("tiling %dx%d outside (0, %d]", req.Cols, req.Rows, maxSpanBatch),
			http.StatusBadRequest)
		return
	}
	est, gen, release := n.store.AcquireEstimator()
	defer release()
	ests, err := core.EstimateGrid(est, region, req.Cols, req.Rows)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	n.estimates.Inc()
	geobrowse.WriteJSON(w, packEstimates(gen, ests))
}

func (n *node) handleEstimateSpans(w http.ResponseWriter, r *http.Request) {
	var req estimateSpansRequest
	if err := geobrowse.DecodeBody(w, r, &req, maxBody); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Spans) == 0 || len(req.Spans) > maxSpanBatch {
		http.Error(w, fmt.Sprintf("span batch size %d outside (0, %d]", len(req.Spans), maxSpanBatch),
			http.StatusBadRequest)
		return
	}
	spans := make([]grid.Span, len(req.Spans))
	for i, q := range req.Spans {
		spans[i] = grid.Span{I1: q[0], J1: q[1], I2: q[2], J2: q[3]}
		if err := checkSpan(n.store.Grid(), spans[i]); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	est, gen, release := n.store.AcquireEstimator()
	defer release()
	n.spanBatches.Inc()
	geobrowse.WriteJSON(w, packEstimates(gen, core.EstimateSet(est, spans)))
}

func (n *node) handleWAL(w http.ResponseWriter, r *http.Request) {
	var from int64
	if raw := r.URL.Query().Get("from"); raw != "" {
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || v < 0 {
			http.Error(w, fmt.Sprintf("parameter %q must be a non-negative integer, got %q", "from", raw),
				http.StatusBadRequest)
			return
		}
		from = v
	}
	max := defaultSegmentBytes
	if raw := r.URL.Query().Get("max"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			http.Error(w, fmt.Sprintf("parameter %q must be a positive integer, got %q", "max", raw),
				http.StatusBadRequest)
			return
		}
		max = min(v, maxSegmentBytes)
	}
	data, size, err := n.store.WALSegment(from, max)
	if err != nil {
		// A bad offset is the client's error; a journal-less store is a
		// topology error (tailing a follower that cannot ship).
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	n.walRequests.Inc()
	n.walBytes.Add(int64(len(data)))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(walSizeHeader, strconv.FormatInt(size, 10))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(data); err != nil {
		logf("shard: writing WAL segment: %v", err)
	}
}

func (n *node) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	n.checkpoints.Inc()
	w.Header().Set("Content-Type", "application/octet-stream")
	// The stream is written directly: a failure mid-payload cannot change
	// the status code, but the receiver's checkpoint magic/header checks
	// reject a truncated file.
	if err := n.store.StreamCheckpoint(w); err != nil {
		logf("shard: streaming checkpoint: %v", err)
	}
}
