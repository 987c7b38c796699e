package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"spatialhist/internal/core"
	"spatialhist/internal/geobrowse"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/live"
)

// Handle is one shard backend (a leader or a follower) as the coordinator
// sees it: raw batch estimation, status for lag gating, and — on leaders —
// the write path. Implementations must be safe for concurrent use.
type Handle interface {
	// Name labels the backend in errors and metrics.
	Name() string
	// Info returns the backend's dataset metadata (grid, algorithm,
	// object count, generation).
	Info() (geobrowse.Info, error)
	// EstimateGrid answers the cols×rows tiling of region with RAW
	// (unclamped) estimates, row-major from the south-west — raw because
	// the coordinator sums shards by addition and clamping is not additive.
	// The slice (EstimateSpans' too) is the caller's.
	EstimateGrid(region grid.Span, cols, rows int) ([]core.Estimate, error)
	// EstimateSpans answers a batch of arbitrary spans with raw estimates.
	EstimateSpans(spans []grid.Span) ([]core.Estimate, error)
	// Status reports the backend's store status, including the applied and
	// snapshot-visible replication sequences the coordinator gates
	// stale-bounded reads on.
	Status() (live.Status, error)
	// Apply applies one batch of inserts (live.OpInsert) or deletes
	// (live.OpDelete) with live.Store.Apply's contract — leaders only;
	// followers reject writes. A Handle is a geobrowse.Mutator.
	Apply(op byte, rects []geom.Rect, flush bool) (applied, rejected int, gen uint64, err error)
}

// InProcess is the capability of a backend whose store lives in the
// coordinator's process: instead of answering with a plane of its own, it
// adds its raw estimates into a plane the caller owns, so the coordinator
// sums every such shard into one plane on the request goroutine. Each call
// pins the backend's snapshot, plans, adds and releases the pin. Only
// LocalHandle has it: a Handle that wraps another (fault injection, a
// proxy) embeds the Handle interface, whose method set lacks these, and so
// is read through Handle like a remote node.
type InProcess interface {
	// AddGrid adds the raw estimates of the cols×rows tiling of region into
	// dst, row-major from the south-west (len cols×rows). It fails only
	// before adding anything — on a tiling that does not divide its region
	// — so a failed read can be retried on another backend into the same
	// plane.
	AddGrid(dst []core.Estimate, region grid.Span, cols, rows int) error
	// AddSpans adds the raw estimate of every span into dst, one per span.
	AddSpans(dst []core.Estimate, spans []grid.Span) error
}

// LocalHandle adapts an in-process live store to the Handle contract and
// the InProcess capability — the zero-network backend of `geobrowsed -live
// -shards N`, the tests and the differential oracles.
type LocalHandle struct {
	Store *live.Store
	Label string
}

// Name implements Handle.
func (h *LocalHandle) Name() string {
	if h.Label != "" {
		return h.Label
	}
	return "local"
}

// Info implements Handle.
func (h *LocalHandle) Info() (geobrowse.Info, error) {
	est, gen, release := h.Store.AcquireEstimator()
	defer release()
	return geobrowse.EstimatorInfo(h.Name(), est, gen), nil
}

// EstimateGrid implements Handle.
func (h *LocalHandle) EstimateGrid(region grid.Span, cols, rows int) ([]core.Estimate, error) {
	est, _, release := h.Store.AcquireEstimator()
	defer release()
	return core.EstimateGrid(est, region, cols, rows)
}

// EstimateSpans implements Handle.
func (h *LocalHandle) EstimateSpans(spans []grid.Span) ([]core.Estimate, error) {
	est, _, release := h.Store.AcquireEstimator()
	defer release()
	return core.EstimateSet(est, spans), nil
}

// AddGrid implements InProcess.
func (h *LocalHandle) AddGrid(dst []core.Estimate, region grid.Span, cols, rows int) error {
	est, _, release := h.Store.AcquireEstimator()
	defer release()
	p, err := core.PlanGrid(est, region, cols, rows, 0)
	if err != nil {
		return err
	}
	return p.Add(dst)
}

// AddSpans implements InProcess.
func (h *LocalHandle) AddSpans(dst []core.Estimate, spans []grid.Span) error {
	if len(dst) != len(spans) {
		return fmt.Errorf("shard: plane of %d estimates for %d spans", len(dst), len(spans))
	}
	est, _, release := h.Store.AcquireEstimator()
	defer release()
	for k, s := range spans {
		dst[k].Add(est.Estimate(s))
	}
	return nil
}

// Status implements Handle.
func (h *LocalHandle) Status() (live.Status, error) { return h.Store.Status(), nil }

// Apply implements Handle.
func (h *LocalHandle) Apply(op byte, rects []geom.Rect, flush bool) (applied, rejected int, gen uint64, err error) {
	return h.Store.Apply(op, rects, flush)
}

// Wire types of the shard-node batch endpoints. Estimates travel as raw
// [disjoint, contains, contained, overlap] int64 quadruples: Go's JSON
// encoding of int64 is exact, so the merged sums stay bit-identical to an
// in-process merge.
type estimateGridRequest struct {
	Region [4]int `json:"region"` // i1, j1, i2, j2
	Cols   int    `json:"cols"`
	Rows   int    `json:"rows"`
}

type estimateSpansRequest struct {
	Spans [][4]int `json:"spans"`
}

type estimateResponse struct {
	Gen  uint64     `json:"gen"`
	Ests [][4]int64 `json:"ests"`
}

func packEstimates(gen uint64, ests []core.Estimate) estimateResponse {
	out := estimateResponse{Gen: gen, Ests: make([][4]int64, len(ests))}
	for i, e := range ests {
		out.Ests[i] = [4]int64{e.Disjoint, e.Contains, e.Contained, e.Overlap}
	}
	return out
}

func unpackEstimates(resp estimateResponse) []core.Estimate {
	out := make([]core.Estimate, len(resp.Ests))
	for i, q := range resp.Ests {
		out[i] = core.Estimate{Disjoint: q[0], Contains: q[1], Contained: q[2], Overlap: q[3]}
	}
	return out
}

// HTTPHandle is a Handle over a shard node's HTTP API (the ServeNode
// endpoints plus the live server's ingest and status endpoints).
type HTTPHandle struct {
	// Base is the node's base URL, e.g. "http://host:port".
	Base string
	// Client is the HTTP client; nil means http.DefaultClient.
	Client *http.Client
	// Label names the backend in errors and metrics; empty means Base.
	Label string
}

// Name implements Handle.
func (h *HTTPHandle) Name() string {
	if h.Label != "" {
		return h.Label
	}
	return h.Base
}

func (h *HTTPHandle) client() *http.Client {
	if h.Client != nil {
		return h.Client
	}
	return http.DefaultClient
}

// getJSON fetches path and decodes the JSON response into out.
func (h *HTTPHandle) getJSON(path string, out any) error {
	resp, err := h.client().Get(h.Base + path)
	if err != nil {
		return fmt.Errorf("shard: %s: %w", h.Name(), err)
	}
	return decodeJSONResponse(h.Name(), path, resp, out)
}

// postJSON posts in as JSON to path and decodes the response into out.
func (h *HTTPHandle) postJSON(path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := h.client().Post(h.Base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("shard: %s: %w", h.Name(), err)
	}
	return decodeJSONResponse(h.Name(), path, resp, out)
}

func decodeJSONResponse(name, path string, resp *http.Response, out any) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("shard: %s%s: %s: %s", name, path, resp.Status, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("shard: %s%s: decoding response: %w", name, path, err)
	}
	return nil
}

// Info implements Handle.
func (h *HTTPHandle) Info() (geobrowse.Info, error) {
	var info geobrowse.Info
	err := h.getJSON("/api/info", &info)
	return info, err
}

// EstimateGrid implements Handle.
func (h *HTTPHandle) EstimateGrid(region grid.Span, cols, rows int) ([]core.Estimate, error) {
	var resp estimateResponse
	req := estimateGridRequest{Region: [4]int{region.I1, region.J1, region.I2, region.J2}, Cols: cols, Rows: rows}
	if err := h.postJSON("/api/shard/estimate", req, &resp); err != nil {
		return nil, err
	}
	if len(resp.Ests) != cols*rows {
		return nil, fmt.Errorf("shard: %s returned %d estimates for a %dx%d map", h.Name(), len(resp.Ests), cols, rows)
	}
	return unpackEstimates(resp), nil
}

// EstimateSpans implements Handle.
func (h *HTTPHandle) EstimateSpans(spans []grid.Span) ([]core.Estimate, error) {
	req := estimateSpansRequest{Spans: make([][4]int, len(spans))}
	for i, s := range spans {
		req.Spans[i] = [4]int{s.I1, s.J1, s.I2, s.J2}
	}
	var resp estimateResponse
	if err := h.postJSON("/api/shard/spans", req, &resp); err != nil {
		return nil, err
	}
	if len(resp.Ests) != len(spans) {
		return nil, fmt.Errorf("shard: %s returned %d estimates for %d spans", h.Name(), len(resp.Ests), len(spans))
	}
	return unpackEstimates(resp), nil
}

// Status implements Handle.
func (h *HTTPHandle) Status() (live.Status, error) {
	var st live.Status
	err := h.getJSON("/api/store/status", &st)
	return st, err
}

// Apply implements Handle.
func (h *HTTPHandle) Apply(op byte, rects []geom.Rect, flush bool) (applied, rejected int, gen uint64, err error) {
	var path string
	switch op {
	case live.OpInsert:
		path = "/api/ingest"
	case live.OpDelete:
		path = "/api/delete"
	default:
		return 0, 0, 0, fmt.Errorf("shard: unsupported mutation opcode %d", op)
	}
	if flush {
		path += "?flush=1"
	}
	req := geobrowse.MutationRequest{Rects: make([][4]float64, len(rects))}
	for i, r := range rects {
		req.Rects[i] = [4]float64{r.XMin, r.YMin, r.XMax, r.YMax}
	}
	var resp geobrowse.MutationResponse
	if err := h.postJSON(path, req, &resp); err != nil {
		return 0, 0, 0, err
	}
	return resp.Applied, resp.Rejected, resp.Generation, nil
}

// Segment implements replication SegmentSource over the node's
// /api/replica/wal endpoint.
func (h *HTTPHandle) Segment(from int64, max int) ([]byte, int64, error) {
	u := fmt.Sprintf("%s/api/replica/wal?from=%d&max=%d", h.Base, from, max)
	resp, err := h.client().Get(u)
	if err != nil {
		return nil, 0, fmt.Errorf("shard: %s: %w", h.Name(), err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, 0, fmt.Errorf("shard: %s/api/replica/wal: %s: %s", h.Name(), resp.Status, bytes.TrimSpace(msg))
	}
	size, err := strconv.ParseInt(resp.Header.Get(walSizeHeader), 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("shard: %s: bad %s header %q", h.Name(), walSizeHeader, resp.Header.Get(walSizeHeader))
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, fmt.Errorf("shard: %s: reading WAL segment: %w", h.Name(), err)
	}
	return data, size, nil
}

// Checkpoint implements replication SegmentSource over the node's
// /api/replica/checkpoint endpoint.
func (h *HTTPHandle) Checkpoint(w io.Writer) error {
	resp, err := h.client().Get(h.Base + "/api/replica/checkpoint")
	if err != nil {
		return fmt.Errorf("shard: %s: %w", h.Name(), err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("shard: %s/api/replica/checkpoint: %s: %s", h.Name(), resp.Status, bytes.TrimSpace(msg))
	}
	if _, err := io.Copy(w, resp.Body); err != nil {
		return fmt.Errorf("shard: %s: streaming checkpoint: %w", h.Name(), err)
	}
	return nil
}

// gridFromInfo reconstructs the node's grid from its /api/info metadata.
// Go's JSON round-trip of float64 is exact (shortest round-trip
// representation), so the reconstructed extent is bit-identical to the
// node's own and the derived cell geometry matches exactly.
func gridFromInfo(info geobrowse.Info) *grid.Grid {
	ext := geom.Rect{XMin: info.Extent[0], YMin: info.Extent[1], XMax: info.Extent[2], YMax: info.Extent[3]}
	return grid.New(ext, info.GridNX, info.GridNY)
}
