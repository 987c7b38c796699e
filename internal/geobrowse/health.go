package geobrowse

import "net/http"

// Health is the GET /healthz payload: a readiness probe for load
// generators, CI jobs and orchestration. It is intentionally cheap (no
// estimation work) so probing it never competes with browse traffic for
// admission slots.
type Health struct {
	// Status is "ok", or "draining" once a graceful shutdown began,
	// reported with a 503 so probes stop routing new traffic here.
	Status string `json:"status"`
	// Dataset names the served dataset.
	Dataset string `json:"dataset,omitempty"`
	// Generation is the serving generation (0 for fixed summaries; for a
	// coordinator, the sum of its shards' generations).
	Generation uint64 `json:"generation"`
}

// handleHealthz serves the readiness probe. The generation is read as
// every reader reads it — through the request's one read, released at
// once — and reading it touches no data.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rd, release := s.read()
	h := Health{Status: "ok", Dataset: s.name, Generation: rd.Generation()}
	release()
	if !s.drain.Load() {
		WriteJSON(w, h)
		return
	}
	h.Status = "draining"
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	WriteJSON(&committedWriter{w}, h)
}

// StartDrain flips the server into draining: /healthz turns 503 so
// probes and load generators stop sending new traffic, while in-flight
// and late-arriving API requests still complete (connection draining is
// http.Server.Shutdown's job). Call it just before Shutdown.
func (s *Server) StartDrain() { s.drain.Store(true) }

// committedWriter suppresses the duplicate WriteHeader WriteJSON would
// issue after handleHealthz already committed a 503.
type committedWriter struct{ http.ResponseWriter }

func (w *committedWriter) WriteHeader(int) {}
