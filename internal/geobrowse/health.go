package geobrowse

import "net/http"

// Health is the GET /healthz payload: a readiness probe for load
// generators, CI jobs and orchestration. It is intentionally cheap (no
// estimation work) so probing it never competes with browse traffic for
// admission slots.
type Health struct {
	// Status is "ok"; "draining" once a graceful shutdown began; or
	// "unhealthy" while the source cannot answer (a shard coordinator with
	// a shard that has no alive backend). Anything but "ok" is reported
	// with a 503 so probes stop routing new traffic here.
	Status string `json:"status"`
	// Dataset names the served dataset (single-tenant servers) or is
	// empty for a tenant registry front.
	Dataset string `json:"dataset,omitempty"`
	// Generation is the serving generation (0 for fixed summaries and
	// registry fronts; for a coordinator, the sum of the leader generations
	// its prober last saw).
	Generation uint64 `json:"generation"`
	// Tenants is how many datasets this process serves: 1 for a
	// single-dataset server, loaded-tenant count for a registry front.
	Tenants int `json:"tenants"`
}

// handleHealthz serves the single-dataset readiness probe. The generation
// is read as every reader reads it — through the request's one read,
// released at once — and reading it touches no data.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rd, release := s.read()
	h := Health{Status: "ok", Dataset: s.name, Generation: rd.Generation(), Tenants: 1}
	release()
	switch {
	case s.drain.Load():
		h.Status = "draining"
	case s.healthy != nil && !s.healthy():
		h.Status = "unhealthy"
	}
	writeHealth(w, h)
}

// StartDrain flips the server into draining: /healthz turns 503 so
// probes and load generators stop sending new traffic, while in-flight
// and late-arriving API requests still complete (connection draining is
// http.Server.Shutdown's job). Call it just before Shutdown.
func (s *Server) StartDrain() { s.drain.Store(true) }

// writeHealth renders h, with a 503 unless its status is "ok".
func writeHealth(w http.ResponseWriter, h Health) {
	if h.Status != "ok" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		WriteJSON(&committedWriter{w}, h)
		return
	}
	WriteJSON(w, h)
}

// committedWriter suppresses the duplicate WriteHeader WriteJSON would
// issue after the health handler already committed a 503.
type committedWriter struct{ http.ResponseWriter }

func (w *committedWriter) WriteHeader(int) {}
