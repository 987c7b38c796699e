package geobrowse

import "net/http"

// Health is the GET /healthz payload: a readiness probe for load
// generators, CI jobs and orchestration. It is intentionally cheap (no
// estimation work) so probing it never competes with browse traffic for
// admission slots.
type Health struct {
	// Status is "ok", or "draining" once a graceful shutdown began
	// (reported with a 503 so probes stop routing new traffic here).
	Status string `json:"status"`
	// Dataset names the served dataset (single-tenant servers) or is
	// empty for a tenant registry front.
	Dataset string `json:"dataset,omitempty"`
	// Generation is the serving snapshot's generation (0 for fixed
	// summaries and registry fronts).
	Generation uint64 `json:"generation"`
	// Tenants is how many datasets this process serves: 1 for a
	// single-dataset server, loaded-tenant count for a registry front.
	Tenants int `json:"tenants"`
}

// handleHealthz serves the single-dataset readiness probe. The generation
// is read as every reader reads it: pinned, and released at once.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	_, gen, release := s.src.AcquireEstimator()
	release()
	writeHealth(w, Health{Status: "ok", Dataset: s.name, Generation: gen, Tenants: 1}, s.drain.Load())
}

// StartDrain flips the server into draining: /healthz turns 503 so
// probes and load generators stop sending new traffic, while in-flight
// and late-arriving API requests still complete (connection draining is
// http.Server.Shutdown's job). Call it just before Shutdown.
func (s *Server) StartDrain() { s.drain.Store(true) }

// writeHealth renders h, downgrading to draining/503 when drain is set.
func writeHealth(w http.ResponseWriter, h Health, drain bool) {
	if drain {
		h.Status = "draining"
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		writeJSON(&committedWriter{w}, h)
		return
	}
	writeJSON(w, h)
}

// committedWriter suppresses the duplicate WriteHeader writeJSON would
// issue after the health handler already committed a 503.
type committedWriter struct{ http.ResponseWriter }

func (w *committedWriter) WriteHeader(int) {}
