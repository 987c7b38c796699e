package geobrowse

import (
	"net/http"
	"strconv"
	"time"

	"spatialhist/internal/telemetry"
)

// httpMetrics instruments every API endpoint of a Server: per-endpoint
// request counts by status code, latency histograms, response bytes, and
// write/encode error counters, plus optional structured access logging.
// The Server routes every handler through wrap, so /metrics reflects the
// whole surface.
type httpMetrics struct {
	reg    *telemetry.Registry
	access *telemetry.Logger // nil disables request logging
	tenant string            // non-empty adds a tenant label to every family
}

func newHTTPMetrics(reg *telemetry.Registry, access *telemetry.Logger, tenant string) *httpMetrics {
	return &httpMetrics{reg: reg, access: access, tenant: tenant}
}

// labels appends the middleware's tenant label (when serving as one
// tenant of a registry) to an endpoint's label pairs.
func (m *httpMetrics) labels(pairs ...string) []string {
	if m.tenant == "" {
		return pairs
	}
	return append(pairs, "tenant", m.tenant)
}

// Metric families recorded by the middleware. Names are part of the
// observable API; they are documented in README.md.
const (
	metricRequests     = "geobrowse_http_requests_total"
	metricLatency      = "geobrowse_http_request_seconds"
	metricRespBytes    = "geobrowse_http_response_bytes_total"
	metricWriteErrors  = "geobrowse_http_write_errors_total"
	metricEncodeErrors = "geobrowse_http_encode_errors_total"
)

// wrap instruments one endpoint. The endpoint label is the route pattern,
// not the raw URL, so cardinality stays bounded.
func (m *httpMetrics) wrap(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		mw := &metricsWriter{ResponseWriter: w, status: http.StatusOK}
		h(mw, r)
		dur := time.Since(start)

		code := strconv.Itoa(mw.status)
		m.reg.Counter(metricRequests, "API requests by endpoint and status code.",
			m.labels("endpoint", endpoint, "code", code)...).Inc()
		m.reg.Histogram(metricLatency, "API request latency in seconds.", nil,
			m.labels("endpoint", endpoint)...).ObserveDuration(dur)
		m.reg.Counter(metricRespBytes, "Response body bytes written by endpoint.",
			m.labels("endpoint", endpoint)...).Add(mw.bytes)
		if mw.writeErr != nil {
			m.reg.Counter(metricWriteErrors,
				"Response writes that failed (client went away).").Inc()
		}
		if mw.encodeErrs > 0 {
			m.reg.Counter(metricEncodeErrors,
				"Responses dropped because JSON encoding failed (server bug).").Inc()
		}
		if m.access != nil {
			m.access.Log("request",
				"endpoint", endpoint,
				"method", r.Method,
				"query", r.URL.RawQuery,
				"code", mw.status,
				"bytes", mw.bytes,
				"duration_ms", float64(dur.Microseconds())/1000,
			)
		}
	}
}

// metricsWriter records what the handler did with the response: the status
// code, bytes written, and the first write error. WriteJSON/writeJSONBytes
// feed it through the normal ResponseWriter path, so the byte and error
// accounting the middleware records covers every response body.
type metricsWriter struct {
	http.ResponseWriter
	status     int
	bytes      int64
	writeErr   error
	encodeErrs int
	wroteHdr   bool
}

func (w *metricsWriter) WriteHeader(code int) {
	if !w.wroteHdr {
		w.status = code
		w.wroteHdr = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *metricsWriter) Write(p []byte) (int, error) {
	w.wroteHdr = true
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	if err != nil && w.writeErr == nil {
		w.writeErr = err
	}
	return n, err
}

// countEncodeError is called by WriteJSON when marshaling fails, so the
// failure lands in a counter as well as the log.
func (w *metricsWriter) countEncodeError() { w.encodeErrs++ }
