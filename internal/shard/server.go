package shard

import (
	"net/http"

	"spatialhist/internal/geobrowse"
	"spatialhist/internal/telemetry"
)

// Front serves the coordinator as a geobrowse.Server — the single node's
// API, middleware, admission and drain, read from the coordinator
// uncached — plus its topology at GET /api/shards. Shards are
// summed on raw estimates and the server clamps once, after the sum, so
// every body is byte-for-byte a single store's over the same objects.
func Front(c *Coordinator, opts geobrowse.Options) *geobrowse.Server {
	s := geobrowse.New(c.name, c, opts)
	s.Handle("GET /api/shards", c.handleTopology)
	return s
}

// The coordinator is read as it is.
var _ geobrowse.Reader = (*Coordinator)(nil)

// NewServer is Front with default options; benchmark/layers.go builds its
// coordinator front with it.
func NewServer(c *Coordinator, reg *telemetry.Registry) http.Handler {
	return Front(c, geobrowse.Options{Telemetry: reg})
}

// TopologyShard is one shard in /api/shards: the columns it owns, its
// name and its published generation.
type TopologyShard struct {
	Band       [2]int `json:"band"` // inclusive column range
	Name       string `json:"name"`
	Generation uint64 `json:"generation"`
}

// TopologyResponse is the /api/shards response.
type TopologyResponse struct {
	Shards []TopologyShard `json:"shards"`
}

func (c *Coordinator) handleTopology(w http.ResponseWriter, r *http.Request) {
	var resp TopologyResponse
	for si, h := range c.shards {
		c1, c2 := c.part.Band(si)
		resp.Shards = append(resp.Shards, TopologyShard{Band: [2]int{c1, c2}, Name: h.Name(), Generation: h.Generation()})
	}
	geobrowse.WriteJSON(w, resp)
}
