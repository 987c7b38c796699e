package shard

import (
	"net/http"

	"spatialhist/internal/geobrowse"
	"spatialhist/internal/telemetry"
)

// Front serves the coordinator as a geobrowse.Server — the single node's
// API, middleware, admission and drain, read from the coordinator
// uncached — plus its probed topology at GET /api/shards. Shards are
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

// TopologyBackend is one backend's probed state in /api/shards.
type TopologyBackend struct {
	Name        string `json:"name"`
	Role        string `json:"role"`
	Alive       bool   `json:"alive"`
	AppliedSeq  int64  `json:"appliedSeq"`
	SnapshotSeq int64  `json:"snapshotSeq"`
	LagBytes    int64  `json:"lagBytes"`
	Generation  uint64 `json:"generation"`
}

// TopologyShard is one shard's band and backends in /api/shards.
type TopologyShard struct {
	Band     [2]int            `json:"band"` // inclusive column range
	Backends []TopologyBackend `json:"backends"`
}

// TopologyResponse is the /api/shards response.
type TopologyResponse struct {
	Shards []TopologyShard `json:"shards"`
}

func (c *Coordinator) handleTopology(w http.ResponseWriter, r *http.Request) {
	var resp TopologyResponse
	for si, grp := range c.shards {
		c1, c2 := c.part.Band(si)
		ts := TopologyShard{Band: [2]int{c1, c2}}
		leaderSeq := grp.leader.appliedSeq.Load()
		for _, be := range grp.all {
			ts.Backends = append(ts.Backends, TopologyBackend{
				Name:        be.h.Name(),
				Role:        be.role,
				Alive:       be.alive.Load(),
				AppliedSeq:  be.appliedSeq.Load(),
				SnapshotSeq: be.snapshotSeq.Load(),
				LagBytes:    max(0, leaderSeq-be.snapshotSeq.Load()),
				Generation:  be.gen.Load(),
			})
		}
		resp.Shards = append(resp.Shards, ts)
	}
	geobrowse.WriteJSON(w, resp)
}
