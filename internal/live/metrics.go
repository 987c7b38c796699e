package live

import "spatialhist/internal/telemetry"

// metrics are the store's telemetry series, created once at Open so the
// mutation hot path pays one atomic add per event, never a registry
// lookup. Names are part of the observable API and documented in
// README.md:
//
//	live_mutations_total{op}        applied+rejected mutations by opcode
//	live_mutations_rejected_total   mutations that did not change the store
//	live_wal_bytes_total            journal bytes written (incl. header)
//	live_wal_torn_tails_total       torn/corrupt tails truncated at open
//	live_rebuild_seconds            snapshot rebuild latency histogram
//	live_rebuild_incremental_total  publishes served by dirty-region repair
//	live_rebuild_full_total         publishes that paid a full cumulative pass
//	live_rebuild_dirty_frac         dirty lattice fraction per publish
//	live_generation                 current published generation
//	live_store_objects              objects in the current snapshot
//	live_pending_mutations          mutations not yet in a snapshot
//	live_last_rebuild_unix_seconds  when the current snapshot was built
//	euler_lattice_bytes{width}      lattice bytes of the published base
//	                                histograms by cell width: "4" is the
//	                                planes held at 4 bytes per bucket, "8"
//	                                those held at 8 (0 until a partition
//	                                outgrows the narrow cells)
type metrics struct {
	inserts, deletes, updates *telemetry.Counter
	rejected                  *telemetry.Counter
	walBytes                  *telemetry.Counter
	tornTails                 *telemetry.Counter
	rebuilds                  *telemetry.Histogram
	rebuildIncremental        *telemetry.Counter
	rebuildFull               *telemetry.Counter
	dirtyFrac                 *telemetry.Histogram
	generation                *telemetry.Gauge
	objects                   *telemetry.Gauge
	pendingG                  *telemetry.Gauge
	lastRebuild               *telemetry.Gauge
	latticeFull               *telemetry.Gauge
	latticePacked             *telemetry.Gauge
}

// rebuildBuckets span one sweep of a small lattice (~100µs) to a full
// multi-partition rebuild over a large grid.
var rebuildBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// dirtyFracBuckets resolve the localized-workload range (≤10% dirty) finely
// and the fallback range coarsely.
var dirtyFracBuckets = []float64{
	0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 0.75, 1,
}

const latticeBytesHelp = "Published Euler-lattice bytes by cell width in bytes per bucket."

func newMetrics(reg *telemetry.Registry) *metrics {
	if reg == nil {
		reg = telemetry.Default()
	}
	const mutHelp = "Live-store mutations received, by operation."
	return &metrics{
		inserts: reg.Counter("live_mutations_total", mutHelp, "op", "insert"),
		deletes: reg.Counter("live_mutations_total", mutHelp, "op", "delete"),
		updates: reg.Counter("live_mutations_total", mutHelp, "op", "update"),
		rejected: reg.Counter("live_mutations_rejected_total",
			"Mutations journaled but not applied (outside the space, or an underflowing delete)."),
		walBytes: reg.Counter("live_wal_bytes_total",
			"Bytes written to the write-ahead log, including the header."),
		tornTails: reg.Counter("live_wal_torn_tails_total",
			"Torn or corrupt WAL tails truncated during recovery."),
		rebuilds: reg.Histogram("live_rebuild_seconds",
			"Snapshot rebuild latency in seconds.", rebuildBuckets),
		rebuildIncremental: reg.Counter("live_rebuild_incremental_total",
			"Snapshot publishes served entirely by dirty-region repair (or sharing)."),
		rebuildFull: reg.Counter("live_rebuild_full_total",
			"Snapshot publishes where at least one partition paid a full cumulative pass."),
		dirtyFrac: reg.Histogram("live_rebuild_dirty_frac",
			"Dirty fraction of the lattice repaired per publish, averaged over partitions.",
			dirtyFracBuckets),
		generation: reg.Gauge("live_generation",
			"Generation number of the published snapshot."),
		objects: reg.Gauge("live_store_objects",
			"Objects in the published snapshot."),
		pendingG: reg.Gauge("live_pending_mutations",
			"Mutations applied since the published snapshot was built."),
		lastRebuild: reg.Gauge("live_last_rebuild_unix_seconds",
			"Unix time the published snapshot was built."),
		latticeFull: reg.Gauge("euler_lattice_bytes",
			latticeBytesHelp, "width", "8"),
		latticePacked: reg.Gauge("euler_lattice_bytes",
			latticeBytesHelp, "width", "4"),
	}
}

// mutation counts one received mutation by opcode.
func (m *metrics) mutation(op byte) {
	switch op {
	case OpInsert:
		m.inserts.Inc()
	case OpDelete:
		m.deletes.Inc()
	case OpUpdate:
		m.updates.Inc()
	}
}
