package live

import (
	"sync"

	"spatialhist/internal/core"
	"spatialhist/internal/euler"
)

// Generation buffer reuse. Every published histogram's lattice array (the
// cumulative form, 4 B per bucket) used to become garbage at the next
// publish. The arena keeps a lease per histogram still referenced by any
// snapshot; once every snapshot holding it has been released the buffer is
// donated back to euler.BuildFrom as scratch, so steady-state publishes
// allocate O(dirty region) instead of O(lattice). Every reader pins
// (AcquireEstimator), so a released snapshot has no reader left.
//
// A lease's stale region bounds where its histogram's content lags the
// currently published one: it starts empty when the histogram is
// published and is widened by every later publish's damage. BuildFrom
// repairs dirty ∪ stale, which keeps donated buffers bit-identical to a
// fresh build.

// histLease tracks one retained histogram of one partition, together with
// the pyramid published over it (nil when pyramids are disabled). A
// collectible lease donates both: the base array goes to euler.BuildFrom as
// scratch and the pyramid's coarse levels to euler.PyramidFrom for
// in-place repair — the collectible condition covers them jointly, since
// the snapshots referencing the histogram are exactly the ones whose zoom
// estimator references the coarse levels.
type histLease struct {
	hist  *euler.Histogram
	pyr   *euler.Pyramid
	stale euler.DirtyRegion
	snaps []*Snapshot // snapshots whose estimator references hist
}

// collectible reports whether the lease's buffers can be reused: every
// referencing snapshot fully released (refs == 0 is terminal — pins only
// succeed from refs ≥ 1).
func (l *histLease) collectible() bool {
	for _, sn := range l.snaps {
		if sn.refs.Load() != 0 {
			return false
		}
	}
	return true
}

// maxLeases bounds the per-partition lease list: the published histogram
// plus a few retired ones awaiting release. Beyond it the oldest retired
// leases are forgotten — their buffers stay alive only as long as their
// snapshots do, they just lose reuse eligibility — so a reader that never
// releases its pin costs the store one recyclable buffer, not a leak.
const maxLeases = 4

// genArena is the per-store pool of retained histogram leases, one list
// per partition, ordered oldest first with the published histogram last.
// All methods are called under the store's rebuildMu.
type genArena struct {
	parts [][]*histLease
}

func newGenArena(partitions int) *genArena {
	return &genArena{parts: make([][]*histLease, partitions)}
}

// take removes and returns a reusable lease for partition i, or nil.
func (a *genArena) take(i int) *histLease {
	for k, l := range a.parts[i] {
		if l.collectible() {
			a.parts[i] = append(a.parts[i][:k], a.parts[i][k+1:]...)
			return l
		}
	}
	return nil
}

// damage widens every tracked lease of partition i: a new histogram was
// published whose content differs from the previous one inside dmg, so
// every retained buffer now lags the published state by that much more.
func (a *genArena) damage(i int, dmg euler.DirtyRegion) {
	for _, l := range a.parts[i] {
		l.stale = l.stale.Union(dmg)
	}
}

// track registers a freshly published histogram (and its pyramid, when
// enabled) for partition i.
func (a *genArena) track(i int, h *euler.Histogram, p *euler.Pyramid, sn *Snapshot) {
	a.parts[i] = append(a.parts[i], &histLease{hist: h, pyr: p, stale: euler.EmptyRegion(), snaps: []*Snapshot{sn}})
}

// attach records that sn shares partition i's histogram h with earlier
// snapshots (the partition was untouched between their generations).
func (a *genArena) attach(i int, h *euler.Histogram, p *euler.Pyramid, sn *Snapshot) {
	for _, l := range a.parts[i] {
		if l.hist == h {
			l.snaps = append(l.snaps, sn)
			return
		}
	}
	// h predates the arena (first generations) — start tracking it.
	a.track(i, h, p, sn)
}

// prune drops the oldest retired leases past maxLeases.
func (a *genArena) prune(i int) {
	if n := len(a.parts[i]); n > maxLeases {
		drop := n - maxLeases
		a.parts[i] = append(a.parts[i][:0], a.parts[i][drop:]...)
	}
}

// acquireSnapshot pins the current generation against buffer reuse. The
// CAS loop only succeeds from refs ≥ 1: a snapshot retired and fully
// released between the pointer load and the pin has terminal refs == 0,
// and the retry observes the newer published pointer.
func (s *Store) acquireSnapshot() *Snapshot {
	for {
		snap := s.snap.Load()
		r := snap.refs.Load()
		if r < 1 {
			continue
		}
		if snap.refs.CompareAndSwap(r, r+1) {
			return snap
		}
	}
}

// release drops one pin.
func (s *Store) release(snap *Snapshot) { snap.refs.Add(-1) }

// AcquireEstimator returns the current generation's estimator pinned
// against generation-buffer reuse, with the release callback that undoes
// the pin (idempotent). Browse handlers hold the pin for the duration of
// one request; holding it indefinitely only costs the store a recyclable
// buffer. This is the geobrowse.EstimatorSource contract.
func (s *Store) AcquireEstimator() (core.Estimator, uint64, func()) {
	snap := s.acquireSnapshot()
	var once sync.Once
	return snap.Est, snap.Gen, func() { once.Do(func() { s.release(snap) }) }
}

// Generation returns the current generation number without pinning.
func (s *Store) Generation() uint64 { return s.snap.Load().Gen }
