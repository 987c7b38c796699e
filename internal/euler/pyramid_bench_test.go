package euler

import (
	"testing"
)

// pyramidHarness extends the rebuild harness with the pyramid ping-pong a
// pyramid-enabled live store performs: the retired generation donates its
// base arrays to BuildFrom as scratch and its coarse levels to
// PyramidFrom for in-place repair.
type pyramidHarness struct {
	*rebuildHarness
	opts    PyramidOpts
	pyr     *Pyramid // pyramid over prev
	retired *Pyramid // pyramid over scratch (the retired generation)
}

func newPyramidHarness(n, objects, hotLo, hotHi, hotCount int, opts PyramidOpts) *pyramidHarness {
	h := &pyramidHarness{rebuildHarness: newRebuildHarness(n, objects, hotLo, hotHi, hotCount), opts: opts}
	h.pyr = NewPyramid(h.prev, opts)
	return h
}

// publish is rebuildHarness.publish by BuildFrom's own choice plus the
// pyramid propagation.
func (h *pyramidHarness) publish() {
	donor, inPlace := h.pyr, false
	if h.scratch != nil && h.retired != nil {
		donor, inPlace = h.retired, true
	}
	nh, stats := h.bld.BuildFrom(h.prev, BuildFromOpts{Scratch: h.scratch, Stale: h.stale})
	if nh == h.prev {
		return
	}
	np := PyramidFrom(nh, PyramidFromOpts{
		Opts: h.opts, Donor: donor, Stale: stats.Dirty, InPlace: inPlace,
	})
	h.scratch, h.stale = h.prev, stats.Dirty
	h.prev = nh
	h.retired, h.pyr = h.pyr, np
}

// BenchmarkPyramidRepair measures keeping a full zoom stack current under
// the ≤1% dirty balanced-churn workload of BenchmarkRebuildIncremental:
// the incremental path propagates the dirty box up six coarse levels in
// place, the full path rebuilds base and stack from scratch every
// generation.
func BenchmarkPyramidRepair(b *testing.B) {
	opts := PyramidOpts{MinGrid: 16} // 1024 → 512 → … → 16: six coarse levels
	b.Run("incremental", func(b *testing.B) {
		h := newPyramidHarness(benchGridN, 200_000, benchHotLo, benchHotHi, 64, opts)
		for i := 0; i < 3; i++ { // establish the ping-pong before timing
			h.mutate()
			h.publish()
		}
		if h.pyr.Levels() != 7 {
			b.Fatalf("pyramid has %d levels, want 7", h.pyr.Levels())
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.mutate()
			h.publish()
		}
	})
	b.Run("full", func(b *testing.B) {
		h := newPyramidHarness(benchGridN, 200_000, benchHotLo, benchHotHi, 64, opts)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.mutate()
			h.prev = h.bld.Build()
			h.pyr = NewPyramid(h.prev, opts)
		}
	})
}
