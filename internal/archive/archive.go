// Package archive implements the multi-attribute browsing service the
// paper's GeoBrowsing prototype provides (§1): "users can make queries
// based on various data attributes such as region, date and subject type",
// with every tile of the selected region answered as a COUNT of the
// records matching all the constraints.
//
// Records carry an MBR, a date, and a subject class. The store partitions
// records by (subject, date band) and keeps one Euler histogram per
// non-empty partition; a browsing query with a subject set and a
// band-aligned date range sums per-tile estimates over the selected
// partitions. Band alignment is the temporal mirror of the paper's
// queries-at-resolution principle: answers are exact/approximate at the
// declared resolutions, and finer filters are rejected rather than
// silently approximated.
//
// Storage is #subjects × #bands histograms; with the paper's grid that is
// ~2 MB per non-empty partition, which is why the schema — not the data —
// bounds the footprint.
package archive

import (
	"fmt"
	"math"

	"spatialhist/internal/core"
	"spatialhist/internal/euler"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/query"
)

// Schema fixes the three browsing resolutions: the spatial grid, the
// subject classes, and the date banding.
type Schema struct {
	Grid *grid.Grid
	// Subjects names the subject classes; records refer to them by index.
	Subjects []string
	// DateLo/DateHi bound the archive's time range, split into DateBands
	// equal bands.
	DateLo, DateHi float64
	DateBands      int
}

// Validate reports whether the schema is usable.
func (s Schema) Validate() error {
	if s.Grid == nil {
		return fmt.Errorf("archive: schema needs a grid")
	}
	if len(s.Subjects) == 0 {
		return fmt.Errorf("archive: schema needs at least one subject class")
	}
	if s.DateBands <= 0 {
		return fmt.Errorf("archive: DateBands must be positive, got %d", s.DateBands)
	}
	if !(s.DateLo < s.DateHi) || math.IsNaN(s.DateLo) || math.IsNaN(s.DateHi) {
		return fmt.Errorf("archive: degenerate date range [%g, %g]", s.DateLo, s.DateHi)
	}
	return nil
}

// bandOf returns the band index of a date, or -1 when outside the range.
// The upper bound is inclusive (the last band is closed).
func (s Schema) bandOf(date float64) int {
	if math.IsNaN(date) || date < s.DateLo || date > s.DateHi {
		return -1
	}
	w := (s.DateHi - s.DateLo) / float64(s.DateBands)
	b := int((date - s.DateLo) / w)
	if b == s.DateBands {
		b--
	}
	return b
}

// Record is one archive entry.
type Record struct {
	MBR     geom.Rect
	Date    float64
	Subject int
}

// Builder accumulates records into per-partition histogram builders.
type Builder struct {
	schema  Schema
	parts   []*euler.Builder // subject*bands + band, nil until first record
	skipped int64
}

// NewBuilder validates the schema and returns an empty Builder.
func NewBuilder(schema Schema) (*Builder, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	return &Builder{
		schema: schema,
		parts:  make([]*euler.Builder, len(schema.Subjects)*schema.DateBands),
	}, nil
}

// Add inserts one record. Records outside the spatial extent, outside the
// date range, or with an unknown subject are counted as skipped and
// reported by Build; bad records are data, not bugs.
func (b *Builder) Add(rec Record) bool {
	if rec.Subject < 0 || rec.Subject >= len(b.schema.Subjects) {
		b.skipped++
		return false
	}
	band := b.schema.bandOf(rec.Date)
	if band < 0 {
		b.skipped++
		return false
	}
	idx := rec.Subject*b.schema.DateBands + band
	if b.parts[idx] == nil {
		b.parts[idx] = euler.NewBuilder(b.schema.Grid)
	}
	if !b.parts[idx].Add(rec.MBR) {
		b.skipped++
		return false
	}
	return true
}

// Build finalizes the archive.
func (b *Builder) Build() *Archive {
	a := &Archive{
		schema:  b.schema,
		parts:   make([]*core.Euler, len(b.parts)),
		counts:  make([]int64, len(b.parts)),
		skipped: b.skipped,
	}
	for i, pb := range b.parts {
		if pb == nil {
			continue
		}
		h := pb.Build()
		a.parts[i] = core.NewEuler(h)
		a.counts[i] = h.Count()
		a.total += h.Count()
		a.buckets += h.StorageBuckets()
	}
	return a
}

// Archive answers multi-attribute browsing queries from per-partition
// Euler histograms. Immutable and safe for concurrent queries.
type Archive struct {
	schema  Schema
	parts   []*core.Euler
	counts  []int64
	total   int64
	buckets int
	skipped int64
}

// Schema returns the archive's schema.
func (a *Archive) Schema() Schema { return a.schema }

// Count returns the number of stored records.
func (a *Archive) Count() int64 { return a.total }

// Skipped returns how many records Add rejected.
func (a *Archive) Skipped() int64 { return a.skipped }

// StorageBuckets returns the total histogram buckets across non-empty
// partitions.
func (a *Archive) StorageBuckets() int { return a.buckets }

// PartitionCount returns the record count of one (subject, band) partition.
func (a *Archive) PartitionCount(subject, band int) int64 {
	if subject < 0 || subject >= len(a.schema.Subjects) || band < 0 || band >= a.schema.DateBands {
		panic(fmt.Sprintf("archive: partition (%d,%d) out of range", subject, band))
	}
	return a.counts[subject*a.schema.DateBands+band]
}

// Filter restricts a browsing query to subjects and a date range.
type Filter struct {
	// Subjects selects subject classes by index; nil or empty means all.
	Subjects []int
	// DateFrom and DateTo bound the dates (inclusive); both zero means the
	// whole range. The bounds must align with the schema's band edges.
	DateFrom, DateTo float64
}

// bands resolves the filter to a band range and subject set.
func (a *Archive) resolve(f Filter) (subjects []int, bandLo, bandHi int, err error) {
	s := a.schema
	if len(f.Subjects) == 0 {
		subjects = make([]int, len(s.Subjects))
		for i := range subjects {
			subjects[i] = i
		}
	} else {
		for _, sub := range f.Subjects {
			if sub < 0 || sub >= len(s.Subjects) {
				return nil, 0, 0, fmt.Errorf("archive: unknown subject index %d", sub)
			}
		}
		subjects = f.Subjects
	}
	if f.DateFrom == 0 && f.DateTo == 0 {
		return subjects, 0, s.DateBands - 1, nil
	}
	if !(f.DateFrom < f.DateTo) {
		return nil, 0, 0, fmt.Errorf("archive: empty date range [%g, %g]", f.DateFrom, f.DateTo)
	}
	w := (s.DateHi - s.DateLo) / float64(s.DateBands)
	lo := (f.DateFrom - s.DateLo) / w
	hi := (f.DateTo - s.DateLo) / w
	const tol = 1e-9
	if math.Abs(lo-math.Round(lo)) > tol || math.Abs(hi-math.Round(hi)) > tol {
		return nil, 0, 0, fmt.Errorf("archive: date range [%g, %g] does not align with the %d-band resolution",
			f.DateFrom, f.DateTo, s.DateBands)
	}
	bandLo = int(math.Round(lo))
	bandHi = int(math.Round(hi)) - 1
	if bandLo < 0 || bandHi >= s.DateBands || bandLo > bandHi {
		return nil, 0, 0, fmt.Errorf("archive: date range [%g, %g] outside the archive's [%g, %g]",
			f.DateFrom, f.DateTo, s.DateLo, s.DateHi)
	}
	return subjects, bandLo, bandHi, nil
}

// MatchCount returns how many records match the filter regardless of
// location.
func (a *Archive) MatchCount(f Filter) (int64, error) {
	subjects, bandLo, bandHi, err := a.resolve(f)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, sub := range subjects {
		for band := bandLo; band <= bandHi; band++ {
			n += a.counts[sub*a.schema.DateBands+band]
		}
	}
	return n, nil
}

// Estimate returns the Level 2 counts of the filtered records for one
// grid-aligned tile.
func (a *Archive) Estimate(f Filter, tile grid.Span) (core.Estimate, error) {
	subjects, bandLo, bandHi, err := a.resolve(f)
	if err != nil {
		return core.Estimate{}, err
	}
	return a.estimate(subjects, bandLo, bandHi, tile), nil
}

func (a *Archive) estimate(subjects []int, bandLo, bandHi int, tile grid.Span) core.Estimate {
	var out core.Estimate
	for _, sub := range subjects {
		for band := bandLo; band <= bandHi; band++ {
			p := a.parts[sub*a.schema.DateBands+band]
			if p == nil {
				continue
			}
			e := p.Estimate(tile)
			out.Disjoint += e.Disjoint
			out.Contains += e.Contains
			out.Contained += e.Contained
			out.Overlap += e.Overlap
		}
	}
	return out
}

// Browse answers a full browsing interaction: the filtered records against
// every tile of a cols×rows tiling of the region (row-major from the
// south-west). Partitions hold disjoint record sets, so their raw estimates
// add: every selected partition's plan (core.PlanGrid) sweeps straight into
// the one result plane, O(partitions × tiles) additions and no plane per
// partition.
func (a *Archive) Browse(f Filter, region grid.Span, cols, rows int) ([]core.Estimate, error) {
	subjects, bandLo, bandHi, err := a.resolve(f)
	if err != nil {
		return nil, err
	}
	if _, _, err := query.Tiling(region, cols, rows); err != nil {
		return nil, err
	}
	out := make([]core.Estimate, cols*rows)
	for _, sub := range subjects {
		for band := bandLo; band <= bandHi; band++ {
			p := a.parts[sub*a.schema.DateBands+band]
			if p == nil {
				continue
			}
			plan, err := core.PlanGrid(p, region, cols, rows, 0)
			if err != nil {
				return nil, err
			}
			if err := plan.Add(out); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
