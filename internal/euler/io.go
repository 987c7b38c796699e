package euler

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/prefixsum"
)

// Binary histogram formats:
//
//	magic   [8]byte "SPHEUL01"
//	extent  4×float64
//	nx, ny  uint32
//	count   uint64 (number of inserted objects)
//	buckets (2nx−1)(2ny−1) × int64 signed bucket values
//
// and the packed sibling "SPHEUL02", identical through the count field,
// then:
//
//	width   1 byte: bytes per bucket, 4 or 8
//	buckets (2nx−1)(2ny−1) × int32 or int64 signed bucket values
//
// "SPHEUL03" extends SPHEUL02 with the partial-cell class plane of
// rasterized-object histograms, appended after the buckets:
//
//	classes 1 byte: 1 when a plane follows, 0 otherwise
//	plane   nx·ny × per-cell partial counts at the same bucket width
//
// Little-endian throughout. Files carry bucket values, not the cumulative
// form the histogram holds in memory: the writer differences them back out
// row by row and the reader accumulates them as they arrive, so the formats
// are independent of the resident layout and of its cell width (and bucket
// values, bounded by the object count, are what makes the 4-byte file width
// exact). The file width follows the object count, the resident width what
// the reader sees: a plane comes back narrow when every cumulative value it
// accumulates is within the limit, whatever width the file was written at.
//
// Write emits SPHEUL02, or SPHEUL03 when there is a class plane, at the
// 4-byte width whenever the object count fits int32: each object
// contributes exactly one increment per bucket of its lattice rectangle, so
// every signed bucket value lies in [−n, n] and the narrow encoding is
// exact. Summary files, checkpoints and shard/replica bootstrap transport
// all carry it. Read accepts all three magics, so files written at 8 bytes
// per bucket before Write packed keep loading.
//
// Persistence is what makes the browsing service operational: a histogram
// over millions of objects is a few MB and loads in milliseconds, so a
// server can answer Level 2 queries without ever seeing the objects.

var (
	histMagic        = [8]byte{'S', 'P', 'H', 'E', 'U', 'L', '0', '1'}
	histMagicPacked  = [8]byte{'S', 'P', 'H', 'E', 'U', 'L', '0', '2'}
	histMagicClassed = [8]byte{'S', 'P', 'H', 'E', 'U', 'L', '0', '3'}
)

// Write serializes the histogram to w in the SPHEUL02 format (SPHEUL03
// with a class plane), packing buckets to 4 bytes when the object count
// fits int32 (see the package format comment for why that is exact) and
// falling back to 8-byte buckets otherwise.
func (h *Histogram) Write(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	classed := h.pc != nil
	magic := histMagicPacked
	if classed {
		magic = histMagicClassed
	}
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	ext := h.g.Extent()
	for _, v := range [4]float64{ext.XMin, ext.YMin, ext.XMax, ext.YMax} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(h.g.NX())); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(h.g.NY())); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(h.n)); err != nil {
		return err
	}
	width := 8
	if h.n >= 0 && h.n <= math.MaxInt32 {
		width = 4
	}
	if err := bw.WriteByte(byte(width)); err != nil {
		return err
	}
	buf := make([]byte, 8)
	writeVal := func(v int64) error {
		if width == 4 {
			if v > math.MaxInt32 || v < math.MinInt32 {
				return fmt.Errorf("euler: bucket value %d overflows the packed width (count %d)", v, h.n)
			}
			binary.LittleEndian.PutUint32(buf, uint32(int32(v)))
			_, err := bw.Write(buf[:4])
			return err
		}
		binary.LittleEndian.PutUint64(buf, uint64(v))
		_, err := bw.Write(buf)
		return err
	}
	// Both planes are cumulative-only in memory and ship as the values they
	// accumulate: buckets, then per-cell partial counts.
	writePlane := func(plane *prefixsum.Sum2D) error {
		row := make([]int64, plane.NY())
		for i := 0; i < plane.NX(); i++ {
			rawRowOf(plane, i, 0, row)
			for _, v := range row {
				if err := writeVal(v); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := writePlane(h.hc); err != nil {
		return err
	}
	if classed {
		if err := bw.WriteByte(1); err != nil {
			return err
		}
		if err := writePlane(h.pc); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read deserializes a histogram written by Write, or in any of the three
// formats, rebuilding its cumulative form. The structural invariant Σ buckets == count is verified, so a
// corrupted or truncated payload is detected rather than silently served.
func Read(r io.Reader) (*Histogram, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("euler: reading magic: %w", err)
	}
	if m != histMagic && m != histMagicPacked && m != histMagicClassed {
		return nil, fmt.Errorf("euler: bad magic %q", m)
	}
	classed := m == histMagicClassed
	hasWidth := m == histMagicPacked || classed
	var ext [4]float64
	for i := range ext {
		if err := binary.Read(br, binary.LittleEndian, &ext[i]); err != nil {
			return nil, fmt.Errorf("euler: reading extent: %w", err)
		}
		if math.IsNaN(ext[i]) || math.IsInf(ext[i], 0) {
			return nil, fmt.Errorf("euler: invalid extent value %g", ext[i])
		}
	}
	var nx, ny uint32
	if err := binary.Read(br, binary.LittleEndian, &nx); err != nil {
		return nil, fmt.Errorf("euler: reading nx: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, &ny); err != nil {
		return nil, fmt.Errorf("euler: reading ny: %w", err)
	}
	const maxDim = 1 << 16
	if nx == 0 || ny == 0 || nx > maxDim || ny > maxDim {
		return nil, fmt.Errorf("euler: unreasonable grid %dx%d", nx, ny)
	}
	if ext[0] >= ext[2] || ext[1] >= ext[3] {
		return nil, fmt.Errorf("euler: degenerate extent [%g,%g]x[%g,%g]", ext[0], ext[2], ext[1], ext[3])
	}
	var count uint64
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("euler: reading count: %w", err)
	}
	g := grid.New(geom.Rect{XMin: ext[0], YMin: ext[1], XMax: ext[2], YMax: ext[3]}, int(nx), int(ny))
	lx, ly := 2*int(nx)-1, 2*int(ny)-1
	width := 8
	if hasWidth {
		wb, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("euler: reading bucket width: %w", err)
		}
		if wb != 4 && wb != 8 {
			return nil, fmt.Errorf("euler: invalid bucket width %d", wb)
		}
		width = int(wb)
	}
	buf := make([]byte, 8)
	hc, err := readLattice(br, buf, width, lx, ly)
	if err != nil {
		return nil, err
	}
	var pc *prefixsum.Sum2D
	if classed {
		fb, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("euler: reading class-plane flag: %w", err)
		}
		switch fb {
		case 0:
		case 1:
			cells := make([]int64, 0, min(int(nx)*int(ny), 1<<20))
			for i := 0; i < int(nx)*int(ny); i++ {
				v, err := readValue(br, buf, width)
				if err != nil {
					return nil, fmt.Errorf("euler: reading class plane cell %d: %w", i, err)
				}
				// A cell's partial count is a count of inserted objects.
				if v < 0 || uint64(v) > count {
					return nil, fmt.Errorf("euler: corrupt class plane: cell %d count %d outside [0, %d]", i, v, count)
				}
				cells = append(cells, v)
			}
			pc = prefixsum.AdoptSum2D(cells, int(nx), int(ny))
		default:
			return nil, fmt.Errorf("euler: invalid class-plane flag %d", fb)
		}
	}
	h := &Histogram{g: g, lx: lx, ly: ly, hc: hc, pc: pc, n: int64(count)}
	if h.Total() != h.n {
		return nil, fmt.Errorf("euler: corrupt histogram: bucket sum %d != object count %d", h.Total(), h.n)
	}
	return h, nil
}

// readValue reads one little-endian value of a histogram file, 4 or 8
// bytes wide, through the caller's 8-byte buffer.
func readValue(br *bufio.Reader, buf []byte, width int) (int64, error) {
	if _, err := io.ReadFull(br, buf[:width]); err != nil {
		return 0, err
	}
	if width == 4 {
		return int64(int32(binary.LittleEndian.Uint32(buf[:4]))), nil
	}
	return int64(binary.LittleEndian.Uint64(buf)), nil
}

// readLattice reads the lx×ly signed bucket values of a histogram file, at
// width bytes each, into their cumulative plane: narrow while every prefix
// value is within the limit, widened at the first that is not and wide from
// there. Each value is checked as it is formed, so no plane is staged at
// one width and converted afterwards, and nothing is taken on the header's
// word — the arrays grow as payload arrives, not to the declared size.
func readLattice(br *bufio.Reader, buf []byte, width, lx, ly int) (*prefixsum.Sum2D, error) {
	limit := narrowLimit.Load()
	total := lx * ly
	p32 := make([]int32, 0, min(total, 1<<20))
	var p64 []int64            // the plane from the first value that did not fit
	above := make([]int64, ly) // the prefix row above the one arriving
	for u := 0; u < lx; u++ {
		var acc int64
		for v := range above {
			b, err := readValue(br, buf, width)
			if err != nil {
				return nil, fmt.Errorf("euler: reading bucket %d: %w", u*ly+v, err)
			}
			acc += b
			c := acc + above[v]
			above[v] = c
			if p64 == nil && max(c, ^c) > limit {
				p64 = make([]int64, len(p32), cap(p32))
				addCells(p64, p32)
				p32 = nil
			}
			if p64 != nil {
				p64 = append(p64, c)
			} else {
				p32 = append(p32, int32(c))
			}
		}
	}
	if p64 != nil {
		return prefixsum.Wrap(p64, lx, ly), nil
	}
	return prefixsum.Wrap(p32, lx, ly), nil
}
