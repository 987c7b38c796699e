package geobrowse

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"

	"spatialhist/internal/core"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/query"
)

// Wire encoding. Every tile payload — browse maps, drill leaves, single
// queries, on every Server — is written by the append encoders in this
// file, straight from the sweep's []core.Estimate into one exactly-sized
// buffer. The bytes are those encoding/json produces for
// BrowseResponse, DrillResponse and TileEstimate, which stay the
// decode-side types and the oracle the encoders are fuzzed against
// (FuzzBrowseEncode).
//
// A tile map is measured before it is written (appendMapResponse), so its
// body is allocated once, at the exact size.
//
// A tile map's rectangles are separable per axis (grid.XEdge/YEdge), so a
// cols×rows map has only cols+1 distinct x and rows+1 distinct y
// coordinates: each is formatted once per request (tileMap) and copied
// into the tiles that touch it, instead of 4·cols·rows
// shortest-float conversions. The tables live for one request.

// Tile object skeleton, in TileEstimate's field order.
const (
	tileRect      = `{"rect":[`
	tileDisjoint  = `],"disjoint":`
	tileContains  = `,"contains":`
	tileContained = `,"contained":`
	tileOverlap   = `,"overlap":`
	// tileFixed is a tile's byte count besides its four coordinates and
	// four counts: the skeleton, three commas inside rect, closing brace.
	tileFixed = len(tileRect) + 3 + len(tileDisjoint) + len(tileContains) +
		len(tileContained) + len(tileOverlap) + 1
)

// appendJSONFloat appends f exactly as encoding/json renders a float64:
// shortest round-trip digits, 'f' format unless the magnitude is below
// 1e-6 or at least 1e21, then 'e' format with a two-digit exponent's
// leading zero dropped (1e-09 → 1e-9); negative zero is "-0". Non-finite
// values are the error json.Marshal reports for them.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-2] == '0' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-4] == 'e' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// appendTile appends one tile object up to, not including, its closing
// brace (a drill leaf adds its depth there): the rectangle from four
// pre-formatted coordinates, the counts clamped at zero (appendCount) like
// core.Estimate.Clamped.
func appendTile(dst, x0, y0, x1, y1 []byte, e core.Estimate) []byte {
	dst = append(dst, tileRect...)
	dst = append(dst, x0...)
	dst = append(dst, ',')
	dst = append(dst, y0...)
	dst = append(dst, ',')
	dst = append(dst, x1...)
	dst = append(dst, ',')
	dst = append(dst, y1...)
	dst = append(dst, tileDisjoint...)
	dst = appendCount(dst, e.Disjoint)
	dst = append(dst, tileContains...)
	dst = appendCount(dst, e.Contains)
	dst = append(dst, tileContained...)
	dst = appendCount(dst, e.Contained)
	dst = append(dst, tileOverlap...)
	return appendCount(dst, e.Overlap)
}

// appendSpanTile is appendTile for one free-standing span: its four
// coordinates are formatted on the spot.
func appendSpanTile(dst []byte, g *grid.Grid, span grid.Span, e core.Estimate) ([]byte, error) {
	rect := g.SpanRect(span)
	var scratch [4 * 32]byte
	b := scratch[:0]
	var end [4]int
	for k, f := range [4]float64{rect.XMin, rect.YMin, rect.XMax, rect.YMax} {
		var err error
		if b, err = appendJSONFloat(b, f); err != nil {
			return dst, err
		}
		end[k] = len(b)
	}
	return appendTile(dst, b[:end[0]], b[end[0]:end[1]], b[end[1]:end[2]], b[end[2]:], e), nil
}

// AppendTile appends the wire form of one tile — the /api/query response —
// byte-identical to json.Marshal(NewTileEstimate(g, span, e)).
func AppendTile(dst []byte, g *grid.Grid, span grid.Span, e core.Estimate) ([]byte, error) {
	dst, err := appendSpanTile(dst, g, span, e)
	if err != nil {
		return dst, err
	}
	return append(dst, '}'), nil
}

// AppendDrillResponse appends the /api/drill wire form of a finished
// drill-down, byte-identical to json.Marshal of the DrillResponse holding
// NewTileEstimate(g, leaf.Span, leaf.Estimate) and leaf.Depth per leaf.
func AppendDrillResponse(dst []byte, g *grid.Grid, rel geom.Rel2, leaves []core.DrillTile) ([]byte, error) {
	dst = append(dst, `{"relation":"`...)
	dst = append(dst, rel.String()...)
	dst = append(dst, `","tiles":[`...)
	for k, l := range leaves {
		if k > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendSpanTile(dst, g, l.Span, l.Estimate); err != nil {
			return dst, err
		}
		dst = append(dst, `,"depth":`...)
		dst = strconv.AppendInt(dst, int64(l.Depth), 10)
		dst = append(dst, '}')
	}
	return append(dst, "]}"...), nil
}

// tileMap is the tiles array of one browse response before it is written:
// the sweep's estimates plus the formatted edges of their tiling.
type tileMap struct {
	cols, rows int
	ests       []core.Estimate
	// text holds the edge coordinates back to back, x-edges 0..cols then
	// y-edges 0..rows; the k-th of them is text[off[k]:off[k+1]].
	text []byte
	off  []int32
}

func (m *tileMap) x(c int) []byte { return m.text[m.off[c]:m.off[c+1]] }

func (m *tileMap) y(r int) []byte {
	k := m.cols + 1 + r
	return m.text[m.off[k]:m.off[k+1]]
}

// newTileMap formats the cols+1 x-edges and rows+1 y-edges of a tiling of
// region. ests must be the tiling's row-major estimates.
func newTileMap(g *grid.Grid, region grid.Span, cols, rows int, ests []core.Estimate) (tileMap, error) {
	tw, th, err := query.Tiling(region, cols, rows)
	if err != nil {
		return tileMap{}, err
	}
	if region.I1 < 0 || region.J1 < 0 || region.I2 >= g.NX() || region.J2 >= g.NY() {
		return tileMap{}, fmt.Errorf("geobrowse: region %v outside %v", region, g)
	}
	if len(ests) != cols*rows {
		return tileMap{}, fmt.Errorf("geobrowse: %d estimates for a %dx%d tile map", len(ests), cols, rows)
	}
	edges := cols + rows + 2
	m := tileMap{cols: cols, rows: rows, ests: ests,
		text: make([]byte, 0, 24*edges), off: make([]int32, 1, edges+1)}
	// The first non-finite edge is the error. An axis whose cell size
	// overflowed has no finite edge at all, so that is also the coordinate
	// json.Marshal meets first.
	var bad error
	edge := func(f float64) {
		var err error
		if m.text, err = appendJSONFloat(m.text, f); err != nil && bad == nil {
			bad = err
		}
		m.off = append(m.off, int32(len(m.text)))
	}
	for c := 0; c <= cols; c++ {
		edge(g.XEdge(region.I1 + c*tw))
	}
	for r := 0; r <= rows; r++ {
		edge(g.YEdge(region.J1 + r*th))
	}
	return m, bad
}

// tilesSize returns the exact byte count appendTiles writes.
func (m *tileMap) tilesSize() int {
	// Every row holds each inner x-edge twice, the two outer ones once.
	xs := 2*int(m.off[m.cols+1]) - len(m.x(0)) - len(m.x(m.cols))
	size := 0
	for r := 0; r < m.rows; r++ {
		size += m.cols*(tileFixed+1+len(m.y(r))+len(m.y(r+1))) + xs
	}
	for _, e := range m.ests {
		size += decimalLen(e.Disjoint) + decimalLen(e.Contains) + decimalLen(e.Contained) + decimalLen(e.Overlap)
	}
	return size
}

// appendTiles appends every tile, row-major from the south-west, each
// followed by a comma.
func (m *tileMap) appendTiles(dst []byte) []byte {
	k := 0
	for r := 0; r < m.rows; r++ {
		y0, y1 := m.y(r), m.y(r+1)
		x1 := m.x(0)
		for c := 0; c < m.cols; c++ {
			x0 := x1
			x1 = m.x(c + 1)
			dst = appendTile(dst, x0, y0, x1, y1, m.ests[k])
			dst = append(dst, "},"...)
			k++
		}
	}
	return dst
}

// pow10 backs decimalLen.
var pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// decimalLen returns the number of digits strconv.AppendInt writes for v
// clamped at zero.
func decimalLen(v int64) int {
	u := uint64(max(v, 0))
	// ⌊log10 u⌋ is ⌊log2 u⌋·log10(2) rounded down, or one more.
	t := bits.Len64(u|1) * 1233 >> 12
	if u >= pow10[t] {
		t++
	}
	return max(t, 1)
}

// digitPairs is "00" "01" … "99": two digits per step of appendCount.
const digitPairs = "00010203040506070809" + "10111213141516171819" +
	"20212223242526272829" + "30313233343536373839" + "40414243444546474849" +
	"50515253545556575859" + "60616263646566676869" + "70717273747576777879" +
	"80818283848586878889" + "90919293949596979899"

// appendCount appends v clamped at zero in decimal — the bytes of
// strconv.AppendInt(dst, max(v, 0), 10) — writing the digits in place from
// the last pair back at the length decimalLen gives, with no staging
// buffer to copy from.
func appendCount(dst []byte, v int64) []byte {
	u := uint64(max(v, 0))
	if u < 10 { // most counts of a fine tile map
		return append(dst, byte('0'+u))
	}
	i := len(dst) + decimalLen(v)
	dst = slices.Grow(dst, i-len(dst))[:i]
	for u >= 100 {
		p := u % 100 * 2
		u /= 100
		i -= 2
		dst[i], dst[i+1] = digitPairs[p], digitPairs[p+1]
	}
	if u >= 10 {
		dst[i-2], dst[i-1] = digitPairs[u*2], digitPairs[u*2+1]
	} else {
		dst[i-1] = byte('0' + u)
	}
	return dst
}

// appendMapResponse appends a tile-map response object: cols, rows, the
// tiles array, then tail (further members, each with its leading comma) —
// growing dst once, to exactly the bytes written, so a body kept by the
// browse cache retains no slack. The tiles are measured, then written.
func appendMapResponse(dst []byte, m tileMap, tail []byte) ([]byte, error) {
	var scratch [64]byte
	head := fmt.Appendf(scratch[:0], `{"cols":%d,"rows":%d,"tiles":[`, m.cols, m.rows)
	size := m.tilesSize()
	n := len(dst)
	if total := n + len(head) + size + len(tail) + 1; cap(dst) < total {
		grown := make([]byte, n, total)
		copy(grown, dst)
		dst = grown
	}
	body := m.appendTiles(append(dst, head...))
	if got := len(body) - n - len(head); got != size {
		return dst, fmt.Errorf("geobrowse: tiles encoded to %d bytes, measured %d", got, size)
	}
	body[len(body)-1] = ']' // over the last tile's comma
	return append(append(body, tail...), '}'), nil
}

// AppendBrowseResponse appends the /api/browse wire form of a tile map:
// ests are the raw row-major estimates of a cols×rows tiling of region,
// bound the certified ε-tier error (nil for an exact map). The bytes are
// those of json.Marshal(BrowseResponse{cols, rows, TileEstimates(g,
// region, cols, rows, ests), bound}), and so is the error for a non-finite
// bound or coordinate. dst is grown only when its capacity is short of the
// body, so a recycled buffer costs no allocation.
func AppendBrowseResponse(dst []byte, g *grid.Grid, region grid.Span, cols, rows int, ests []core.Estimate, bound *float64) ([]byte, error) {
	m, err := newTileMap(g, region, cols, rows, ests)
	if err != nil {
		return dst, err
	}
	var tail []byte
	if bound != nil {
		var scratch [64]byte
		tail = append(scratch[:0], `,"approxErrorBound":`...)
		if tail, err = appendJSONFloat(tail, *bound); err != nil {
			return dst, err
		}
	}
	return appendMapResponse(dst, m, tail)
}
