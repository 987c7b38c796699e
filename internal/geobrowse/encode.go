package geobrowse

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
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
// coordinates: each is formatted once per request into the blocks of
// tileMap and moved into the tiles that touch it, instead of 4·cols·rows
// shortest-float conversions. The blocks live for one request.

// Tile object skeleton, in TileEstimate's field order.
const (
	tileRect      = `{"rect":[`
	tileDisjoint  = `],"disjoint":`
	tileContains  = `,"contains":`
	tileContained = `,"contained":`
	tileOverlap   = `,"overlap":`
	tileClose     = `},`
	tileLabels    = len(tileContains + tileContained + tileOverlap + tileClose) // a tile's text after its rect, besides counts
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
// brace (a drill leaf adds its depth there): the rectangle from the four
// texts a tileMap block holds — `{"rect":[x0,`, `y0,`, `x1,` and
// `y1],"disjoint":` — then the counts clamped at zero (appendCount) like
// core.Estimate.Clamped.
func appendTile(dst, x0, y0, x1, y1 []byte, e core.Estimate) []byte {
	dst = appendCount(append(append(append(append(dst, x0...), y0...), x1...), y1...), e.Disjoint)
	dst = appendCount(append(dst, tileContains...), e.Contains)
	dst = appendCount(append(dst, tileContained...), e.Contained)
	return appendCount(append(dst, tileOverlap...), e.Overlap)
}

// appendSpanTile is appendTile for one free-standing span: its four
// coordinates are formatted on the spot.
func appendSpanTile(dst []byte, g *grid.Grid, span grid.Span, e core.Estimate) ([]byte, error) {
	rect := g.SpanRect(span)
	var scratch [4*32 + len(tileRect) + len(tileDisjoint)]byte
	b := append(scratch[:0], tileRect...)
	var end [4]int
	for k, f := range [4]float64{rect.XMin, rect.YMin, rect.XMax, rect.YMax} {
		var err error
		if b, err = appendJSONFloat(b, f); err != nil {
			return dst, err
		}
		b = append(b, [4]string{",", ",", ",", tileDisjoint}[k]...)
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

// tileBlock is the stride of a tileMap's text blocks (16+16+8 bytes): the
// longest is `],"disjoint":` after a 25-byte -0.0000012345678901234567.
const tileBlock = 40

// tileMap is the tiles array of one browse response before it is written:
// the sweep's estimates plus their tiling's fixed text in zero-padded
// blocks, block k at text[k·tileBlock:], lens[k] bytes long. Tile column c
// has blocks 2c and 2c+1, `{"rect":[x_c,` and `x_{c+1},`; tile row r
// blocks 2·cols+2r and the next, `y_r,` and `y_{r+1}],"disjoint":`.
type tileMap struct {
	cols, rows int
	ests       []core.Estimate
	text       []byte
	lens       []uint8
}

func (m *tileMap) block(k int) []byte { return m.text[k*tileBlock:][:m.lens[k]] }

// newTileMap formats the cols+1 x-edges and rows+1 y-edges of a tiling of
// region into its blocks. ests must be the tiling's row-major estimates.
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
	m := tileMap{cols: cols, rows: rows, ests: ests,
		text: make([]byte, 2*(cols+rows)*tileBlock), lens: make([]uint8, 2*(cols+rows))}
	// The first non-finite edge is the error: an axis whose cell size
	// overflowed has no finite edge, so json.Marshal meets it first too.
	var bad error
	var num [32]byte
	// Edge k of an axis of n tiles closes tile k−1, opens tile k.
	edge := func(first, k, n int, f float64, open, close string) {
		t, err := appendJSONFloat(num[:0], f)
		if err != nil && bad == nil {
			bad = err
		}
		put := func(b int, pre, post string) {
			at := b * tileBlock
			m.lens[b] = uint8(len(append(append(append(m.text[at:at:at+tileBlock], pre...), t...), post...)))
		}
		if k > 0 {
			put(first+2*k-1, "", close)
		}
		if k < n {
			put(first+2*k, open, ",")
		}
	}
	for c := 0; c <= cols; c++ {
		edge(0, c, cols, g.XEdge(region.I1+c*tw), tileRect, ",")
	}
	for r := 0; r <= rows; r++ {
		edge(2*cols, r, rows, g.YEdge(region.J1+r*th), "", tileDisjoint)
	}
	return m, bad
}

// tilesSize returns the exact byte count writeTiles writes: a column's
// blocks are in every row, a row's in every column.
func (m *tileMap) tilesSize() int {
	size := len(m.ests) * tileLabels
	for k, l := range m.lens {
		size += int(l) * m.rows
		if k >= 2*m.cols {
			size += int(l) * (m.cols - m.rows)
		}
	}
	for _, e := range m.ests {
		size += decimalLen(e.Disjoint) + decimalLen(e.Contains) + decimalLen(e.Contained) + decimalLen(e.Overlap)
	}
	return size
}

// The labels before a tile's last three counts in 16 bytes, its end in 8.
var (
	labelContains, labelContained, labelOverlap = padded(tileContains), padded(tileContained), padded(tileOverlap)
	wordClose                                   = [8]byte{tileClose[0], tileClose[1]}
)

func padded(s string) (b [16]byte) {
	copy(b[:], s)
	return b
}

// closeReach is how far wordClose reaches past its tile: no move reaches further.
const closeReach = len(wordClose) - len(tileClose)

// putBlock moves parts of block (16 bytes, 16, 8) to t[o:]; o moves past its n.
func putBlock(t []byte, o int, block []byte, parts int, n uint8) int {
	*(*[16]byte)(t[o:]) = *(*[16]byte)(block)
	if parts > 1 {
		*(*[16]byte)(t[o+16:]) = *(*[16]byte)(block[16:])
		if parts > 2 {
			*(*[8]byte)(t[o+32:]) = *(*[8]byte)(block[32:])
		}
	}
	return o + int(n)
}

// writeTiles writes every tile, row-major from the south-west, each
// followed by a comma, after dst's bytes within its capacity. A tile is
// moved in place — its blocks in as many parts as the longest of the kind
// needs, labels, counts (putQuad, putOctet), wordClose — each move over
// the last one's overhang. A tile with a count of 10^8 or more, and every
// tile within closeReach and one widest tile (longest blocks, 8-digit
// counts) of the capacity's end, goes by appendTile instead, so no move
// leaves the capacity; capacity past the tiles may be overwritten.
func (m *tileMap) writeTiles(dst []byte) []byte {
	var longest, parts [4]int // x opening, x closing, y opening, y closing
	for k, n := range m.lens {
		i := k%2 + 2*min(k/(2*m.cols), 1)
		longest[i] = max(longest[i], int(n))
		parts[i] = (longest[i] + 15) / 16
	}
	buf, pos := dst[:cap(dst)], len(dst)
	stop := len(buf) - closeReach - (longest[0] + longest[1] + longest[2] + longest[3] + tileLabels + 4*8)
	text, lens, k := m.text, m.lens, 0
	for r := 2 * m.cols; r < len(lens); r += 2 {
		yOpen, yClose := text[r*tileBlock:], text[(r+1)*tileBlock:]
		for c := 0; c < 2*m.cols; c, k = c+2, k+1 {
			e := &m.ests[k]
			if pos > stop || max(e.Disjoint, e.Contains, e.Contained, e.Overlap) >= 1e8 {
				pos = len(append(appendTile(buf[:pos], m.block(c), m.block(r), m.block(c+1), m.block(r+1), *e), tileClose...))
				continue
			}
			t := buf[pos:]
			o := putBlock(t, 0, text[c*tileBlock:], parts[0], lens[c])
			o = putBlock(t, o, yOpen, parts[2], lens[r])
			o = putBlock(t, o, text[(c+1)*tileBlock:], parts[1], lens[c+1])
			o = putBlock(t, o, yClose, parts[3], lens[r+1])
			if u := uint64(max(e.Disjoint, 0)); u < 1e4 {
				o += putQuad(t[o:], u)
			} else {
				o += putOctet(t[o:], u)
			}
			*(*[16]byte)(t[o:]) = labelContains
			o += len(tileContains)
			if u := uint64(max(e.Contains, 0)); u < 1e4 {
				o += putQuad(t[o:], u)
			} else {
				o += putOctet(t[o:], u)
			}
			*(*[16]byte)(t[o:]) = labelContained
			o += len(tileContained)
			if u := uint64(max(e.Contained, 0)); u < 1e4 {
				o += putQuad(t[o:], u)
			} else {
				o += putOctet(t[o:], u)
			}
			*(*[16]byte)(t[o:]) = labelOverlap
			o += len(tileOverlap)
			if u := uint64(max(e.Overlap, 0)); u < 1e4 {
				o += putQuad(t[o:], u)
			} else {
				o += putOctet(t[o:], u)
			}
			*(*[8]byte)(t[o:]) = wordClose
			pos += o + len(tileClose)
		}
	}
	return buf[:pos]
}

// pow10 backs decimalLen.
var pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// decimalLen returns the number of digits strconv.AppendInt writes for v
// clamped at zero: ⌊log10 u⌋ is ⌊log2 u⌋·log10(2) rounded down, or one
// more when u reaches the next power of ten (the borrow's sign bit).
func decimalLen(v int64) int {
	u := uint64(max(v, 0))
	t := bits.Len64(u|1) * 1233 >> 12
	return max(t+int((pow10[t]-1-u)>>63), 1)
}

// digitQuads holds each number below 10^4 as four ASCII digits, leading
// zeros included, the first in the lowest byte.
var digitQuads = func() (q [1e4]uint32) {
	for v := range q {
		q[v] = uint32('0'+v/1000) | uint32('0'+v/100%10)<<8 | uint32('0'+v/10%10)<<16 | uint32('0'+v%10)<<24
	}
	return q
}()

// putCount writes strconv.AppendUint(nil, u, 10) at the start of b as
// words of digitQuads entries, the first less its leading zeros, and
// returns the digit count. b must hold max(8, digits) bytes.
func putCount(b []byte, u uint64) int {
	switch {
	case u < 1e4:
		return putQuad(b, u)
	case u < 1e8:
		return putOctet(b, u)
	}
	n := putCount(b, u/1e8)
	binary.LittleEndian.PutUint64(b[n:], uint64(digitQuads[u/1e4%1e4])|uint64(digitQuads[u%1e4])<<32)
	return n + 8
}

// putQuad and putOctet are putCount below 10^4 and 10^8: one entry or two.
func putQuad(b []byte, u uint64) int {
	q := digitQuads[u]
	z := leadingZeros(q)
	binary.LittleEndian.PutUint32(b, q>>(8*z))
	return 4 - z
}

func putOctet(b []byte, u uint64) int {
	q := digitQuads[u/1e4]
	z := leadingZeros(q)
	binary.LittleEndian.PutUint64(b, (uint64(q)|uint64(digitQuads[u%1e4])<<32)>>(8*z))
	return 8 - z
}

// leadingZeros counts the '0's before a digitQuads entry's last digit.
func leadingZeros(q uint32) int { return bits.TrailingZeros32(q^0x30303030|1<<24) / 8 }

// appendCount appends v clamped at zero in decimal, as putCount writes it.
func appendCount(dst []byte, v int64) []byte {
	var b [24]byte // math.MaxInt64 has 19 digits
	return append(dst, b[:putCount(b[:], uint64(max(v, 0)))]...)
}

// appendMapResponse appends a tile-map response object: cols, rows, the
// tiles array, then tail (further members, each with its leading comma) —
// growing dst once, to exactly the bytes written, so a body kept by the
// browse cache retains no slack. The tiles are measured, then written in
// place (writeTiles).
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
	body := m.writeTiles(append(dst, head...))
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
// body, so a recycled buffer costs no allocation; capacity past the body
// may be overwritten.
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
