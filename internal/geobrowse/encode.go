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
// file, straight from the sweep's []core.Estimate into one buffer. The
// bytes are those encoding/json produces for BrowseResponse,
// DrillResponse and TileEstimate, which stay the decode-side types and
// the oracle the encoders are fuzzed against (FuzzBrowseEncode).
//
// A tile map is written in one pass (appendResponse): its body grows at
// most once, to a bound that takes every count at 8 digits, unless a count
// of 10^8 or more takes it past that bound (writeTiles).
//
// A tile map's rectangles are separable per axis (grid.XEdge/YEdge), so a
// cols×rows map has only cols+1 distinct x and rows+1 distinct y
// coordinates. A Server formats every edge of its grid once, in New
// (edgeTexts); a request copies the ones its tiling uses into the blocks
// of tileMap, which are moved into the tiles that touch them, instead of
// 4·cols·rows shortest-float conversions. A server's requests recycle the
// blocks with the body (mapBuffers); AppendBrowseResponse makes the
// table, the blocks and the body afresh.

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

// edgeTexts is a grid's edges as appendJSONFloat writes them, formatted
// once: entry k is text[off[k]:off[k+1]], x-edges 0..nx first, then
// y-edges 0..ny. A non-finite edge has no text.
type edgeTexts struct {
	g    *grid.Grid
	text []byte
	off  []int
}

// newEdgeTexts formats g's nx+1 x-edges and ny+1 y-edges, O(nx+ny).
func newEdgeTexts(g *grid.Grid) *edgeTexts {
	nx, ny := g.NX(), g.NY()
	e := &edgeTexts{g: g, off: make([]int, 1, nx+ny+3)}
	for k := 0; k <= nx+ny+1; k++ {
		e.text, _ = appendJSONFloat(e.text, e.coord(k)) // a non-finite edge appends nothing
		e.off = append(e.off, len(e.text))
	}
	return e
}

// coord is entry k's coordinate.
func (e *edgeTexts) coord(k int) float64 {
	if nx := e.g.NX(); k > nx {
		return e.g.YEdge(k - nx - 1)
	}
	return e.g.XEdge(k)
}

// edge returns entry k's text, or for a non-finite edge the error
// json.Marshal reports for it.
func (e *edgeTexts) edge(k int) ([]byte, error) {
	if t := e.text[e.off[k]:e.off[k+1]]; len(t) > 0 {
		return t, nil
	}
	_, err := appendJSONFloat(nil, e.coord(k))
	return nil, err
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
// the sweep's estimates plus their tiling's fixed text in padded blocks
// (what pads a recycled block is stale and moved only as overhang), block
// k at text[k·tileBlock:], lens[k] bytes long. Tile column c
// has blocks 2c and 2c+1, `{"rect":[x_c,` and `x_{c+1},`; tile row r
// blocks 2·cols+2r and the next, `y_r,` and `y_{r+1}],"disjoint":`.
type tileMap struct {
	cols, rows int
	ests       []core.Estimate
	text       []byte
	lens       []uint8
}

func (m *tileMap) block(k int) []byte { return m.text[k*tileBlock:][:m.lens[k]] }

// reset copies the cols+1 x-edge and rows+1 y-edge texts of a tiling of
// region out of e into m's blocks, in the storage of m's last tiling when
// it is large enough. ests must be the tiling's row-major estimates.
func (m *tileMap) reset(e *edgeTexts, region grid.Span, cols, rows int, ests []core.Estimate) error {
	g := e.g
	tw, th, err := query.Tiling(region, cols, rows)
	if err != nil {
		return err
	}
	if region.I1 < 0 || region.J1 < 0 || region.I2 >= g.NX() || region.J2 >= g.NY() {
		return fmt.Errorf("geobrowse: region %v outside %v", region, g)
	}
	if len(ests) != cols*rows {
		return fmt.Errorf("geobrowse: %d estimates for a %dx%d tile map", len(ests), cols, rows)
	}
	blocks := 2 * (cols + rows)
	if cap(m.lens) < blocks {
		m.text, m.lens = make([]byte, blocks*tileBlock), make([]uint8, blocks)
	}
	*m = tileMap{cols: cols, rows: rows, ests: ests, text: m.text[:blocks*tileBlock], lens: m.lens[:blocks]}
	// Edge k of an axis of n tiles closes tile k−1, opens tile k. The
	// first non-finite edge, x before y, is the error: an axis whose cell
	// size overflowed has no finite edge, so json.Marshal meets it first too.
	edge := func(first, k, n, entry int, open, close string) error {
		t, err := e.edge(entry)
		if err != nil {
			return err
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
		return nil
	}
	for c := 0; c <= cols; c++ {
		if err := edge(0, c, cols, region.I1+c*tw, tileRect, ","); err != nil {
			return err
		}
	}
	for r := 0; r <= rows; r++ {
		if err := edge(2*cols, r, rows, g.NX()+1+region.J1+r*th, "", tileDisjoint); err != nil {
			return err
		}
	}
	return nil
}

// tilesBound bounds the bytes writeTiles writes: exact but for the
// counts, each taken at the 8 digits of one below 10^8. A column's blocks
// are in every row, a row's in every column.
func (m *tileMap) tilesBound() int {
	size := len(m.ests) * (tileLabels + 4*8)
	for k, l := range m.lens {
		size += int(l) * m.rows
		if k >= 2*m.cols {
			size += int(l) * (m.cols - m.rows)
		}
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
// leaves the capacity; capacity past the tiles may be overwritten. When
// appendTile outgrows the capacity, the tiles after it go on in the
// buffer it grew.
func (m *tileMap) writeTiles(dst []byte) []byte {
	var longest, parts [4]int // x opening, x closing, y opening, y closing
	for k, n := range m.lens {
		i := k%2 + 2*min(k/(2*m.cols), 1)
		longest[i] = max(longest[i], int(n))
		parts[i] = (longest[i] + 15) / 16
	}
	widest := closeReach + longest[0] + longest[1] + longest[2] + longest[3] + tileLabels + 4*8
	buf, pos := dst[:cap(dst)], len(dst)
	stop := len(buf) - widest
	text, lens, k := m.text, m.lens, 0
	for r := 2 * m.cols; r < len(lens); r += 2 {
		yOpen, yClose := text[r*tileBlock:], text[(r+1)*tileBlock:]
		for c := 0; c < 2*m.cols; c, k = c+2, k+1 {
			e := &m.ests[k]
			if pos > stop || max(e.Disjoint, e.Contains, e.Contained, e.Overlap) >= 1e8 {
				b := append(appendTile(buf[:pos], m.block(c), m.block(r), m.block(c+1), m.block(r+1), *e), tileClose...)
				buf, pos, stop = b[:cap(b)], len(b), cap(b)-widest
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

// AppendBrowseResponse appends the /api/browse wire form of a tile map:
// ests are the raw row-major estimates of a cols×rows tiling of region.
// The bytes are those of json.Marshal(BrowseResponse{cols, rows,
// TileEstimates(g, region, cols, rows, ests)}), and so is the error for a
// non-finite coordinate. It formats g's edges on each call, O(nx+ny); a
// Server formats them once, in New. dst is grown only when its capacity is
// short of the body's bound — its bytes with every count at 8 digits — and
// then once, to that bound, unless a count of 10^8 or more takes the body
// past it; a recycled buffer with room costs no allocation, and capacity
// past the body may be overwritten.
func AppendBrowseResponse(dst []byte, g *grid.Grid, region grid.Span, cols, rows int, ests []core.Estimate) ([]byte, error) {
	return new(tileMap).appendResponse(dst, newEdgeTexts(g), region, cols, rows, ests)
}

// appendResponse is AppendBrowseResponse with the grid's edges formatted
// in e and the tiling's blocks in m's recycled storage. The tiles are
// written in place (writeTiles) after the head.
func (m *tileMap) appendResponse(dst []byte, e *edgeTexts, region grid.Span, cols, rows int, ests []core.Estimate) ([]byte, error) {
	if err := m.reset(e, region, cols, rows, ests); err != nil {
		return dst, err
	}
	var scratch [128]byte
	head := strconv.AppendInt(append(scratch[:0], `{"cols":`...), int64(cols), 10)
	head = append(strconv.AppendInt(append(head, `,"rows":`...), int64(rows), 10), `,"tiles":[`...)
	n := len(dst)
	if most := n + len(head) + m.tilesBound() + 1; cap(dst) < most {
		grown := make([]byte, n, most)
		copy(grown, dst)
		dst = grown
	}
	body := m.writeTiles(append(dst, head...))
	body[len(body)-1] = ']' // over the last tile's comma
	return append(body, '}'), nil
}
