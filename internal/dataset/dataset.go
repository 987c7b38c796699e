// Package dataset provides the spatial datasets of the paper's evaluation
// (§6.1.1) and tooling around them: deterministic synthetic generators for
// sp_skew and sz_skew, synthetic stand-ins for the proprietary adl and
// ca_road datasets (see DESIGN.md for the substitution rationale), a
// compact binary serialization, and summary statistics.
//
// All datasets live in the paper's 360×180 data space by default and every
// generator is deterministic given its seed.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"spatialhist/internal/geom"
)

// DefaultExtent is the paper's 360×180 world space.
var DefaultExtent = geom.Rect{XMin: 0, YMin: 0, XMax: 360, YMax: 180}

// Dataset is a named collection of object MBRs within an extent.
type Dataset struct {
	Name   string
	Extent geom.Rect
	Rects  []geom.Rect
}

// Len returns the number of objects.
func (d *Dataset) Len() int { return len(d.Rects) }

// String implements fmt.Stringer.
func (d *Dataset) String() string {
	return fmt.Sprintf("%s: %d objects in %v", d.Name, len(d.Rects), d.Extent)
}

// clip clamps r into the extent, preserving at least a degenerate rectangle
// on the boundary for objects generated partially outside.
func clip(r, extent geom.Rect) geom.Rect {
	c, _ := r.Clip(extent)
	return c
}

// SpSkew generates the sp_skew dataset of §6.1.1: n rectangular objects of
// fixed size 3.6×1.8 whose centers exhibit significant spatial skew. The
// paper's figure shows dense clusters over a sparse background; we draw 80%
// of the centers from a mixture of Gaussian clusters and 20% uniformly.
//
// The fixed 3.6×1.8 size is load-bearing for Figure 14(a): objects can only
// cross a query when the tile size drops below 4×4.
func SpSkew(n int, seed int64) *Dataset {
	r := rand.New(rand.NewSource(seed))
	const w, h = 3.6, 1.8
	ext := DefaultExtent

	// Cluster centers loosely mimic populated regions of a world map.
	type cluster struct {
		cx, cy, sx, sy, weight float64
	}
	clusters := []cluster{
		{250, 120, 25, 14, 0.25}, // large eurasian blob
		{90, 110, 14, 10, 0.20},  // north american blob
		{120, 60, 10, 8, 0.12},   // south american blob
		{200, 70, 12, 10, 0.13},  // african blob
		{310, 50, 8, 6, 0.10},    // oceanian blob
	}
	var cum []float64
	total := 0.0
	for _, c := range clusters {
		total += c.weight
		cum = append(cum, total)
	}
	clusterMass := 0.8

	rects := make([]geom.Rect, 0, n)
	for len(rects) < n {
		var cx, cy float64
		if r.Float64() < clusterMass {
			u := r.Float64() * total
			k := 0
			for k < len(cum)-1 && u > cum[k] {
				k++
			}
			c := clusters[k]
			cx = c.cx + r.NormFloat64()*c.sx
			cy = c.cy + r.NormFloat64()*c.sy
		} else {
			cx = r.Float64() * ext.Width()
			cy = r.Float64() * ext.Height()
		}
		obj := geom.RectFromCenter(geom.Point{X: cx, Y: cy}, w, h)
		if !obj.Intersects(ext) {
			continue // resample centers that strayed outside
		}
		rects = append(rects, clip(obj, ext))
	}
	return &Dataset{Name: "sp_skew", Extent: ext, Rects: rects}
}

// SzSkewExponent is the decay exponent of the sz_skew side-length
// distribution (pdf ∝ side^-s on [1, 180]). The value 2.0 keeps a heavy
// head of unit-sized squares with a significant tail of large objects, the
// regime the paper describes: all three relations contains/contained/
// overlap well represented (at Q10, ΣN_cd and ΣN_cs are the same order).
const SzSkewExponent = 2.0

// SzSkew generates the sz_skew dataset of §6.1.1: n square objects with
// centers uniformly distributed in the space and side lengths following a
// Zipf (continuous power-law) distribution between 1.0 and 180.0. The
// significant number of large objects makes all three Level 2 relations
// well represented, which is what breaks the N_cd = 0 assumption of
// S-EulerApprox in Figure 14(b).
func SzSkew(n int, seed int64) *Dataset {
	r := rand.New(rand.NewSource(seed))
	ext := DefaultExtent
	// Inverse-CDF sampling of pdf ∝ x^-s truncated to [1, 180].
	const lo, hi = 1.0, 180.0
	a := 1.0 - SzSkewExponent
	loA, hiA := math.Pow(lo, a), math.Pow(hi, a)
	rects := make([]geom.Rect, 0, n)
	for len(rects) < n {
		side := math.Pow(loA+r.Float64()*(hiA-loA), 1/a)
		cx := r.Float64() * ext.Width()
		cy := r.Float64() * ext.Height()
		obj := geom.RectFromCenter(geom.Point{X: cx, Y: cy}, side, side)
		rects = append(rects, clip(obj, ext))
	}
	return &Dataset{Name: "sz_skew", Extent: ext, Rects: rects}
}

// ADLLike generates a synthetic stand-in for the Alexandria Digital Library
// dataset: a mixture ranging from point records to state/country/world-map
// MBRs, clustered around library "sites". The mixture is calibrated to the
// paper's qualitative description ("ranging from point data to large
// objects such as state, country and world maps"): mostly small objects
// with a significant tail of large ones, the regime where S-EulerApprox
// fails on N_cs but EulerApprox and M-EulerApprox recover.
func ADLLike(n int, seed int64) *Dataset {
	r := rand.New(rand.NewSource(seed))
	ext := DefaultExtent

	// Sites around which records cluster.
	const sites = 40
	siteX := make([]float64, sites)
	siteY := make([]float64, sites)
	for i := range siteX {
		siteX[i] = r.Float64() * ext.Width()
		siteY[i] = r.Float64() * ext.Height()
	}

	center := func() (float64, float64) {
		if r.Float64() < 0.7 {
			k := r.Intn(sites)
			return siteX[k] + r.NormFloat64()*12, siteY[k] + r.NormFloat64()*8
		}
		return r.Float64() * ext.Width(), r.Float64() * ext.Height()
	}

	rects := make([]geom.Rect, 0, n)
	for len(rects) < n {
		cx, cy := center()
		var w, h float64
		switch p := r.Float64(); {
		case p < 0.48:
			// Point records (photographs, gazetteer entries).
			w, h = 0, 0
		case p < 0.88:
			// Local maps: log-normal around ~0.5 units.
			s := math.Exp(r.NormFloat64()*0.8 - 0.7)
			w, h = s, s*(0.5+r.Float64())
		case p < 0.975:
			// City/district maps.
			w = 2 + r.Float64()*8
			h = 1.5 + r.Float64()*6
		case p < 0.997:
			// Regional/state maps.
			w = 10 + r.Float64()*30
			h = 7 + r.Float64()*20
		case p < 0.9998:
			// Country/continent maps.
			w = 40 + r.Float64()*110
			h = 25 + r.Float64()*65
		default:
			// World and hemisphere maps.
			w = 180 + r.Float64()*180
			h = 90 + r.Float64()*90
		}
		obj := geom.RectFromCenter(geom.Point{X: cx, Y: cy}, w, h)
		if !obj.Intersects(ext) {
			continue
		}
		rects = append(rects, clip(obj, ext))
	}
	return &Dataset{Name: "adl", Extent: ext, Rects: rects}
}

// CARoadLike generates a synthetic stand-in for the ca_road dataset: road
// segments produced by random-walk polylines ("roads") plus dense local
// street stubs, normalized to the 360×180 space. Like the TIGER extract,
// virtually every object is a short, thin segment MBR, the regime where
// S-EulerApprox is near-exact for every query size (Figure 14).
func CARoadLike(n int, seed int64) *Dataset {
	r := rand.New(rand.NewSource(seed))
	ext := DefaultExtent
	rects := make([]geom.Rect, 0, n)

	// Long-haul roads: random walks emitting one segment MBR per step.
	for len(rects) < n*7/10 {
		x := r.Float64() * ext.Width()
		y := r.Float64() * ext.Height()
		dir := r.Float64() * 2 * math.Pi
		steps := 20 + r.Intn(200)
		for s := 0; s < steps && len(rects) < n; s++ {
			dir += (r.Float64() - 0.5) * 0.6
			segLen := 0.05 + r.Float64()*0.45
			nx := x + math.Cos(dir)*segLen
			ny := y + math.Sin(dir)*segLen
			seg := geom.NewRect(x, y, nx, ny)
			if seg.Intersects(ext) {
				rects = append(rects, clip(seg, ext))
			}
			x, y = nx, ny
			if !ext.ContainsPoint(geom.Point{X: x, Y: y}) {
				break // the road left the space
			}
		}
	}
	// Local streets: tiny axis-aligned stubs clustered in towns.
	for len(rects) < n {
		tx := r.Float64() * ext.Width()
		ty := r.Float64() * ext.Height()
		town := 50 + r.Intn(400)
		for s := 0; s < town && len(rects) < n; s++ {
			x := tx + r.NormFloat64()*1.5
			y := ty + r.NormFloat64()*1.5
			l := 0.02 + r.Float64()*0.2
			var seg geom.Rect
			if r.Intn(2) == 0 {
				seg = geom.NewRect(x, y, x+l, y)
			} else {
				seg = geom.NewRect(x, y, x, y+l)
			}
			if seg.Intersects(ext) {
				rects = append(rects, clip(seg, ext))
			}
		}
	}
	return &Dataset{Name: "ca_road", Extent: ext, Rects: rects}
}

// Names lists the datasets Generate accepts, in the paper's order.
func Names() []string { return []string{"sp_skew", "sz_skew", "adl", "ca_road"} }

// Generate produces one of the paper's four datasets by name, n objects
// strong; a negative n is an error.
func Generate(name string, n int, seed int64) (*Dataset, error) {
	if n < 0 {
		return nil, fmt.Errorf("dataset: negative object count %d", n)
	}
	switch name {
	case "sp_skew":
		return SpSkew(n, seed), nil
	case "sz_skew":
		return SzSkew(n, seed), nil
	case "adl":
		return ADLLike(n, seed), nil
	case "ca_road":
		return CARoadLike(n, seed), nil
	}
	return nil, fmt.Errorf("dataset: unknown dataset %q (want one of %v)", name, Names())
}

// PaperSize returns the object count the paper used for the named dataset.
func PaperSize(name string) int {
	switch name {
	case "sp_skew", "sz_skew":
		return 1_000_000
	case "adl":
		return 2_335_840
	case "ca_road":
		return 2_665_088
	}
	return 0
}
