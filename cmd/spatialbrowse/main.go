// Command spatialbrowse runs browsing queries over a spatial dataset from
// the terminal: it summarizes the dataset with one of the paper's
// estimators, tiles a selected region, and renders per-tile Level 2
// relation counts as an ASCII heat map — the GeoBrowsing interaction of §1
// without the GUI.
//
// Usage:
//
//	spatialbrowse -dataset adl -n 200000 -algo meuler -cols 36 -rows 18 -relation contains
//	spatialbrowse -file sz_skew.bin -algo euler -region 0,0,180,90 -cols 18 -rows 9
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"spatialhist"
	"spatialhist/internal/dataset"
	"spatialhist/internal/geom"
)

func main() {
	var (
		name     = flag.String("dataset", "adl", "dataset to generate: "+strings.Join(dataset.Names(), ", "))
		n        = flag.Int("n", 100_000, "number of objects to generate")
		seed     = flag.Int64("seed", 2002, "generator seed")
		file     = flag.String("file", "", "load a dataset file instead of generating")
		algo     = flag.String("algo", "meuler", "estimator: seuler, euler, meuler")
		areasArg = flag.String("areas", "1,9,100", "meuler area thresholds in unit cells")
		gridW    = flag.Int("gw", 360, "grid cells in x")
		gridH    = flag.Int("gh", 180, "grid cells in y")
		region   = flag.String("region", "", "browse region x1,y1,x2,y2 (default: whole space)")
		cols     = flag.Int("cols", 36, "tile columns")
		rows     = flag.Int("rows", 18, "tile rows")
		relArg   = flag.String("relation", "contains", "relation to render: contains, contained, overlap, disjoint")
	)
	flag.Parse()

	d, err := loadOrGenerate(*file, *name, *n, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Println(d)

	g := spatialhist.NewGrid(d.Extent, *gridW, *gridH)
	s, err := buildSummary(*algo, *areasArg, g, d.Rects)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("summary: %s, %d buckets\n", s.Algorithm(), s.StorageBuckets())

	browseRect := d.Extent
	if *region != "" {
		browseRect, err = parseRect(*region)
		if err != nil {
			fatal(err)
		}
	}
	rel, err := parseRelation(*relArg)
	if err != nil {
		fatal(err)
	}

	ests, err := s.Browse(browseRect, *cols, *rows)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\n%s per %gx%g tile over %v (north up):\n\n",
		rel, browseRect.Width()/float64(*cols), browseRect.Height()/float64(*rows), browseRect)
	fmt.Print(render(ests, *cols, *rows, rel))
}

func loadOrGenerate(file, name string, n int, seed int64) (*dataset.Dataset, error) {
	if file != "" {
		return dataset.Load(file)
	}
	return dataset.Generate(name, n, seed)
}

func buildSummary(algo, areasArg string, g *spatialhist.Grid, rects []spatialhist.Rect) (*spatialhist.Summary, error) {
	switch algo {
	case "seuler":
		return spatialhist.NewSEuler(g, rects), nil
	case "euler":
		return spatialhist.NewEuler(g, rects), nil
	case "meuler":
		areas, err := parseAreas(areasArg)
		if err != nil {
			return nil, err
		}
		return spatialhist.NewMEuler(g, areas, rects)
	}
	return nil, fmt.Errorf("unknown algorithm %q (want seuler, euler or meuler)", algo)
}

func parseAreas(arg string) ([]float64, error) {
	parts := strings.Split(arg, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("area list %q: %v", arg, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseRect(arg string) (geom.Rect, error) {
	parts := strings.Split(arg, ",")
	if len(parts) != 4 {
		return geom.Rect{}, fmt.Errorf("region %q: want x1,y1,x2,y2", arg)
	}
	var v [4]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return geom.Rect{}, fmt.Errorf("region %q: %v", arg, err)
		}
		v[i] = f
	}
	return geom.NewRect(v[0], v[1], v[2], v[3]), nil
}

func parseRelation(arg string) (spatialhist.Relation, error) {
	switch arg {
	case "contains":
		return spatialhist.RelationContains, nil
	case "contained":
		return spatialhist.RelationContained, nil
	case "overlap":
		return spatialhist.RelationOverlap, nil
	case "disjoint":
		return spatialhist.RelationDisjoint, nil
	}
	return 0, fmt.Errorf("unknown relation %q", arg)
}

// render draws the tile estimates as a log-scaled ASCII heat map with a
// legend, north up.
func render(ests []spatialhist.Estimate, cols, rows int, rel spatialhist.Relation) string {
	shades := []byte(" .:-=+*#%@")
	var maxV int64 = 1
	for _, e := range ests {
		if v := e.Clamped().Get(rel); v > maxV {
			maxV = v
		}
	}
	var b strings.Builder
	for r := rows - 1; r >= 0; r-- {
		for c := 0; c < cols; c++ {
			v := ests[r*cols+c].Clamped().Get(rel)
			k := 0
			if v > 0 {
				k = 1 + int(float64(len(shades)-2)*math.Log1p(float64(v))/math.Log1p(float64(maxV)))
				if k > len(shades)-1 {
					k = len(shades) - 1
				}
			}
			b.WriteByte(shades[k])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "\nscale: ' '=0")
	for k := 1; k < len(shades); k++ {
		lo := int64(math.Expm1(float64(k-1) / float64(len(shades)-2) * math.Log1p(float64(maxV))))
		fmt.Fprintf(&b, "  %c>=%d", shades[k], lo+1)
	}
	b.WriteByte('\n')
	return b.String()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spatialbrowse:", err)
	os.Exit(1)
}
