// Command spatialgen generates the evaluation datasets of the paper
// (sp_skew, sz_skew, adl, ca_road) and writes them in the library's binary
// format, optionally printing the Figure 12-style distribution summary.
//
// Usage:
//
//	spatialgen -dataset sz_skew -n 1000000 -seed 2002 -out sz_skew.bin
//	spatialgen -dataset adl -n 100000 -summary
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"spatialhist/internal/dataset"
	"spatialhist/internal/euler"
	"spatialhist/internal/grid"
)

func main() {
	var (
		name    = flag.String("dataset", "sp_skew", "dataset to generate: "+strings.Join(dataset.Names(), ", "))
		n       = flag.Int("n", 100_000, "number of objects (0 = the paper's size for this dataset)")
		seed    = flag.Int64("seed", 2002, "generator seed")
		out     = flag.String("out", "", "output file (omit to skip writing)")
		outCSV  = flag.String("csv", "", "also write the dataset as x1,y1,x2,y2 CSV")
		summary = flag.Bool("summary", false, "print the distribution summary and center plot")
		poly    = flag.Bool("poly", false, "inscribe simple polygons into the MBRs and rasterize them")
		stars   = flag.Float64("stars", 0.25, "with -poly: fraction of concave star polygons")
		rectsF  = flag.Float64("rects", 0.2, "with -poly: fraction kept as exact rectangles")
		nx      = flag.Int("nx", 360, "with -poly: histogram grid cells along x")
		ny      = flag.Int("ny", 180, "with -poly: histogram grid cells along y")
		hist    = flag.String("hist", "", "with -poly: write the rasterized histogram (SPHEUL03) here")
	)
	flag.Parse()

	if *n == 0 {
		*n = dataset.PaperSize(*name)
	}
	d, err := dataset.Generate(*name, *n, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Println(d)

	if *summary {
		fmt.Print(dataset.Summarize(d))
		fmt.Println("center distribution:")
		fmt.Print(dataset.RenderCenterGrid(dataset.CenterGrid(d, 72, 18)))
	}
	if *out != "" {
		if err := d.Save(*out); err != nil {
			fatal(err)
		}
		report(*out)
	}
	if *poly {
		pd := dataset.Polygonize(d, *seed, *stars, *rectsF)
		fmt.Println(pd)
		g := grid.New(d.Extent, *nx, *ny)
		b := euler.NewBuilder(g)
		components, skipped := 0, 0
		for _, p := range pd.Polys {
			rs := g.Rasterize(p)
			if len(rs) == 0 {
				skipped++ // degenerate or sub-cell slivers that cover nothing
				continue
			}
			for _, rst := range rs {
				b.AddRaster(rst)
			}
			components += len(rs)
		}
		h := b.Build()
		partial, _ := h.PartialIn(grid.Span{I1: 0, J1: 0, I2: g.NX() - 1, J2: g.NY() - 1})
		fmt.Printf("rasterized %d components on %v (%d skipped, %d partial-cell incidences)\n",
			components, g, skipped, partial)
		if *hist != "" {
			f, err := os.Create(*hist)
			if err != nil {
				fatal(err)
			}
			err = h.Write(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fatal(err)
			}
			report(*hist)
		}
	}
	if *outCSV != "" {
		f, err := os.Create(*outCSV)
		if err != nil {
			fatal(err)
		}
		err = d.WriteCSV(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		report(*outCSV)
	}
}

func report(path string) {
	info, err := os.Stat(path)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%.1f MB)\n", path, float64(info.Size())/(1<<20))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spatialgen:", err)
	os.Exit(1)
}
