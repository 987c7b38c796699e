package experiments

import (
	"fmt"
	"math"
	"strings"

	"spatialhist/internal/core"
	"spatialhist/internal/dataset"
	"spatialhist/internal/geom"
	"spatialhist/internal/metrics"
	"spatialhist/internal/query"
)

// Fig12Result holds the dataset-characteristics data of Figure 12.
type Fig12Result struct {
	Summaries []dataset.Summary
	CenterArt map[string]string // ASCII center-distribution plots
}

// Fig12 generates all four datasets and summarizes their distributions:
// Figure 12(a) is the sp_skew center distribution, 12(b) the sz_skew width
// histogram; the other two datasets are summarized for completeness.
func Fig12(e *Env) Fig12Result {
	res := Fig12Result{CenterArt: make(map[string]string)}
	for _, name := range dataset.Names() {
		d := e.Dataset(name)
		res.Summaries = append(res.Summaries, dataset.Summarize(d))
		res.CenterArt[name] = dataset.RenderCenterGrid(dataset.CenterGrid(d, 72, 18))
	}
	return res
}

// String implements fmt.Stringer.
func (r Fig12Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 12 — dataset characteristics\n\n")
	for _, s := range r.Summaries {
		b.WriteString(s.String())
		if art, ok := r.CenterArt[s.Name]; ok {
			fmt.Fprintf(&b, "  center distribution:\n%s\n", indent(art, "    "))
		}
	}
	return b.String()
}

// ScatterRow is the scatter summary for one dataset and one relation.
type ScatterRow struct {
	Dataset  string
	Relation geom.Rel2
	Stats    metrics.ScatterStats
	Points   []metrics.ScatterPoint // retained for plotting/CSV export
}

// Fig13Result holds the S-EulerApprox scatter data of Figure 13: estimated
// vs exact N_o and N_cs for the Q10 query set on all four datasets.
type Fig13Result struct {
	QueryN int
	Rows   []ScatterRow
}

// Fig13 runs S-EulerApprox over Q10 on every dataset and pairs the
// estimates with the exact answers.
func Fig13(e *Env) Fig13Result {
	res := Fig13Result{QueryN: 10}
	qs := e.QuerySet(res.QueryN)
	for _, name := range dataset.Names() {
		truth := e.Truth(name, res.QueryN)
		est := e.SEuler(name)
		for _, rel := range []geom.Rel2{geom.Rel2Overlap, geom.Rel2Contains} {
			pts := metrics.Scatter(column(truth, rel), estimateColumn(est, qs, rel))
			res.Rows = append(res.Rows, ScatterRow{
				Dataset:  name,
				Relation: rel,
				Stats:    metrics.Summarize(pts),
				Points:   pts,
			})
		}
	}
	return res
}

// String implements fmt.Stringer.
func (r Fig13Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 13 — S-EulerApprox estimated vs exact, Q%d\n\n", r.QueryN)
	writeScatterRows(&b, r.Rows)
	return b.String()
}

// ErrRow is one line of an average-relative-error figure: one dataset, one
// relation, one error value per query set.
type ErrRow struct {
	Dataset  string
	Relation geom.Rel2
	// Errors[i] is the average relative error on query set Q_{Ns[i]};
	// NaN when the query set has no objects in that relation at all.
	Errors []float64
}

// ErrFigure is a figure consisting of error curves over the Q_n sets.
type ErrFigure struct {
	Title string
	Ns    []int
	Rows  []ErrRow
}

// Fig14 computes the S-EulerApprox average relative error of N_o (Figure
// 14a) and N_cs (Figure 14b) for every query set and dataset.
func Fig14(e *Env) ErrFigure {
	return errFigure(e, "Figure 14 — avg relative error of S-EulerApprox",
		dataset.Names(),
		[]geom.Rel2{geom.Rel2Overlap, geom.Rel2Contains},
		func(name string) core.Estimator { return e.SEuler(name) })
}

// Fig15Result holds the EulerApprox scatter data of Figure 15: estimated vs
// exact N_cd and N_cs on Q10 for the large-object datasets.
type Fig15Result struct {
	QueryN int
	Rows   []ScatterRow
}

// Fig15 runs EulerApprox over Q10 on adl and sz_skew.
func Fig15(e *Env) Fig15Result {
	res := Fig15Result{QueryN: 10}
	qs := e.QuerySet(res.QueryN)
	for _, name := range []string{"adl", "sz_skew"} {
		truth := e.Truth(name, res.QueryN)
		est := e.Euler(name)
		for _, rel := range []geom.Rel2{geom.Rel2Contained, geom.Rel2Contains} {
			pts := metrics.Scatter(column(truth, rel), estimateColumn(est, qs, rel))
			res.Rows = append(res.Rows, ScatterRow{
				Dataset:  name,
				Relation: rel,
				Stats:    metrics.Summarize(pts),
				Points:   pts,
			})
		}
	}
	return res
}

// String implements fmt.Stringer.
func (r Fig15Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 15 — EulerApprox estimated vs exact, Q%d\n\n", r.QueryN)
	writeScatterRows(&b, r.Rows)
	return b.String()
}

// Fig16 computes the EulerApprox average relative error of N_cs and N_cd on
// adl and sz_skew across all query sets.
func Fig16(e *Env) ErrFigure {
	return errFigure(e, "Figure 16 — avg relative error of EulerApprox",
		[]string{"adl", "sz_skew"},
		[]geom.Rel2{geom.Rel2Contains, geom.Rel2Contained},
		func(name string) core.Estimator { return e.Euler(name) })
}

// Fig17Areas is the 2-histogram configuration of Figure 17: unit cells and
// 10×10.
var Fig17Areas = []float64{1, 100}

// Fig17 computes the M-EulerApprox (2 histograms) average relative error of
// N_cs and N_cd on adl and sz_skew.
func Fig17(e *Env) ErrFigure {
	fig := errFigure(e, "Figure 17 — avg relative error of M-EulerApprox (2 histograms: 1x1, 10x10)",
		[]string{"adl", "sz_skew"},
		[]geom.Rel2{geom.Rel2Contains, geom.Rel2Contained},
		func(name string) core.Estimator { return e.MEuler(name, Fig17Areas) })
	return fig
}

// Fig18Configs are the 3/4/5-histogram configurations of Figure 18 (areas
// in unit cells: the paper gives side lengths 1,3,5,10,15), plus a
// 6-histogram configuration produced by one more round of the paper's §6.4
// tuning procedure on our data: the residual error peaks at the Q2 query
// area (4 cells), so a threshold is added there. See EXPERIMENTS.md for the
// analysis of why the 2×2 tiles need their own threshold here. The order
// is the order every report and CSV file lists them in.
var Fig18Configs = []struct {
	Name  string
	Areas []float64
}{
	{"3 histograms", []float64{1, 9, 100}},
	{"4 histograms", []float64{1, 9, 25, 100}},
	{"5 histograms", []float64{1, 9, 25, 100, 225}},
	{"6 histograms (tuned)", []float64{1, 4, 9, 25, 100, 225}},
}

// Fig18Result holds the per-configuration error curves of Figure 18.
type Fig18Result struct {
	Ns      []int
	Dataset string
	// Curves maps configuration name → relation → errors per query set.
	Curves map[string]map[geom.Rel2][]float64
}

// Fig18 evaluates M-EulerApprox with 3, 4 and 5 histograms on sz_skew.
func Fig18(e *Env) Fig18Result {
	res := Fig18Result{Ns: query.PaperNs(), Dataset: "sz_skew", Curves: make(map[string]map[geom.Rel2][]float64)}
	for _, cfg := range Fig18Configs {
		est := e.MEuler(res.Dataset, cfg.Areas)
		byRel := make(map[geom.Rel2][]float64)
		for _, rel := range []geom.Rel2{geom.Rel2Contains, geom.Rel2Contained} {
			errs := make([]float64, 0, len(res.Ns))
			for _, n := range res.Ns {
				truth := e.Truth(res.Dataset, n)
				qs := e.QuerySet(n)
				errs = append(errs, metrics.AvgRelativeError(column(truth, rel), estimateColumn(est, qs, rel)))
			}
			byRel[rel] = errs
		}
		res.Curves[cfg.Name] = byRel
	}
	return res
}

// String implements fmt.Stringer.
func (r Fig18Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 18 — avg relative error of M-EulerApprox on %s, more histograms\n\n", r.Dataset)
	for _, cfg := range Fig18Configs {
		byRel, ok := r.Curves[cfg.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%s (areas %v):\n", cfg.Name, cfg.Areas)
		writeErrTable(&b, r.Ns, []ErrRow{
			{Dataset: r.Dataset, Relation: geom.Rel2Contains, Errors: byRel[geom.Rel2Contains]},
			{Dataset: r.Dataset, Relation: geom.Rel2Contained, Errors: byRel[geom.Rel2Contained]},
		})
		b.WriteByte('\n')
	}
	return b.String()
}

// errFigure runs one estimator per dataset over every Q_n and tabulates the
// average relative error per relation.
func errFigure(e *Env, title string, names []string, rels []geom.Rel2, mk func(string) core.Estimator) ErrFigure {
	fig := ErrFigure{Title: title, Ns: query.PaperNs()}
	for _, name := range names {
		est := mk(name)
		for _, rel := range rels {
			row := ErrRow{Dataset: name, Relation: rel}
			for _, n := range fig.Ns {
				truth := e.Truth(name, n)
				qs := e.QuerySet(n)
				row.Errors = append(row.Errors,
					metrics.AvgRelativeError(column(truth, rel), estimateColumn(est, qs, rel)))
			}
			fig.Rows = append(fig.Rows, row)
		}
	}
	return fig
}

// String implements fmt.Stringer.
func (f ErrFigure) String() string {
	var b strings.Builder
	b.WriteString(f.Title)
	b.WriteString("\n\n")
	writeErrTable(&b, f.Ns, f.Rows)
	return b.String()
}

func writeErrTable(b *strings.Builder, ns []int, rows []ErrRow) {
	fmt.Fprintf(b, "%-10s %-10s", "dataset", "relation")
	for _, n := range ns {
		fmt.Fprintf(b, " %8s", fmt.Sprintf("Q%d", n))
	}
	b.WriteByte('\n')
	for _, row := range rows {
		fmt.Fprintf(b, "%-10s %-10s", row.Dataset, row.Relation)
		for _, v := range row.Errors {
			if math.IsNaN(v) {
				fmt.Fprintf(b, " %8s", "-")
			} else {
				fmt.Fprintf(b, " %7.2f%%", 100*v)
			}
		}
		b.WriteByte('\n')
	}
}

func writeScatterRows(b *strings.Builder, rows []ScatterRow) {
	fmt.Fprintf(b, "%-10s %-10s %8s %12s %12s %9s %8s %7s\n",
		"dataset", "relation", "queries", "avgRelErr", "meanAbsErr", "maxAbsErr", "within5%", "slope")
	for _, row := range rows {
		s := row.Stats
		rel := "-"
		if !math.IsNaN(s.AvgRelError) {
			rel = fmt.Sprintf("%.2f%%", 100*s.AvgRelError)
		}
		fmt.Fprintf(b, "%-10s %-10s %8d %12s %12.2f %9d %7.1f%% %7.3f\n",
			row.Dataset, row.Relation, s.N, rel, s.MeanAbsError, s.MaxAbsError,
			100*s.WithinPct, s.RegressionSlope)
	}
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = prefix + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
