package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"spatialhist/internal/geom"
)

// CSV export turns figure results into the flat series a plotting tool
// wants; cmd/experiments writes one file per figure with -csv.

// WriteCSV renders any experiment result this package produces to CSV.
// Unknown types are rejected rather than silently skipped.
func WriteCSV(w io.Writer, result any) error {
	cw := csv.NewWriter(w)
	defer cw.Flush()
	switch r := result.(type) {
	case Fig12Result:
		return fig12CSV(cw, r)
	case Fig13Result:
		return scatterCSV(cw, r.QueryN, r.Rows)
	case Fig15Result:
		return scatterCSV(cw, r.QueryN, r.Rows)
	case ErrFigure:
		return errFigureCSV(cw, r.Ns, r.Rows)
	case Fig18Result:
		return fig18CSV(cw, r)
	case Fig19Result:
		return fig19CSV(cw, r)
	case Theorem31Result:
		return theorem31CSV(cw, r)
	case IntersectBaselinesResult:
		return baselinesCSV(cw, r)
	case AblationResult:
		return ablationCSV(cw, r)
	case ExtensionsResult:
		return extensionsCSV(cw, r)
	}
	return fmt.Errorf("experiments: no CSV form for %T", result)
}

func fig12CSV(cw *csv.Writer, r Fig12Result) error {
	if err := cw.Write([]string{"dataset", "count", "points", "meanArea", "areaP50", "areaP90", "areaP99", "maxArea", "largeShare"}); err != nil {
		return err
	}
	for _, s := range r.Summaries {
		rec := []string{
			s.Name, strconv.Itoa(s.Count), strconv.Itoa(s.Points),
			ftoa(s.MeanArea), ftoa(s.AreaP50), ftoa(s.AreaP90), ftoa(s.AreaP99),
			ftoa(s.MaxArea), ftoa(s.LargeShare),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	return nil
}

func scatterCSV(cw *csv.Writer, queryN int, rows []ScatterRow) error {
	if err := cw.Write([]string{"dataset", "relation", "queryN", "exact", "estimated"}); err != nil {
		return err
	}
	for _, row := range rows {
		for _, p := range row.Points {
			rec := []string{
				row.Dataset, row.Relation.String(), strconv.Itoa(queryN),
				strconv.FormatInt(p.Exact, 10), strconv.FormatInt(p.Estimated, 10),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

func errFigureCSV(cw *csv.Writer, ns []int, rows []ErrRow) error {
	if err := cw.Write([]string{"dataset", "relation", "queryN", "avgRelError"}); err != nil {
		return err
	}
	for _, row := range rows {
		for i, e := range row.Errors {
			if err := cw.Write([]string{row.Dataset, row.Relation.String(), strconv.Itoa(ns[i]), ftoa(e)}); err != nil {
				return err
			}
		}
	}
	return nil
}

func fig18CSV(cw *csv.Writer, r Fig18Result) error {
	if err := cw.Write([]string{"config", "relation", "queryN", "avgRelError"}); err != nil {
		return err
	}
	for _, cfg := range Fig18Configs { // declared order, not map order
		byRel := r.Curves[cfg.Name]
		for _, rel := range []geom.Rel2{geom.Rel2Contains, geom.Rel2Contained} {
			for i, e := range byRel[rel] {
				if err := cw.Write([]string{cfg.Name, rel.String(), strconv.Itoa(r.Ns[i]), ftoa(e)}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func fig19CSV(cw *csv.Writer, r Fig19Result) error {
	if err := cw.Write([]string{"series", "queryN", "queries", "totalNanoseconds"}); err != nil {
		return err
	}
	for _, algo := range r.AlgoOrder { // declared order, not map order
		for i, t := range r.AlgoTimes[algo] {
			rec := []string{algo, strconv.Itoa(r.Ns[i]), strconv.Itoa(t.Queries),
				strconv.FormatInt(t.Total.Nanoseconds(), 10)}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	for m := 2; m <= 5; m++ {
		for i, t := range r.MEulerTimes[m] {
			rec := []string{fmt.Sprintf("M-EulerApprox m=%d", m), strconv.Itoa(r.Ns[i]),
				strconv.Itoa(t.Queries), strconv.FormatInt(t.Total.Nanoseconds(), 10)}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

func theorem31CSV(cw *csv.Writer, r Theorem31Result) error {
	if err := cw.Write([]string{"nx", "ny", "lowerBound", "oracleCells", "eulerBuckets", "feasible", "verified"}); err != nil {
		return err
	}
	for _, row := range r.Rows {
		rec := []string{
			strconv.Itoa(row.NX), strconv.Itoa(row.NY),
			strconv.FormatInt(row.LowerBound, 10), strconv.FormatInt(row.OracleCells, 10),
			strconv.FormatInt(row.EulerBuckets, 10),
			strconv.FormatBool(row.Feasible), strconv.FormatBool(row.Verified),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	return nil
}

func baselinesCSV(cw *csv.Writer, r IntersectBaselinesResult) error {
	if err := cw.Write([]string{"dataset", "queryN", "eulerExact", "cdExact", "minSkewErr"}); err != nil {
		return err
	}
	for _, row := range r.Rows {
		rec := []string{
			row.Dataset, strconv.Itoa(row.QueryN),
			strconv.FormatBool(row.EulerExact), strconv.FormatBool(row.CDExact),
			ftoa(row.MinSkewErr),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	return nil
}

func ablationCSV(cw *csv.Writer, r AblationResult) error {
	if err := cw.Write([]string{"dataset", "queryN", "sEulerContainsErr", "eulerContainsErr", "naiveMatchesCumulative"}); err != nil {
		return err
	}
	return cw.Write([]string{
		r.Dataset, strconv.Itoa(r.QueryN),
		ftoa(r.SEulerContainsErr), ftoa(r.EulerContainsErr),
		strconv.FormatBool(r.NaiveMatchesCumulative),
	})
}

func ftoa(v float64) string {
	if math.IsNaN(v) {
		return ""
	}
	return strconv.FormatFloat(v, 'g', 10, 64)
}

func extensionsCSV(cw *csv.Writer, r ExtensionsResult) error {
	if err := cw.Write([]string{"metric", "key", "value"}); err != nil {
		return err
	}
	for d := 1; d <= 4; d++ {
		rec := []string{"loopholeContribution", strconv.Itoa(d), strconv.FormatInt(r.LoopholeByDim[d], 10)}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	if err := cw.Write([]string{"intervalContainsErr", "single", ftoa(r.IntervalSingleErr)}); err != nil {
		return err
	}
	return cw.Write([]string{"intervalContainsErr", "partitioned", ftoa(r.IntervalPartitionedErr)})
}
