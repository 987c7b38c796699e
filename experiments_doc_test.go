package spatialhist

import (
	"encoding/csv"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"spatialhist/internal/metrics"
)

// quotedFigure is one EXPERIMENTS.md section whose first fenced table
// quotes a results_csv file: columns Q<n>, rows of percentages under a
// label that key names the CSV's first two columns by.
type quotedFigure struct {
	heading string
	csv     string
	key     func(label []string) (string, string)
}

var quotedFigures = []quotedFigure{
	{"## Figure 14 ", "fig14.csv", func(l []string) (string, string) { return l[0], l[1] }},
	{"## Figure 17 ", "fig17.csv", func(l []string) (string, string) { return l[0], "contains" }},
	{"## Figure 18 ", "fig18.csv", func(l []string) (string, string) {
		config := l[0] + " histograms" // "3 hists {1,9,100}" is "3 histograms"
		if l[len(l)-1] == "(tuned)" {
			config += " (tuned)"
		}
		return config, "contains"
	}},
}

// TestExperimentsQuoteTheirCSV keeps EXPERIMENTS.md's figure tables what
// the committed CSVs say, every number to within half a unit in its last
// printed digit ("163.4%" to 0.05, "55632.%" to 0.5). In the Figure 14, 17
// and 18 tables every percentage is its CSV row's avgRelError×100, and a
// row label without numbers is continued on the next line. In the Figure
// 13 and 15 tables each cell's average relative error and regression slope
// are metrics.Summarize over its dataset and relation's rows; bold markers
// and a "slope" prefix are allowed.
func TestExperimentsQuoteTheirCSV(t *testing.T) {
	raw, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	total := 0
	for _, fig := range quotedFigures {
		t.Run(fig.csv, func(t *testing.T) { total += checkQuotedFigure(t, doc, fig) })
	}
	for _, fig := range scatterFigures {
		t.Run(fig.csv, func(t *testing.T) { total += checkScatterFigure(t, doc, fig) })
	}
	t.Logf("%d quoted numbers checked", total)
}

// checkQuotedFigure checks one fenced table of percentages and returns how
// many it checked.
func checkQuotedFigure(t *testing.T, doc string, fig quotedFigure) (total int) {
	want := readFigureCSV(t, filepath.Join("results_csv", fig.csv))
	lines := figureTable(t, doc, fig.heading)
	var queries []string
	for _, col := range strings.Fields(lines[0]) {
		if n, ok := strings.CutPrefix(col, "Q"); ok {
			queries = append(queries, n)
		}
	}
	rows := 0
	var label []string
	for _, line := range lines[1:] {
		fields := strings.Fields(line)
		first := len(fields)
		for first > 0 && strings.HasSuffix(fields[first-1], "%") {
			first--
		}
		label = append(label, fields[:first]...)
		printed := fields[first:]
		if len(printed) == 0 {
			continue
		}
		if len(printed) != len(queries) || len(label) == 0 {
			t.Fatalf("row %q has %d percentages under %d query columns", line, len(printed), len(queries))
		}
		a, b := fig.key(label)
		for i, p := range printed {
			p = strings.TrimSuffix(p, "%")
			v, ok := want[[3]string{a, b, queries[i]}]
			if !ok {
				t.Fatalf("row %q: %s has no row %s,%s,%s", line, fig.csv, a, b, queries[i])
			}
			if !quotes(t, p, 100*v) {
				t.Errorf("%s Q%s prints %s%%, %s has %.6g%%", strings.Join(label, " "), queries[i], p, fig.csv, 100*v)
			}
			total++
		}
		rows++
		label = nil
	}
	if rows == 0 {
		t.Fatalf("no table rows under %q", fig.heading)
	}
	return total
}

// scatterFigure is one EXPERIMENTS.md section whose pipe table quotes a
// scatter CSV (dataset, relation, queryN, exact, estimated): one row per
// dataset, one column per relation, each cell "error% / slope".
type scatterFigure struct {
	heading   string
	csv       string
	relations map[string]string // column header -> the CSV's relation
}

var scatterFigures = []scatterFigure{
	{"## Figure 13 ", "fig13.csv", map[string]string{"N_o": "overlap", "N_cs": "contains"}},
	{"## Figure 15 ", "fig15.csv", map[string]string{"N_cd": "contained", "N_cs": "contains"}},
}

// checkScatterFigure checks one pipe table of "error% / slope" cells and
// returns how many numbers it checked.
func checkScatterFigure(t *testing.T, doc string, fig scatterFigure) (total int) {
	points := readScatterCSV(t, filepath.Join("results_csv", fig.csv))
	rows := pipeTable(t, doc, fig.heading)
	header := rows[0]
	for _, row := range rows[1:] {
		if len(row) != len(header) {
			t.Fatalf("row %q has %d cells under %d columns", row, len(row), len(header))
		}
		for c := 1; c < len(row); c++ {
			rel, ok := fig.relations[header[c]]
			if !ok {
				t.Fatalf("column %q names no relation of %s", header[c], fig.csv)
			}
			pts := points[[2]string{row[0], rel}]
			if len(pts) == 0 {
				t.Fatalf("%s has no rows for %s %s", fig.csv, row[0], rel)
			}
			st := metrics.Summarize(pts)
			errPct, slope, ok := strings.Cut(strings.Trim(row[c], "* "), "/")
			if !ok {
				t.Fatalf("%s %s: cell %q is not error / slope", row[0], header[c], row[c])
			}
			for _, q := range []struct {
				name, printed string
				want          float64
			}{
				{"error %", strings.TrimSuffix(strings.TrimSpace(errPct), "%"), 100 * st.AvgRelError},
				{"slope", strings.TrimPrefix(strings.TrimSpace(slope), "slope "), st.RegressionSlope},
			} {
				if !quotes(t, q.printed, q.want) {
					t.Errorf("%s %s %s prints %s, %s has %.6g", row[0], header[c], q.name, q.printed, fig.csv, q.want)
				}
				total++
			}
		}
	}
	return total
}

// quotes reports whether printed is want to within half a unit in its last
// printed digit.
func quotes(t *testing.T, printed string, want float64) bool {
	t.Helper()
	got, err := strconv.ParseFloat(printed, 64)
	if err != nil {
		t.Fatal(err)
	}
	half := 0.5
	if _, frac, ok := strings.Cut(printed, "."); ok {
		half = 0.5 * math.Pow10(-len(frac))
	}
	return math.Abs(want-got) <= half*(1+1e-9)
}

// pipeTable returns the cells of the first pipe table after heading, its
// header row first and its separator row left out.
func pipeTable(t *testing.T, doc, heading string) [][]string {
	t.Helper()
	_, section, ok := strings.Cut(doc, "\n"+heading)
	if !ok {
		t.Fatalf("EXPERIMENTS.md has no section %q", heading)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var rows [][]string
	for _, line := range strings.Split(section, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "|") {
			if rows != nil {
				break
			}
			continue
		}
		if strings.HasPrefix(line, "|---") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		rows = append(rows, cells)
	}
	if len(rows) < 2 {
		t.Fatalf("no pipe table rows under %q", heading)
	}
	return rows
}

// readScatterCSV groups a scatter CSV's exact/estimated pairs by dataset
// and relation.
func readScatterCSV(t *testing.T, path string) map[[2]string][]metrics.ScatterPoint {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	out := map[[2]string][]metrics.ScatterPoint{}
	for _, r := range recs[1:] {
		exact, err1 := strconv.ParseInt(r[3], 10, 64)
		est, err2 := strconv.ParseInt(r[4], 10, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: row %v", path, r)
		}
		key := [2]string{r[0], r[1]}
		out[key] = append(out[key], metrics.ScatterPoint{Exact: exact, Estimated: est})
	}
	return out
}

// figureTable returns the lines of the first fenced block after heading.
func figureTable(t *testing.T, doc, heading string) []string {
	t.Helper()
	_, section, ok := strings.Cut(doc, "\n"+heading)
	if !ok {
		t.Fatalf("EXPERIMENTS.md has no section %q", heading)
	}
	_, block, ok := strings.Cut(section, "```\n")
	if !ok {
		t.Fatalf("no table under %q", heading)
	}
	block, _, _ = strings.Cut(block, "```")
	lines := strings.Split(strings.TrimRight(block, "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("the table under %q has no rows", heading)
	}
	return lines
}

// readFigureCSV maps a figure CSV's first three columns to its last.
func readFigureCSV(t *testing.T, path string) map[[3]string]float64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	out := map[[3]string]float64{}
	for _, r := range recs[1:] {
		v, err := strconv.ParseFloat(r[3], 64)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out[[3]string{r[0], r[1], r[2]}] = v
	}
	return out
}
