package spatialhist

import (
	"encoding/csv"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
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

// TestExperimentsQuoteTheirCSV keeps EXPERIMENTS.md's Figure 14, 17 and 18
// tables what the committed CSVs say: every percentage printed is its CSV
// row's avgRelError×100 to within half a unit in its last printed digit
// ("163.4%" to 0.05, "55632.%" to 0.5). A row label without numbers is
// continued on the next line.
func TestExperimentsQuoteTheirCSV(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, fig := range quotedFigures {
		t.Run(fig.csv, func(t *testing.T) {
			want := readFigureCSV(t, filepath.Join("results_csv", fig.csv))
			lines := figureTable(t, string(doc), fig.heading)
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
					got, err := strconv.ParseFloat(p, 64)
					if err != nil {
						t.Fatalf("row %q: %v", line, err)
					}
					v, ok := want[[3]string{a, b, queries[i]}]
					if !ok {
						t.Fatalf("row %q: %s has no row %s,%s,%s", line, fig.csv, a, b, queries[i])
					}
					half := 0.5
					if _, frac, ok := strings.Cut(p, "."); ok {
						half = 0.5 * math.Pow10(-len(frac))
					}
					if diff := math.Abs(100*v - got); diff > half*(1+1e-9) {
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
		})
	}
	t.Logf("%d quoted percentages checked", total)
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
