package experiments

import (
	"bytes"
	"encoding/csv"
	"slices"
	"strings"
	"testing"
)

func TestWriteCSVAllResults(t *testing.T) {
	e := NewEnv(Scaled(1500))
	results := map[string]any{
		"fig12":     Fig12(e),
		"fig13":     Fig13(e),
		"fig14":     Fig14(e),
		"fig15":     Fig15(e),
		"fig16":     Fig16(e),
		"fig17":     Fig17(e),
		"fig18":     Fig18(e),
		"thm31":     Theorem31(e),
		"baselines": IntersectBaselines(e),
		"ablation":  Ablation(e),
		"ext":       Extensions(e),
	}
	for name, res := range results {
		var buf bytes.Buffer
		if err := WriteCSV(&buf, res); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		records, err := csv.NewReader(&buf).ReadAll()
		if err != nil {
			t.Fatalf("%s: output is not valid CSV: %v", name, err)
		}
		if len(records) < 2 {
			t.Fatalf("%s: only %d CSV rows", name, len(records))
		}
		width := len(records[0])
		for i, rec := range records {
			if len(rec) != width {
				t.Fatalf("%s: row %d has %d fields, header has %d", name, i, len(rec), width)
			}
		}
	}
}

func TestWriteCSVFig19(t *testing.T) {
	e := NewEnv(Scaled(1000))
	res := Fig19(e)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"S-EulerApprox", "R-tree (exact)", "M-EulerApprox m=5", "totalNanoseconds"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig19 CSV missing %q", want)
		}
	}
}

// TestWriteCSVRowOrderIsDeclared: fig18 and fig19 keep their curves in maps,
// and their CSV rows must come out in the declared order (Fig18Configs,
// AlgoOrder then m = 2..5) on every run, or a regenerated results_csv/
// cannot be compared with cmp. Failed most runs when the writers ranged
// over the maps.
func TestWriteCSVRowOrderIsDeclared(t *testing.T) {
	e := NewEnv(Scaled(1000))
	firstColumn := func(res any) []string {
		t.Helper()
		var buf bytes.Buffer
		if err := WriteCSV(&buf, res); err != nil {
			t.Fatal(err)
		}
		records, err := csv.NewReader(&buf).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		var series []string
		for _, rec := range records[1:] {
			if len(series) == 0 || series[len(series)-1] != rec[0] {
				series = append(series, rec[0])
			}
		}
		return series
	}
	var want18 []string
	for _, cfg := range Fig18Configs {
		want18 = append(want18, cfg.Name)
	}
	if got := firstColumn(Fig18(e)); !slices.Equal(got, want18) {
		t.Errorf("fig18 CSV lists configurations %q, want %q", got, want18)
	}
	f19 := Fig19(e)
	want19 := append(slices.Clone(f19.AlgoOrder),
		"M-EulerApprox m=2", "M-EulerApprox m=3", "M-EulerApprox m=4", "M-EulerApprox m=5")
	if got := firstColumn(f19); !slices.Equal(got, want19) {
		t.Errorf("fig19 CSV lists series %q, want %q", got, want19)
	}
}

func TestWriteCSVUnknownType(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, 42); err == nil {
		t.Fatal("unknown type must error")
	}
}
