package metrics

import (
	"math"
	"testing"
	"time"
)

func TestAvgRelativeError(t *testing.T) {
	cases := []struct {
		name  string
		exact []int64
		est   []int64
		want  float64
	}{
		{"perfect", []int64{10, 20}, []int64{10, 20}, 0},
		{"paper formula", []int64{10, 10}, []int64{8, 14}, (2.0 + 4.0) / 20.0},
		{"negative estimates count fully", []int64{10}, []int64{-10}, 2},
		{"all zero exact and est", []int64{0, 0}, []int64{0, 0}, 0},
		{"empty", nil, nil, 0},
	}
	for _, c := range cases {
		if got := AvgRelativeError(c.exact, c.est); got != c.want {
			t.Errorf("%s: AvgRelativeError = %g, want %g", c.name, got, c.want)
		}
	}
	if got := AvgRelativeError([]int64{0}, []int64{5}); !math.IsNaN(got) {
		t.Errorf("zero exact with nonzero estimate = %g, want NaN", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch must panic")
		}
	}()
	AvgRelativeError([]int64{1}, []int64{1, 2})
}

func TestScatterAndSummarize(t *testing.T) {
	pts := Scatter([]int64{100, 200, 0}, []int64{105, 190, 1})
	if len(pts) != 3 || pts[1] != (ScatterPoint{Exact: 200, Estimated: 190}) {
		t.Fatalf("Scatter = %v", pts)
	}
	s := Summarize(pts)
	if s.N != 3 || s.MaxAbsError != 10 || s.ExactMax != 200 || s.EstimatedMax != 190 {
		t.Fatalf("Summarize = %+v", s)
	}
	if math.Abs(s.MeanAbsError-16.0/3) > 1e-12 {
		t.Errorf("MeanAbsError = %g", s.MeanAbsError)
	}
	// All three points are within 5% (or ±1): 105 vs 100 (5), 190 vs 200
	// (10), 1 vs 0 (1).
	if s.WithinPct != 1 {
		t.Errorf("WithinPct = %g", s.WithinPct)
	}
	if s.PearsonApprox < 0.99 {
		t.Errorf("Pearson = %g for a near-diagonal scatter", s.PearsonApprox)
	}
	if math.Abs(s.RegressionSlope-1) > 0.1 {
		t.Errorf("slope = %g", s.RegressionSlope)
	}
	if got := Summarize(nil); got.N != 0 {
		t.Errorf("empty Summarize = %+v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Scatter length mismatch must panic")
		}
	}()
	Scatter([]int64{1}, nil)
}

func TestSummarizeConstantExact(t *testing.T) {
	// Zero variance in one coordinate: Pearson stays 0 rather than NaN.
	s := Summarize([]ScatterPoint{{5, 4}, {5, 6}, {5, 5}})
	if math.IsNaN(s.PearsonApprox) || s.PearsonApprox != 0 {
		t.Errorf("Pearson = %g, want 0", s.PearsonApprox)
	}
}

func TestTiming(t *testing.T) {
	tm := Timing{Queries: 100, Total: 200 * time.Millisecond}
	if tm.PerQuery() != 2*time.Millisecond {
		t.Errorf("PerQuery = %v", tm.PerQuery())
	}
	if (Timing{}).PerQuery() != 0 {
		t.Errorf("zero Timing PerQuery must be 0")
	}
	if tm.String() == "" {
		t.Error("String empty")
	}
}

func TestMeasure(t *testing.T) {
	calls := 0
	tm := Measure(10, 0, func() { calls++ })
	if calls != 1 {
		t.Errorf("Measure with zero minDuration ran %d times, want 1", calls)
	}
	if tm.Queries != 10 || tm.Total < 0 {
		t.Errorf("Measure = %+v", tm)
	}

	// Measure repeats until its calls add up to minDuration and stops at
	// the first call that crosses it, however long any one sleep takes.
	// The times f takes inside itself fall short of what Measure clocks
	// around it, so the calls all together are clocked around Measure.
	const minDuration = 2 * time.Millisecond
	var took []time.Duration
	start := time.Now()
	Measure(1, minDuration, func() {
		t0 := time.Now()
		time.Sleep(time.Millisecond)
		took = append(took, time.Since(t0))
	})
	if all := time.Since(start); all < minDuration {
		t.Errorf("Measure stopped after %d calls in %v, short of minDuration %v", len(took), all, minDuration)
	}
	var before time.Duration
	for _, d := range took[:len(took)-1] {
		before += d
	}
	if before >= minDuration {
		t.Errorf("Measure ran on past minDuration: the first %d of %d calls took %v", len(took)-1, len(took), before)
	}
}

func TestQuantile(t *testing.T) {
	vals := []float64{5, 1, 3, 2, 4}
	if Quantile(vals, 0) != 1 || Quantile(vals, 1) != 5 || Quantile(vals, 0.5) != 3 {
		t.Errorf("Quantile wrong: %g %g %g", Quantile(vals, 0), Quantile(vals, 1), Quantile(vals, 0.5))
	}
	// Input must not be reordered.
	if vals[0] != 5 {
		t.Error("Quantile mutated its input")
	}
	defer func() {
		if recover() == nil {
			t.Error("empty Quantile must panic")
		}
	}()
	Quantile(nil, 0.5)
}
