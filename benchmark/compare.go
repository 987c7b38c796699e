package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict is the compare rule for one workload × end-to-end metric.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// judge applies the rule: B is worse when its median is worse than A's by
// more than bound (a share of A's median); where either side's quartile
// spread is wider than the bound, the runs cannot resolve a change of that
// size and the pair is unresolved rather than ok. A bound of 0 with no
// spread (a deterministic metric) resolves exactly.
func judge(a, b []float64, m metricSpec) (v verdict, medA, medB, spreadA, spreadB float64) {
	q1a, medA, q3a := quartiles(a)
	q1b, medB, q3b := quartiles(b)
	if medA != 0 {
		spreadA = (q3a - q1a) / medA
	}
	if medB != 0 {
		spreadB = (q3b - q1b) / medB
	}
	worse := medB > medA*(1+m.bound)
	if m.better == "higher" {
		worse = medB < medA*(1-m.bound)
	}
	switch {
	case worse:
		v = verdictWorse
	case spreadA > m.bound || spreadB > m.bound:
		v = verdictUnresolved
	default:
		v = verdictOK
	}
	return v, medA, medB, spreadA, spreadB
}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &r, nil
}

// values collects one end-to-end metric of one workload over a report's
// untraced runs.
func (r *report) values(workload, name string) []float64 {
	var out []float64
	for _, run := range r.Runs {
		if run.Workload == workload && run.Trace == 0 {
			if m, ok := run.Metrics[name]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// compareFiles prints, per workload × end-to-end metric, both medians and
// quartile spreads, the bound, and the verdict. It returns 1 if any pair is
// worse, and says when the two files are not comparable.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := loadReport(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b, err := loadReport(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	return compareReports(a, b, stdout)
}

func compareReports(a, b *report, w io.Writer) int {
	if a.NProc != b.NProc || a.GoVersion != b.GoVersion || a.CPUModel != b.CPUModel ||
		a.Seconds != b.Seconds || a.Smoke != b.Smoke || a.SessionRPS != b.SessionRPS || a.IngestMPS != b.IngestMPS {
		fmt.Fprintf(w, "warning: settings differ (nproc %d/%d, %s/%s, %q/%q, %gs/%gs, smoke %v/%v): the files are not comparable\n",
			a.NProc, b.NProc, a.GoVersion, b.GoVersion, a.CPUModel, b.CPUModel, a.Seconds, b.Seconds, a.Smoke, b.Smoke)
	}
	fmt.Fprintf(w, "A: commit %s seed %d   B: commit %s seed %d\n", a.Commit, a.Seed, b.Commit, b.Seed)
	fmt.Fprintf(w, "%-14s %-14s %4s %12s %7s %4s %12s %7s %6s  %s\n",
		"workload", "metric", "nA", "median A", "iqr A", "nB", "median B", "iqr B", "bound", "verdict")
	code := 0
	for _, wl := range workloads {
		for _, m := range endToEnd {
			va, vb := a.values(wl.name, m.name), b.values(wl.name, m.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, medA, medB, sa, sb := judge(va, vb, m)
			if v == verdictWorse {
				code = 1
			}
			fmt.Fprintf(w, "%-14s %-14s %4d %12.6g %6.1f%% %4d %12.6g %6.1f%% %5.0f%%  %s\n",
				wl.name, m.name, len(va), medA, sa*100, len(vb), medB, sb*100, m.bound*100, v)
		}
	}
	return code
}
