package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the exact nearest-rank p-th percentile (0 < p <= 100)
// of sorted: the smallest value with at least p% of the samples at or
// below it. No interpolation, so the result is always a measured value.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// sortedCopy returns vals sorted ascending without touching the input.
func sortedCopy(vals []float64) []float64 {
	out := append([]float64(nil), vals...)
	sort.Float64s(out)
	return out
}

// median is the nearest-rank 50th percentile of vals in any order.
func median(vals []float64) float64 { return percentile(sortedCopy(vals), 50) }

// quartiles returns the first quartile, median and third quartile of vals
// by the method of Python's statistics.quantiles(values, n=4) (exclusive,
// interpolating) — the rule the acceptance gate applies to repeated runs,
// so -compare judges spreads exactly as the gate does.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := sortedCopy(vals)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		d := k*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(2), at(3)
}

// latencies collects per-operation durations for one metric.
type latencies struct{ ns []float64 }

func (l *latencies) add(d time.Duration) { l.ns = append(l.ns, float64(d)) }

func (l *latencies) n() int { return len(l.ns) }

// p50 returns the nearest-rank median in the unit the samples were added in.
func (l *latencies) p50() float64 { return median(l.ns) }

// ms returns the nearest-rank p-th percentile in milliseconds.
func (l *latencies) ms(p float64) float64 { return percentile(sortedCopy(l.ns), p) / 1e6 }

// us returns the nearest-rank p-th percentile in microseconds.
func (l *latencies) us(p float64) float64 { return percentile(sortedCopy(l.ns), p) / 1e3 }
