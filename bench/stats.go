package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending without disturbing the caller's
// slice (latency pools are reported several ways).
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantileSorted is the nearest-rank quantile of an ascending slice:
// the smallest sample with at least q of the samples at or below it.
// It returns the sample and how many samples lie strictly beyond it.
func quantileSorted(s []float64, q float64) (v float64, beyond int) {
	if len(s) == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

func median(xs []float64) float64 {
	v, _ := quantileSorted(sortedCopy(xs), 0.5)
	return v
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile: with fewer, the "percentile" is a handful of outliers and
// moves by whole samples between runs.
const tailMinBeyond = 10

// tailQuantile picks the highest of p99/p95/p90 that leaves at least
// tailMinBeyond of n samples beyond it. Op counts are fixed per workload
// (BENCHMARK.json's run_seconds times a rate constant), so the choice is
// too: p95 on tpch_scan (260 samples) and tpch_join (200), p99 on tpcc
// and wire_mixed; a test pins it. Below 100 samples nothing qualifies and
// p90 is returned with ok=false so the report can say the tail is not
// trustworthy.
func tailQuantile(n int) (q float64, ok bool) {
	for _, q := range []float64{0.99, 0.95, 0.90} {
		if n-int(math.Ceil(q*float64(n))) >= tailMinBeyond {
			return q, true
		}
	}
	return 0.90, false
}

// geomean is the geometric mean of strictly positive values; zero or
// negative entries are skipped (an idle class must not zero the mean).
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
