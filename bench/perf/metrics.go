package main

import (
	"math"
	"sort"
)

// metricDef declares one metric of the timed rounds: BENCHMARK.json repeats
// it and -compare applies its bound.
type metricDef struct {
	name  string
	unit  string
	lower bool    // lower is better
	bound float64 // share of the baseline by which it may worsen
	// demoted marks a wall-clock metric that did not repeat within half its
	// bound on this sandbox (NOISE.md): measured and compared like the
	// others, but listed with the per-layer metrics in BENCHMARK.json, so no
	// change is rejected over it.
	demoted bool
}

// runMetrics is what a user of the system sees, in report order. Every
// workload reports all of them and none can be zero.
var runMetrics = []metricDef{
	{name: "setup_s", unit: "s", lower: true, bound: 0.25},
	{name: "track_records_per_s", unit: "1/s", bound: 0.10, demoted: true},
	{name: "track_allocs_per_record", unit: "1", lower: true, bound: 0.02},
	{name: "store_bytes_per_record", unit: "B", lower: true, bound: 0.005},
	{name: "pack_mb_per_s", unit: "MB/s", bound: 0.10, demoted: true},
	{name: "verify_mb_per_s", unit: "MB/s", bound: 0.10, demoted: true},
	{name: "first_answer_ms", unit: "ms", lower: true, bound: 0.10, demoted: true},
	{name: "q_select_ms", unit: "ms", lower: true, bound: 0.10, demoted: true},
	{name: "q_agg_ms", unit: "ms", lower: true, bound: 0.10, demoted: true},
	{name: "lineage_khop_ms", unit: "ms", lower: true, bound: 0.10, demoted: true},
	{name: "live_heap_mb", unit: "MB", lower: true, bound: 0.05},
}

// worseBy is how far cur is on the wrong side of base, as a share of base
// (negative when cur is better).
func (m metricDef) worseBy(base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	if m.lower {
		return (cur - base) / base
	}
	return (base - cur) / base
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 the way Python's statistics.quantiles(v, n=4)
// does (exclusive method), which is what the driver computes.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		return median(v), median(v)
	}
	at := func(p float64) float64 {
		h := p * float64(n+1)
		j := int(math.Floor(h))
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

// percentile is the nearest-rank p-th percentile of v.
func percentile(v []float64, p float64) float64 {
	s := sorted(v)
	if len(s) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}
