package main

import (
	"math"
	"sort"
)

// quantile returns the q-th quantile of sorted xs by linear
// interpolation between order statistics (0 for an empty slice).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// summary is a metric's value over reps or seeds: the median, the
// quartiles around it and the sample count.
type summary struct {
	Median float64 `json:"value"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure the bounds in BENCHMARK.json are held against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// nsQuantile returns the q-th quantile of pooled nanosecond samples.
func nsQuantile(ns []int64, q float64) float64 {
	s := make([]float64, len(ns))
	for i, v := range ns {
		s[i] = float64(v)
	}
	sort.Float64s(s)
	return quantile(s, q)
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func nsMean(ns []int64) float64 {
	var sum float64
	for _, v := range ns {
		sum += float64(v)
	}
	return ratio(sum, float64(len(ns)))
}
