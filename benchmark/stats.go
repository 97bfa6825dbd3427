package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates the q-quantile (0 <= q <= 1) of an ascending
// slice; 0 for an empty one.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// iqrPct is the interquartile range as a percentage of the median.
func iqrPct(xs []float64) float64 {
	s := sorted(xs)
	m := quantile(s, 0.5)
	if m == 0 {
		return 0
	}
	return 100 * (quantile(s, 0.75) - quantile(s, 0.25)) / m
}

// tailSamples is how many samples must lie beyond a reported high
// percentile for it to mean anything.
const tailSamples = 10

// hiPermille are the candidates for the reported tail, highest first,
// in thousandths so that the rank arithmetic is exact.
var hiPermille = []int{999, 990, 950, 900, 750}

// highTail reports the highest percentile of xs that still has at least
// tailSamples samples beyond it, with its value. With fewer than
// 4*tailSamples samples even p75 is not resolved: it returns the median
// and percentile 50.
func highTail(xs []float64) (value, percentile float64) {
	s := sorted(xs)
	n := len(s)
	for _, pm := range hiPermille {
		idx := (pm*n+999)/1000 - 1 // nearest-rank: ceil(pm/1000 * n) - 1
		if idx >= 0 && n-1-idx >= tailSamples {
			return s[idx], float64(pm) / 10
		}
	}
	return quantile(s, 0.5), 50
}
