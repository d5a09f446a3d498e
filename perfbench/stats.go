package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a tail percentile resting on fewer is one or two outliers.
const minTail = 10

// median returns the middle of xs (the mean of the two middle values for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1) and
// whether it may be reported: at least minTail samples lie above its rank.
// The median (q = 0.5) needs the same tail, so tiny samples report nothing.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if n-rank < minTail {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}

// percentileReport is a percentile as printed: its value and sample count,
// or only the count when the tail is too thin to report it.
type percentileReport struct {
	Value   *float64 `json:"value,omitempty"`
	Samples int      `json:"samples"`
}

func reportPercentile(xs []float64, q float64) percentileReport {
	r := percentileReport{Samples: len(xs)}
	if v, ok := percentile(xs, q); ok {
		r.Value = &v
	}
	return r
}
