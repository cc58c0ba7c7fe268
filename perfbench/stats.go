package main

import (
	"math"
	"sort"
)

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

type metricSet []metric

func (m *metricSet) add(name, unit string, v float64) {
	*m = append(*m, metric{name: name, value: v, unit: unit})
}

// quantile returns the nearest-rank q-quantile of xs, sorting xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(i, 0)]
}

// median returns the median of xs, which must not be empty.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// beyond counts the samples strictly above the nearest-rank q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// ratio divides, returning 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
