package main

import (
	"math"
	"sort"
	"time"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank q-quantile (0 < q <= 1) of the raw
// samples: an observed value, never an interpolation.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median is the middle sample, or the mean of the middle two.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean. It summarizes peak-memory samples, whose
// values fall into two modes (did a GC cycle reclaim the previous
// garbage before the new peak or not): a median jumps between the
// modes, a mean moves with their mix.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first quartile, median and third quartile by
// the method of Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads read the same here as in tools that
// use it. Fewer than two samples give the sample itself three times.
func quartiles(xs []float64) [3]float64 {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// ms and seconds convert durations to the units metrics report.
func ms(d time.Duration) float64      { return float64(d) / float64(time.Millisecond) }
func seconds(d time.Duration) float64 { return d.Seconds() }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
