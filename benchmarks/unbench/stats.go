package main

import (
	"math"
	"math/bits"
	"slices"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice. xs is not modified.
func median[T float64 | int64](xs []T) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return float64(s[n/2])
	}
	return (float64(s[n/2-1]) + float64(s[n/2])) / 2
}

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so the spread
// the compare mode prints is the figure the acceptance criterion names.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(k int) float64 {
		j, delta := k*(n+1)/4, k*(n+1)%4
		j = min(max(j, 1), n-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// calmQuartile is the quartile of the windows on the better side: the third
// for a metric where higher is better, the first otherwise. On a shared box
// interference only ever slows a window down, never speeds it up, so the
// better quartile tracks the program while the median tracks the neighbours;
// a change in the program moves every window and with them the quartile.
func calmQuartile(windows []float64, higherIsBetter bool) float64 {
	q1, q3 := quartiles(windows)
	if higherIsBetter {
		return q3
	}
	return q1
}

// percentileSorted reads the p-quantile (0..1) of an ascending sample by the
// nearest-rank rule: the smallest value with at least p of the sample at or
// below it.
func percentileSorted[T int64 | uint32](sorted []T, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := min(max(int(math.Ceil(p*float64(len(sorted))))-1, 0), len(sorted)-1)
	return float64(sorted[i])
}

// hist is a log-linear histogram of nanosecond latencies: exact below 256 ns,
// then 128 buckets per power of two (bucket width under 0.8 % of the value).
// It replaces a sample buffer so that the harness keeps a few kilobytes
// alive however long a window is: the load generator shares the process with
// the program under test, and megabytes of samples on the heap would move
// the garbage collector's trigger point and with it the program's tail.
type hist struct {
	counts [256 + 33*128]uint32
	n      uint64
}

func (h *hist) reset() { *h = hist{} }

func (h *hist) add(ns int64) {
	v := uint64(max(ns, 0))
	i := int(v)
	if v >= 256 {
		k := bits.Len64(v) - 1 // v is in [2^k, 2^(k+1)), k >= 8
		if k > 40 {
			k, v = 40, 1<<41-1
		}
		i = 256 + (k-8)*128 + int(v>>(k-7)) - 128
	}
	h.counts[i]++
	h.n++
}

// percentile reads the p-quantile by the nearest-rank rule; a value past the
// exact range is reported as the middle of its bucket.
func (h *hist) percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(min(max(math.Ceil(p*float64(h.n)), 1), float64(h.n)))
	var seen uint64
	for i, c := range h.counts {
		if seen += uint64(c); seen >= rank {
			if i < 256 {
				return float64(i)
			}
			k, top := 8+(i-256)/128, uint64(128+(i-256)%128)
			return float64(top<<(k-7)) + float64(uint64(1)<<(k-7))/2
		}
	}
	return 0 // unreachable: the counts sum to n
}

// finite reports whether v can be printed as a JSON number.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
