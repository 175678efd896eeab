package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples a reported percentile must leave above
// it: a p99 over fewer than 1000 samples rests on fewer than ten outliers
// and is not reported as such.
const minBeyond = 10

// rank returns the 1-based nearest rank of quantile q over n samples: the
// smallest rank with at least q·n samples at or below it. The small
// tolerance keeps q·n exact when q is a decimal like 0.99.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond returns how many of n samples lie above the quantile-q rank.
func beyond(n int, q float64) int { return n - rank(n, q) }

// reportable reports whether quantile q over n samples leaves at least
// minBeyond samples above it.
func reportable(n int, q float64) bool { return n > 0 && beyond(n, q) >= minBeyond }

// highestPercentile returns the highest quantile of n samples that still
// leaves minBeyond samples above it, and false when n is too small for any.
func highestPercentile(n int) (float64, bool) {
	if n <= minBeyond {
		return 0, false
	}
	return float64(n-minBeyond) / float64(n), true
}

// quantile returns the nearest-rank quantile q of xs, sorting a copy.
// +Inf entries (failed requests) sort last, so they count as missing any
// latency limit. It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)-1]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// maxWindows bounds how many windows windowed splits a phase into; odd, so
// the median window is a real one.
const maxWindows = 7

// windowed splits samples (in send order) into up to maxWindows consecutive
// windows of at least minPer samples each and returns the median over the
// windows of each window's quantile q. A burst of noise that slows one
// stretch of the phase then moves the result only if it covers most
// windows. With fewer than 2·minPer samples it is the plain quantile.
func windowed(samples []float64, q float64, minPer int) float64 {
	k := min(maxWindows, len(samples)/minPer)
	if k > 1 && k%2 == 0 {
		k--
	}
	if k <= 1 {
		return quantile(samples, q)
	}
	per := make([]float64, k)
	for w := 0; w < k; w++ {
		per[w] = quantile(samples[w*len(samples)/k:(w+1)*len(samples)/k], q)
	}
	return median(per)
}
