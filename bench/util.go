package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// procStart anchors the benchmark's monotonic clock; every span and sample
// is nanoseconds since it.
var procStart = time.Now()

func nowNs() int64 { return int64(time.Since(procStart)) }

// cpuNs returns the process's user+system CPU time, all threads.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// scaled is n*scale, at least floor.
func scaled(n int, scale float64, floor int) int {
	return max(int(float64(n)*scale), floor)
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics. xs is sorted in place. An empty xs yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantileNs is quantile over nanosecond samples, scaled by 1/div.
func quantileNs(ns []int64, q, div float64) float64 {
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v)
	}
	return quantile(xs, q) / div
}

func sumNs(ns []int64) int64 {
	var s int64
	for _, v := range ns {
		s += v
	}
	return s
}

// ratio is a/b, or 0 when b is 0: per-layer metrics of a layer a workload
// bypasses report 0 rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quartileSpread is the distance between the first and third quartile of xs
// as a share of their median, with the quartiles Python's
// statistics.quantiles(xs, n=4) computes (the exclusive method) — the
// spread the pipeline measures.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		frac := pos - float64(j)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return ratio(q(3)-q(1), math.Abs(median(s)))
}
