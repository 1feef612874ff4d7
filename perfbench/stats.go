package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie strictly above its rank.
const minBeyond = 10

// pctl is one reported percentile: q is in per-mille (500 = median), n the
// sample count it was taken over.
type pctl struct {
	Q     int
	Value float64
	N     int
}

// percentile returns the nearest-rank q‰ percentile of sorted, and whether
// the percentile rule allows reporting it.
func percentile(sorted []float64, q int) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := (q*n + 999) / 1000
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// median returns the median of an unsorted slice under the percentile rule.
func median(xs []float64) (pctl, bool) {
	s := sortedCopy(xs)
	v, ok := percentile(s, 500)
	return pctl{Q: 500, Value: v, N: len(s)}, ok
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// plainMedian is the middle value without the sample-count rule, for
// repeated measurements of one quantity (set-up repetitions).
func plainMedian(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean is the geometric mean of positive values; it returns 0 for an
// empty or non-positive input so a missing class shows as a failure.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if !(x > 0) {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// ratioErr is the paper's estimation error |achieved − target| / target.
func ratioErr(achieved, target float64) float64 {
	return math.Abs(achieved-target) / target
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// rate accumulates bytes and busy time of one op class.
type rate struct {
	bytes int64
	busy  time.Duration
}

func (r *rate) add(bytes int, d time.Duration) {
	r.bytes += int64(bytes)
	r.busy += d
}

// mbps is megabytes (10⁶ bytes) per second of busy time.
func (r rate) mbps() float64 {
	if r.busy <= 0 {
		return 0
	}
	return float64(r.bytes) / 1e6 / r.busy.Seconds()
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
