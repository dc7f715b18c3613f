package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile
// for it to mean anything: the highest percentile a run may report is
// the highest one with at least this many samples above it.
const minBeyond = 10

// percentileLadder is the set of percentiles the tail rule chooses
// from, lowest first.
var percentileLadder = []float64{50, 90, 99, 99.9, 99.99}

// rank returns the 1-based nearest-rank position of percentile p in n
// sorted samples. The epsilon keeps float error in p (99.9 is not
// exact) from pushing an exact rank up by one.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile p of xs (which need
// not be sorted) and how many samples lie beyond it.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	r := rank(p, len(s))
	return s[r-1], len(s) - r
}

// tailPercentile applies the tail rule: it returns the highest
// percentile of the ladder with at least minBeyond samples beyond it,
// and that count. ok is false when n is too small for even the median.
func tailPercentile(n int) (p float64, beyond int, ok bool) {
	for _, q := range percentileLadder {
		if b := n - rank(q, n); n > 0 && b >= minBeyond {
			p, beyond, ok = q, b, true
		}
	}
	return p, beyond, ok
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func durationsS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// usage is a process resource sample: CPU time (user+sys) and the
// peak resident set.
type usage struct {
	cpu     time.Duration
	maxRSSK int64
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSSK: int64(ru.Maxrss), // KiB on Linux
	}
}
