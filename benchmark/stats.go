package main

import (
	"math"
	"sort"
)

// summary describes one timed sample set the way the metrics guide
// asks every timing to be reported: count, median and quartiles.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// Values are the samples in the order taken, for the result file.
	Values []float64 `json:"values"`
}

// summarize sorts a copy of xs and reads the quartiles off it.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := sortedCopy(xs)
	return summary{
		N:      len(s),
		Median: quantile(s, 0.5),
		Q1:     quantile(s, 0.25),
		Q3:     quantile(s, 0.75),
		Min:    s[0],
		Max:    s[len(s)-1],
		Values: xs,
	}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between the order statistics of a
// sorted slice; it is used for medians and quartiles of small samples.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// percentile is the nearest-rank percentile of a sorted latency
// sample: the smallest value with at least p of the sample at or
// below it, so "p95" always names a latency some request really saw.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	return sorted[min(max(rank, 0), n-1)]
}

// bestRate splits [0, total) seconds into the given number of equal
// windows and returns the highest completion rate any window saw, in
// completions per second. done holds completion times in seconds since
// the phase began. Like env.best it reads the phase at its least
// disturbed: a mean over the whole phase moves with every stall.
func bestRate(done []float64, total float64, windows int) float64 {
	width := total / float64(windows)
	counts := make([]int, windows)
	for _, t := range done {
		if w := int(t / width); w >= 0 && w < windows {
			counts[w]++
		}
	}
	best := 0
	for _, c := range counts {
		best = max(best, c)
	}
	return float64(best) / width
}

// windowMedians cuts xs, which must be in the order the samples were
// taken, into the given number of consecutive windows and returns each
// window's median. The best window's median is how latencies under
// load are reported: the median of a whole phase moves with the share
// of the phase the host spent in its slow state.
func windowMedians(xs []float64, windows int) []float64 {
	windows = max(min(windows, len(xs)), 1)
	out := make([]float64, 0, windows)
	for w := 0; w < windows; w++ {
		lo, hi := w*len(xs)/windows, (w+1)*len(xs)/windows
		out = append(out, median(xs[lo:hi]))
	}
	return out
}
