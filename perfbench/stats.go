package main

import (
	"math"
	"sort"
)

// Summary is a timing distribution reduced the way the benchmark reports
// every timing: the median, and the highest percentile of a fixed ladder
// that still has at least tailMin samples beyond it, with the sample count.
type Summary struct {
	N      int
	P50    float64
	Tail   float64 // value at TailQ; the maximum when no ladder rung qualifies
	TailQ  float64 // 0.9 or 0.99; 1 means "the maximum"
	Mean   float64
	Max    float64
	Beyond int // samples strictly beyond the tail rung's position
}

// tailMin is how many samples must lie beyond a percentile for the benchmark
// to report it: a percentile resting on fewer is one or two outliers.
const tailMin = 10

// tailLadder are the percentiles a tail may be reported at.
var tailLadder = []float64{0.99, 0.9}

// Quantile returns the q-quantile of sorted by linear interpolation between
// closest ranks (the "type 7" definition numpy and R default to).
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// beyond counts the samples that lie past the q-quantile's rank.
func beyond(n int, q float64) int {
	return n - 1 - int(math.Floor(q*float64(n-1)))
}

// Summarize reduces samples (which it sorts in place).
func Summarize(samples []float64) Summary {
	s := Summary{N: len(samples)}
	if s.N == 0 {
		return s
	}
	sort.Float64s(samples)
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	s.Mean = sum / float64(s.N)
	s.Max = samples[s.N-1]
	s.P50 = Quantile(samples, 0.5)
	s.Tail, s.TailQ = s.Max, 1
	for _, q := range tailLadder {
		if b := beyond(s.N, q); b >= tailMin {
			s.Tail, s.TailQ, s.Beyond = Quantile(samples, q), q, b
			break
		}
	}
	return s
}

// Median is the 0.5-quantile of a copy of xs.
func Median(xs []float64) float64 { return Quantile(sortedCopy(xs), 0.5) }

// Sum adds xs up.
func Sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

func sortedCopy(xs []float64) []float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return c
}

// ErrorRatio is failed or wrong operations over attempted ones; a run that
// attempted nothing is wholly failed.
func ErrorRatio(failed, attempted int) float64 {
	if attempted <= 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}
