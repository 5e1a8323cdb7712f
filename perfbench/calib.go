package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// The reference loop: a fixed amount of work that uses none of the
// program's code, run just before and after each timed unit of work on as
// many cores as the unit uses.
// The benchmark divides the unit's wall-clock by the loop's, so that a
// shared host's changing speed — which moved this repository's regeneration
// time by a factor of two within one hour on a 2-core host — cancels out of
// the bounded metrics. Like the workloads it allocates, sorts and does
// floating-point arithmetic, on one goroutine per core it is given.

// refRounds is the loop's size: about 50 ms on an idle Xeon core.
const refRounds = 360

// refSink keeps the compiler from discarding the loop's result.
var refSink float64

// referenceMs runs the reference loop on n cores at once and returns its
// wall-clock in milliseconds.
func referenceMs(n int) float64 {
	sums := make([]float64, n)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			x := uint64(w + 1)
			for r := 0; r < refRounds; r++ {
				xs := make([]float64, 2048)
				for i := range xs {
					// splitmix64
					x += 0x9e3779b97f4a7c15
					z := x
					z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
					z = (z ^ (z >> 27)) * 0x94d049bb133111eb
					z ^= z >> 31
					xs[i] = math.Sqrt(float64(z>>11) + 1)
				}
				sort.Float64s(xs)
				sums[w] += xs[len(xs)/2]
			}
		}(w)
	}
	wg.Wait()
	d := time.Since(start)
	for _, s := range sums {
		refSink += s
	}
	return float64(d.Nanoseconds()) / 1e6
}
