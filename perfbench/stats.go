package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest sample with at least p% of the samples at or below it. It
// never interpolates, so every reported value is one that was observed.
// xs is not modified; an empty set yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedPercentile(s, p)
}

// sortedPercentile is percentile over an already sorted slice.
func sortedPercentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// minSecondSamples is how many samples a second of a window needs to have
// a percentile of its own.
const minSecondSamples = 20

// secondPercentile is the p-th percentile of each second of a window
// (sec[i] is the second sample xs[i] fell in), and then the median over the
// seconds that hold at least minSecondSamples samples. On a shared machine
// a burst of contention from other tenants inflates the tail of the
// seconds it hits; the median over seconds reports the tail of a typical
// second instead of the burst. With no such second it falls back to the
// whole window's percentile.
func secondPercentile(xs []float64, sec []int32, p float64) float64 {
	bySec := map[int32][]float64{}
	for i, x := range xs {
		bySec[sec[i]] = append(bySec[sec[i]], x)
	}
	var per []float64
	for _, g := range bySec {
		if len(g) >= minSecondSamples {
			per = append(per, percentile(g, p))
		}
	}
	if len(per) == 0 {
		return percentile(xs, p)
	}
	return median(per)
}

// splitmix is the benchmark's own generator (SplitMix64). Inputs are drawn
// from it rather than from the simulator's RNG so that a change to the
// program under test can never change what the benchmark sends.
type splitmix struct{ state uint64 }

func (r *splitmix) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0, 1).
func (r *splitmix) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform draw in [0, n).
func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }
