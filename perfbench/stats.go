package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentiles are the candidates for the reported tail, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPct returns the highest candidate percentile that still has at
// least ten samples beyond it in a sample of n.
func tailPct(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 50
}
