package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; NaN for an empty sample. xs is not modified.
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

// median is the 0.5-quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// blockP99 splits xs (in arrival order) into consecutive blocks of at
// least 1000 samples — so each block's p99 has at least ten samples
// beyond it — and returns the median of the block p99s and the block
// count. A single slow stretch then moves one block, not the figure.
func blockP99(xs []float64) (float64, int) {
	blocks := len(xs) / 1000
	if blocks < 1 {
		return quantile(xs, 0.99), 1
	}
	size := len(xs) / blocks
	var p99s []float64
	for b := 0; b < blocks; b++ {
		p99s = append(p99s, quantile(xs[b*size:(b+1)*size], 0.99))
	}
	return median(p99s), blocks
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// secs converts a duration to float seconds.
func secs(d time.Duration) float64 { return d.Seconds() }
