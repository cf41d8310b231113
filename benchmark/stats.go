//go:build linux

package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0..1) of sorted by nearest rank. It
// returns 0 for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// quartiles returns the three cut points of values exactly as Python's
// statistics.quantiles(values, n=4) does (the default "exclusive" method),
// so a spread computed here equals the one the acceptance check computes.
// It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	n := len(data)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// summary is one end-to-end metric of one run: the reported value, and the
// sub-window (or repeated set-up) values behind it with their median and
// quartiles.
type summary struct {
	Value   float64   `json:"value"`
	Median  float64   `json:"median,omitempty"`
	Q1      float64   `json:"q1,omitempty"`
	Q3      float64   `json:"q3,omitempty"`
	Windows []float64 `json:"windows,omitempty"`
	Samples []int     `json:"echoes_per_window,omitempty"`
}

func summarize(windows []float64) summary {
	s := summary{Windows: windows}
	switch len(windows) {
	case 0:
	case 1:
		s.Median, s.Q1, s.Q3 = windows[0], windows[0], windows[0]
	default:
		s.Q1, s.Median, s.Q3 = quartiles(windows)
	}
	return s
}

// ratio is a/b, or 0 when b is 0 (nothing happened in the window).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
