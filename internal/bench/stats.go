// Package bench is the experiment harness that regenerates every table and
// figure in the paper's evaluation (§4). It replays the synthetic
// keystroke traces over emulated networks in deterministic virtual time,
// measures per-keystroke user-interface response latency for both Mosh and
// the SSH baseline, and formats results the way the paper reports them.
// Rows is the index of the Mosh-vs-SSH comparisons, Figure3 the
// collection-interval sweep and Ablations the design-choice sweeps; Paper
// holds the paper's figures and the bands ours are held to.
package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Sample is one measured keystroke response.
type Sample struct {
	Latency time.Duration
	// RTT is the client's smoothed RTT estimate when the sample landed
	// (0 when unknown); the Fig. 6 "within one RTT" fraction needs it.
	RTT time.Duration
}

// Stats summarizes a latency distribution the way the paper's tables do.
type Stats struct {
	N           int
	Median      time.Duration
	Mean        time.Duration
	Stddev      time.Duration
	FracInstant float64 // fraction displayed within 5 ms ("instant")
}

// figures lists the statistics as figures named prefix+"n", "median",
// "mean", "stddev" and "instant".
func (st Stats) figures(prefix string) []Figure {
	return []Figure{
		{prefix + "n", float64(st.N)},
		{prefix + "median", st.Median.Seconds()},
		{prefix + "mean", st.Mean.Seconds()},
		{prefix + "stddev", st.Stddev.Seconds()},
		{prefix + "instant", st.FracInstant},
	}
}

// Summarize computes distribution statistics.
func Summarize(samples []Sample) Stats {
	if len(samples) == 0 {
		return Stats{}
	}
	lat := make([]time.Duration, len(samples))
	instant := 0
	var sum float64
	for i, s := range samples {
		lat[i] = s.Latency
		sum += float64(s.Latency)
		if s.Latency < 5*time.Millisecond {
			instant++
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	mean := sum / float64(len(lat))
	var varsum float64
	for _, l := range lat {
		d := float64(l) - mean
		varsum += d * d
	}
	return Stats{
		N:           len(lat),
		Median:      lat[len(lat)/2],
		Mean:        time.Duration(mean),
		Stddev:      time.Duration(math.Sqrt(varsum / float64(len(lat)))),
		FracInstant: float64(instant) / float64(len(lat)),
	}
}

// CDF returns the cumulative fraction of samples at or below each
// threshold.
func CDF(samples []Sample, thresholds []time.Duration) []float64 {
	out := make([]float64, len(thresholds))
	if len(samples) == 0 {
		return out
	}
	for i, th := range thresholds {
		n := 0
		for _, s := range samples {
			if s.Latency <= th {
				n++
			}
		}
		out[i] = float64(n) / float64(len(samples))
	}
	return out
}

// Percentile returns the p-th percentile latency (0..100).
func Percentile(samples []Sample, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	lat := make([]time.Duration, len(samples))
	for i, s := range samples {
		lat[i] = s.Latency
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	idx := int(p / 100 * float64(len(lat)-1))
	return lat[idx]
}

// Fig6Fractions reports the paper's Fig. 6 thresholds over a sample set:
// the fraction of keystrokes displayed within 16 ms (one frame at 60 Hz)
// and within one round-trip time (the sample-time smoothed RTT; samples
// without an RTT estimate count only against the denominator).
func Fig6Fractions(samples []Sample) (le16, leRTT float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	var n16, nrtt int
	for _, s := range samples {
		if s.Latency <= 16*time.Millisecond {
			n16++
		}
		if s.RTT > 0 && s.Latency <= s.RTT {
			nrtt++
		}
	}
	return float64(n16) / float64(len(samples)), float64(nrtt) / float64(len(samples))
}

// fmtDur renders a latency like the paper ("<0.005 s" for instant).
func fmtDur(d time.Duration) string {
	if d < 5*time.Millisecond {
		return "< 5 ms"
	}
	if d < time.Second {
		return fmt.Sprintf("%d ms", d.Milliseconds())
	}
	return fmt.Sprintf("%.2f s", d.Seconds())
}

// TableRow formats one arm of a latency table.
func TableRow(name string, st Stats) string {
	return fmt.Sprintf("%-24s %10s %10s %10s   (n=%d, instant=%.0f%%)",
		name, fmtDur(st.Median), fmtDur(st.Mean), fmtDur(st.Stddev), st.N, st.FracInstant*100)
}

// TableHeader is the column header matching TableRow.
func TableHeader(title string) string {
	return fmt.Sprintf("%s\n%-24s %10s %10s %10s\n%s",
		title, "", "median", "mean", "σ", strings.Repeat("-", 70))
}
