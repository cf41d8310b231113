// Package repro's top-level benchmarks regenerate every table and figure
// in the paper's evaluation (§4) at test scale, reporting the headline
// numbers as benchmark metrics. Run the full paper-scale versions with
// cmd/mosh-bench.
//
//	go test -bench=. -benchmem
//
// Benchmarks report custom metrics named after the paper's statistics
// (medians and means in milliseconds), so who-wins and by-what-factor is
// visible straight from the benchmark output.
package repro

import (
	"testing"

	"repro/internal/bench"
)

// benchConfig is the reduced workload used per benchmark iteration
// (six users, 120 keystrokes each ≈ 720 keystrokes per arm).
func benchConfig(i int) bench.Config {
	return bench.Config{KeystrokesPerUser: 120, Seed: int64(i)*31 + 1}
}

func reportComparison(b *testing.B, c bench.Comparison) {
	b.ReportMetric(float64(c.Mosh.Stats.Median)/1e6, "mosh-median-ms")
	b.ReportMetric(float64(c.Mosh.Stats.Mean)/1e6, "mosh-mean-ms")
	b.ReportMetric(float64(c.SSH.Stats.Median)/1e6, "ssh-median-ms")
	b.ReportMetric(float64(c.SSH.Stats.Mean)/1e6, "ssh-mean-ms")
	b.ReportMetric(c.Mosh.Stats.FracInstant*100, "mosh-instant-%")
}

// BenchmarkSection4 replays each of the paper's Mosh-vs-SSH comparisons
// (bench.Rows, which holds the published figures), one sub-benchmark per
// row, then Figure 3's collection-interval sweep.
func BenchmarkSection4(b *testing.B) {
	for _, r := range bench.Rows {
		b.Run(r.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				reportComparison(b, r.Run(benchConfig(i)))
			}
		})
	}
	b.Run(bench.Figure3.Name, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pts := bench.Figure3.Run(benchConfig(i))
			b.ReportMetric(float64(bench.BestInterval(pts))/1e6, "best-interval-ms")
			for _, p := range pts {
				if p.Interval == bench.Figure3.Paper {
					b.ReportMetric(float64(p.MeanDelay)/1e6, "delay-at-paper-ms")
				}
			}
		}
	})
}

// BenchmarkAblations sweeps the design choices the paper argues for
// (bench.Ablations), one sub-benchmark per swept value.
func BenchmarkAblations(b *testing.B) {
	for _, a := range bench.Ablations {
		for _, p := range a.Points {
			b.Run(p.Label, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r := a.Run(benchConfig(i), p)
					if p.Flood != nil {
						if !r.Flood.Converged {
							b.Fatal("flood session did not converge")
						}
						b.ReportMetric(float64(r.Flood.Frames), "frames")
						b.ReportMetric(float64(r.Flood.WirePackets), "wire-packets")
						continue
					}
					b.ReportMetric(float64(r.Stats.Median)/1e6, "median-ms")
					b.ReportMetric(float64(r.Stats.Mean)/1e6, "mean-ms")
					b.ReportMetric(r.Stats.FracInstant*100, "instant-%")
					b.ReportMetric(float64(r.Mosh.Mispredicted), "displayed-mispredictions")
					b.ReportMetric(float64(r.Mosh.WirePackets), "wire-packets")
				}
			})
		}
	}
}
