// Package repro's top-level benchmarks regenerate every table and figure
// in the paper's evaluation (§4) at test scale, reporting the headline
// numbers as benchmark metrics. Run the full paper-scale versions with
// cmd/mosh-bench.
//
//	go test -bench=. -benchmem
//
// Benchmarks report each experiment's figures as custom metrics named
// after them (durations in seconds, e.g. "ssh.median"), so who-wins and
// by-what-factor is visible straight from the benchmark output.
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

// report reports every figure as a metric named after it.
func report(b *testing.B, figs []bench.Figure) {
	for _, f := range figs {
		b.ReportMetric(f.Value, f.Name)
	}
}

// BenchmarkSection4 replays each of the paper's Mosh-vs-SSH comparisons
// (bench.Rows), one sub-benchmark per row, then Figure 3's
// collection-interval sweep.
func BenchmarkSection4(b *testing.B) {
	for _, r := range bench.Rows {
		b.Run(r.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				report(b, r.Run(benchConfig(i)).Figures())
			}
		})
	}
	b.Run(bench.Figure3.Name, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			report(b, bench.Figure3.Run(benchConfig(i)).Figures())
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
					figs := a.Run(benchConfig(i), p)
					for _, f := range figs {
						if f.Name == "converged" && f.Value != 1 {
							b.Fatal("flood session did not converge")
						}
					}
					report(b, figs)
				}
			})
		}
	}
}
