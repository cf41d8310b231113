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
	"time"

	"repro/internal/bench"
	"repro/internal/netem"
	"repro/internal/overlay"
	"repro/internal/trace"
	"repro/internal/transport"
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
// row.
func BenchmarkSection4(b *testing.B) {
	for _, r := range bench.Rows {
		b.Run(r.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				reportComparison(b, r.Run(benchConfig(i)))
			}
		})
	}
}

// BenchmarkFigure3Collection regenerates Figure 3: mean protocol-induced
// delay versus the collection interval (frame interval 250 ms).
func BenchmarkFigure3Collection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		traces := []*trace.Trace{trace.Generate(int64(i)+5, trace.SixProfiles()[0], 300)}
		pts := bench.CollectionSweep(traces, bench.Figure3Intervals())
		b.ReportMetric(float64(bench.BestInterval(pts))/1e6, "best-interval-ms")
		for _, p := range pts {
			if p.Interval == 8*time.Millisecond {
				b.ReportMetric(float64(p.MeanDelay)/1e6, "delay-at-8ms-ms")
			}
			if p.Interval == 100*time.Millisecond {
				b.ReportMetric(float64(p.MeanDelay)/1e6, "delay-at-100ms-ms")
			}
		}
	}
}

// --- Ablations (the design choices cmd/mosh-bench -exp ablations sweeps) ---

func ablationTrace(i int) *trace.Trace {
	return trace.Generate(int64(i)*17+3, trace.SixProfiles()[4], 200)
}

// BenchmarkAblationEchoAck compares the server-side 50 ms echo ack against
// a near-zero and a sluggish timeout. Too small → false-negative
// mispredictions (flicker); too large → slow verification.
func BenchmarkAblationEchoAck(b *testing.B) {
	for _, d := range []time.Duration{time.Millisecond, 50 * time.Millisecond, 500 * time.Millisecond} {
		b.Run(d.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := bench.RunMoshTrace(ablationTrace(i), netem.EVDO(), int64(i)+1,
					bench.MoshOptions{Predictions: overlay.Adaptive, EchoAckTimeout: d})
				st := bench.Summarize(res.Samples)
				b.ReportMetric(float64(st.Median)/1e6, "median-ms")
				b.ReportMetric(float64(res.Mispredicted), "displayed-mispredictions")
			}
		})
	}
}

// BenchmarkAblationDisplayPolicy compares Adaptive/Always/Never prediction
// display on the 3G path.
func BenchmarkAblationDisplayPolicy(b *testing.B) {
	for _, p := range []struct {
		name string
		pref overlay.DisplayPreference
	}{{"adaptive", overlay.Adaptive}, {"always", overlay.Always}, {"never", overlay.Never}} {
		b.Run(p.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := bench.RunMoshTrace(ablationTrace(i), netem.EVDO(), int64(i)+1,
					bench.MoshOptions{Predictions: p.pref})
				st := bench.Summarize(res.Samples)
				b.ReportMetric(float64(st.Median)/1e6, "median-ms")
				b.ReportMetric(st.FracInstant*100, "instant-%")
			}
		})
	}
}

// BenchmarkAblationMinRTO isolates SSP's 50 ms RTO floor against TCP's 1 s
// under heavy loss (predictions off).
func BenchmarkAblationMinRTO(b *testing.B) {
	for _, rto := range []time.Duration{50 * time.Millisecond, time.Second} {
		b.Run(rto.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := bench.RunMoshTrace(ablationTrace(i), netem.LossyNetem(), int64(i)+1,
					bench.MoshOptions{Predictions: overlay.Never, MinRTO: rto, MaxRTO: 4 * rto})
				st := bench.Summarize(res.Samples)
				b.ReportMetric(float64(st.Median)/1e6, "median-ms")
				b.ReportMetric(float64(st.Mean)/1e6, "mean-ms")
			}
		})
	}
}

// BenchmarkAblationFrameCap measures what the 50 Hz frame-rate cap saves
// while a runaway process floods the terminal (paper footnote 1: "to save
// unnecessary traffic on low-latency paths").
func BenchmarkAblationFrameCap(b *testing.B) {
	for _, min := range []time.Duration{20 * time.Millisecond, time.Millisecond} {
		b.Run(min.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				timing := transport.DefaultTiming()
				timing.SendIntervalMin = min
				res := bench.RunFlood(10*time.Second, &timing, int64(i)+1)
				if !res.Converged {
					b.Fatal("flood session did not converge")
				}
				b.ReportMetric(float64(res.Frames), "frames")
				b.ReportMetric(float64(res.WirePackets), "wire-packets")
			}
		})
	}
}

// BenchmarkAblationDelayedAck measures the delayed-ack interval's traffic
// saving (paper §2.3: within 100 ms, >99.9% of acks piggyback).
func BenchmarkAblationDelayedAck(b *testing.B) {
	for _, d := range []time.Duration{time.Millisecond, 100 * time.Millisecond} {
		b.Run(d.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				timing := transport.DefaultTiming()
				timing.AckDelay = d
				res := bench.RunMoshTrace(ablationTrace(i), netem.EVDO(), int64(i)+1,
					bench.MoshOptions{Predictions: overlay.Adaptive, Timing: &timing})
				b.ReportMetric(float64(res.WirePackets), "wire-packets")
			}
		})
	}
}

// BenchmarkAblationCollectionInterval spot-checks Figure 3's tradeoff at
// three collection intervals.
func BenchmarkAblationCollectionInterval(b *testing.B) {
	for _, c := range []time.Duration{100 * time.Microsecond, 8 * time.Millisecond, 100 * time.Millisecond} {
		b.Run(c.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				traces := []*trace.Trace{trace.Generate(int64(i)+5, trace.SixProfiles()[0], 200)}
				pts := bench.CollectionSweep(traces, []time.Duration{c})
				b.ReportMetric(float64(pts[0].MeanDelay)/1e6, "mean-delay-ms")
			}
		})
	}
}
