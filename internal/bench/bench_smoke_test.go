package bench

import (
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/overlay"
	"repro/internal/trace"
)

// row returns the §4 table's row by -exp name.
func row(t testing.TB, name string) Row {
	t.Helper()
	r, ok := RowNamed(name)
	if !ok {
		t.Fatalf("no §4 row %q", name)
	}
	return r
}

func smallTrace(t *testing.T) *trace.Trace {
	t.Helper()
	return trace.Generate(42, trace.SixProfiles()[0], 120)
}

func TestRunMoshTraceProducesSamples(t *testing.T) {
	tr := smallTrace(t)
	res := RunMoshTrace(tr, netem.EVDO(), 1, MoshOptions{Predictions: overlay.Adaptive})
	if len(res.Samples) < len(tr.Steps)/2 {
		t.Fatalf("only %d samples from %d steps", len(res.Samples), len(tr.Steps))
	}
	st := Summarize(res.Samples)
	if st.Median <= 0 && st.FracInstant == 0 {
		t.Fatalf("degenerate stats: %+v", st)
	}
	t.Logf("mosh EV-DO: median=%v mean=%v instant=%.0f%%",
		st.Median, st.Mean, st.FracInstant*100)
}

func TestRunSSHTraceProducesSamples(t *testing.T) {
	tr := smallTrace(t)
	samples := RunSSHTrace(tr, netem.EVDO(), 1, SSHOptions{})
	if len(samples) < len(tr.Steps)/2 {
		t.Fatalf("only %d samples from %d steps", len(samples), len(tr.Steps))
	}
	st := Summarize(samples)
	// EV-DO RTT ≈ 500 ms: SSH's median must sit near it.
	if st.Median < 300*time.Millisecond || st.Median > 1200*time.Millisecond {
		t.Fatalf("SSH median on EV-DO = %v, want ≈0.5s", st.Median)
	}
	t.Logf("ssh EV-DO: median=%v mean=%v", st.Median, st.Mean)
}

func TestFigure3ShapeSmall(t *testing.T) {
	pts := Figure3.Run(Config{KeystrokesPerUser: 60, Seed: 7})
	if len(pts) != len(Figure3.Intervals) {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if p.Writes == 0 {
			t.Fatalf("no writes measured at %v", p.Interval)
		}
		t.Logf("C=%-10v meanDelay=%v writes=%d", p.Interval, p.MeanDelay, p.Writes)
	}
	best := pts.Best()
	// The minimum should be in the single-digit-millisecond region, not
	// at the extremes.
	if best < time.Millisecond || best > 50*time.Millisecond {
		t.Fatalf("best interval = %v, expected between 1 and 50 ms, away from the sweep's ends", best)
	}
}

func TestStatsFunctions(t *testing.T) {
	samples := []Sample{
		{Latency: 1 * time.Millisecond},
		{Latency: 2 * time.Millisecond},
		{Latency: 100 * time.Millisecond},
		{Latency: 200 * time.Millisecond},
		{Latency: 300 * time.Millisecond},
	}
	st := Summarize(samples)
	if st.N != 5 || st.Median != 100*time.Millisecond {
		t.Fatalf("stats = %+v", st)
	}
	if st.FracInstant != 0.4 {
		t.Fatalf("fractions = %+v", st)
	}
	cdf := CDF(samples, []time.Duration{5 * time.Millisecond, time.Second})
	if cdf[0] != 0.4 || cdf[1] != 1.0 {
		t.Fatalf("cdf = %v", cdf)
	}
	if p := Percentile(samples, 100); p != 300*time.Millisecond {
		t.Fatalf("p100 = %v", p)
	}
	if Summarize(nil).N != 0 {
		t.Fatal("empty summarize")
	}
}
