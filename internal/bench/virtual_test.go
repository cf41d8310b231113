package bench

import (
	"os"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// virtualSessions picks the session count for the virtual-time gates: a
// tier-1-friendly default, overridable to the full 10⁵-session regime via
// MANYSESSION_VIRTUAL_SESSIONS=100000 (the CI virtual-bench step does).
func virtualSessions(def int) int {
	if s := os.Getenv("MANYSESSION_VIRTUAL_SESSIONS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// TestManySessionVirtualTimeDeterministic is the capstone gate for the
// one-clock regime: the virtual-time many-session run must (a) simulate
// its span faster than real time — idle virtual time costs nearly no wall
// time once every sleep rides the injected clock — and (b) be bit-for-bit
// reproducible: two same-seed runs produce identical latency percentiles,
// identical server-side echo cohorts, and identical wire counters.
func TestManySessionVirtualTimeDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-thousand-session simulation")
	}
	opt := loadOptions(t, "virtual")
	opt.Sessions, opt.Seed = virtualSessions(2000), 7
	a := RunManySession(opt)
	b := RunManySession(opt)

	for name, r := range map[string]*ManySessionResult{"first": &a, "second": &b} {
		if r.Lost != 0 {
			t.Errorf("%s run lost %d keystrokes", name, r.Lost)
		}
		if r.Wall >= r.Elapsed {
			t.Errorf("%s run: %v wall >= %v virtual — the virtual-time bench must beat real time (%.2fx)",
				name, r.Wall.Round(time.Millisecond), r.Elapsed, r.Elapsed.Seconds()/r.Wall.Seconds())
		}
	}

	// Every BENCH-field percentile must be bit-identical across runs.
	for _, p := range []float64{50, 90, 99, 100} {
		if pa, pb := Percentile(a.Samples, p), Percentile(b.Samples, p); pa != pb {
			t.Errorf("keystroke latency p%g differs across identical runs: %v vs %v", p, pa, pb)
		}
	}
	if len(a.Samples) != len(b.Samples) {
		t.Errorf("sample counts differ: %d vs %d", len(a.Samples), len(b.Samples))
	}
	if !reflect.DeepEqual(a.EchoCohorts, b.EchoCohorts) {
		t.Errorf("server-side echo cohorts differ:\n%+v\n%+v", a.EchoCohorts, b.EchoCohorts)
	}
	if !reflect.DeepEqual(a.StageStats, b.StageStats) {
		t.Errorf("pipeline stage latencies differ across identical runs")
	}
	if a.ClientLe16ms != b.ClientLe16ms || a.ClientLeRTT != b.ClientLeRTT {
		t.Errorf("fig6 fractions differ: %v/%v vs %v/%v", a.ClientLe16ms, a.ClientLeRTT, b.ClientLe16ms, b.ClientLeRTT)
	}
	if a.PacketsIn != b.PacketsIn || a.PacketsOut != b.PacketsOut || a.Elapsed != b.Elapsed {
		t.Errorf("wire counters / virtual span differ: in %d/%d out %d/%d elapsed %v/%v",
			a.PacketsIn, b.PacketsIn, a.PacketsOut, b.PacketsOut, a.Elapsed, b.Elapsed)
	}
	t.Logf("\n%s", FormatManySession(a))
}

// BenchmarkManySessionVirtual feeds the per-commit perf artifact with the
// virtual-time regime's wall/virtual ratio. The CI virtual-bench step runs
// it at the full 10⁵ sessions; the default keeps `go test -bench .`
// affordable. A ratio at or above 1 (wall no faster than the simulated
// span) fails the benchmark outright.
func BenchmarkManySessionVirtual(b *testing.B) {
	sessions := virtualSessions(5000)
	opt := loadOptions(b, "virtual")
	opt.Sessions = sessions
	for i := 0; i < b.N; i++ {
		opt.Seed = int64(i + 1)
		res := RunManySession(opt)
		if res.Lost != 0 {
			b.Fatalf("lost %d keystrokes", res.Lost)
		}
		wallOverVirtual := res.Wall.Seconds() / res.Elapsed.Seconds()
		if wallOverVirtual >= 1 {
			b.Fatalf("virtual-time bench ran slower than real time: %v wall for %v virtual",
				res.Wall.Round(time.Millisecond), res.Elapsed)
		}
		b.ReportMetric(wallOverVirtual, "wall_over_virtual")
		b.ReportMetric(res.Elapsed.Seconds()/res.Wall.Seconds(), "virtual_speedup_x")
		b.ReportMetric(float64(sessions), "sessions")
	}
}
