package bench

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/netem"
)

// loadOptions returns the options of the many-session load by -exp name.
func loadOptions(t testing.TB, name string) ManySessionOptions {
	t.Helper()
	for _, l := range Loads {
		if l.Name == name {
			return l.Options
		}
	}
	t.Fatalf("no many-session load %q", name)
	return ManySessionOptions{}
}

// cohortSize returns how many of a run's sessions ran the named cohort.
func cohortSize(res ManySessionResult, name string) int {
	for _, c := range res.Cohorts {
		if c.Name == name {
			return c.Sessions
		}
	}
	return 0
}

// TestManySessionLoad1000 is the scaling demonstration from the roadmap:
// one sessiond daemon serving 1000 concurrent sessions on one socket in
// simulation, with the load generator's full report (aggregate throughput
// plus keystroke latency percentiles) printed to the test log.
func TestManySessionLoad1000(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-session simulation")
	}
	opt := loadOptions(t, "manysession")
	opt.Sessions, opt.Keystrokes, opt.TypeInterval, opt.Seed = 1000, 8, 200*time.Millisecond, 1
	res := RunManySession(opt)
	t.Logf("\n%s", FormatManySession(res))
	if got := len(res.Samples); got != 1000*8 {
		t.Fatalf("delivered %d keystroke samples, want %d (lost=%d)", got, 1000*8, res.Lost)
	}
	if res.Lost != 0 {
		t.Fatalf("%d keystrokes never became visible on a loss-free link", res.Lost)
	}
	st := Summarize(res.Samples)
	// 2 ms link, 8 ms collection interval, millisecond host think time: the
	// median must sit in the low tens of milliseconds, far under one RTT of
	// slack; a scheduling or demux bug at this scale shows up as a blowout.
	if st.Median <= 0 || st.Median > 100*time.Millisecond {
		t.Fatalf("median keystroke latency = %v at 1000 sessions; demux or timer heap misbehaving", st.Median)
	}
	if res.PacketsIn == 0 || res.PacketsOut == 0 {
		t.Fatal("no aggregate traffic measured")
	}
	// The batched pipeline's acceptance threshold at scale: at 1000
	// sessions the daemon must spend at least 4x fewer read+write
	// syscalls per delivered packet than the one-per-datagram baseline
	// (which is exactly 1.0 by construction).
	if res.SyscallsPerPacket <= 0 || res.SyscallsPerPacket > 0.25 {
		t.Fatalf("batched pipeline spent %.3f syscalls/pkt at 1000 sessions, want <= 0.25 (>=4x fewer)",
			res.SyscallsPerPacket)
	}
	if res.ReadBatchP50 < 2 {
		t.Fatalf("median read batch = %d datagrams/syscall; batching is not engaging", res.ReadBatchP50)
	}
}

func TestManySessionLossRecovery(t *testing.T) {
	// A lossy link must not strand keystrokes: SSP retransmits until every
	// echo lands.
	opt := loadOptions(t, "manysession")
	opt.Sessions, opt.Keystrokes, opt.TypeInterval, opt.Seed = 50, 6, 100*time.Millisecond, 3
	opt.Params = netem.LinkParams{Delay: 5 * time.Millisecond, LossProb: 0.10, Overhead: 28}
	res := RunManySession(opt)
	if res.Lost != 0 {
		t.Fatalf("%d keystrokes lost despite SSP retransmission", res.Lost)
	}
	if got := len(res.Samples); got != 50*6 {
		t.Fatalf("delivered %d samples, want %d", got, 50*6)
	}
}

// TestManySessionMixedCohorts runs the heterogeneous workload: shells
// (latency-measured), CJK/emoji editors (intern-table load), and log
// tails (continuous scrolling) sharing one daemon socket. The shell
// cohort's echoes must all land.
func TestManySessionMixedCohorts(t *testing.T) {
	opt := loadOptions(t, "mixed")
	opt.Sessions, opt.Keystrokes, opt.TypeInterval, opt.Seed = 60, 10, 150*time.Millisecond, 7
	res := RunManySession(opt)
	shells, editors, pagers := cohortSize(res, "shell"), cohortSize(res, "cjk-editor"), cohortSize(res, "log-tail")
	if shells != 20 || editors != 20 || pagers != 20 {
		t.Fatalf("cohorts = %d/%d/%d, want 20/20/20", shells, editors, pagers)
	}
	if got := len(res.Samples); got != shells*10 {
		t.Fatalf("delivered %d shell samples, want %d (lost=%d)", got, shells*10, res.Lost)
	}
	if res.Lost != 0 {
		t.Fatalf("%d shell keystrokes never became visible on a loss-free link", res.Lost)
	}
	if res.PacketsOut == 0 {
		t.Fatal("no aggregate traffic measured")
	}
	t.Logf("\n%s", FormatManySession(res))
}

// TestManySessionRestartRoamLoss is the load generator's torture mode:
// mixed cohorts on per-cohort lossy links, the daemon killed and restored
// from its journal mid-run, and a third of the clients roaming afterwards.
// Every session must resume (resumption latency measured per session),
// every shell keystroke must eventually echo, and roaming must actually
// have been observed by the restored daemon.
func TestManySessionRestartRoamLoss(t *testing.T) {
	opt := loadOptions(t, "torture")
	opt.Sessions, opt.Keystrokes, opt.TypeInterval, opt.Seed = 45, 12, 150*time.Millisecond, 11
	res := RunManySession(opt)
	t.Logf("\n%s", FormatManySession(res))
	if !res.Restarted {
		t.Fatal("restart scenario did not run")
	}
	if res.Restored != int64(res.Sessions) {
		t.Fatalf("restored %d/%d sessions from the journal", res.Restored, res.Sessions)
	}
	// Every session must have accepted a post-restart state (the resume
	// repaint or a newer frame) — a stranded client shows up here.
	if got := len(res.ResumeSamples); got != res.Sessions {
		t.Fatalf("resumption latency samples = %d, want %d (stranded clients)", got, res.Sessions)
	}
	if res.Lost != 0 {
		t.Fatalf("%d shell keystrokes never became visible across the restart", res.Lost)
	}
	if shells := cohortSize(res, "shell"); len(res.Samples) != shells*12 {
		t.Fatalf("delivered %d shell samples, want %d", len(res.Samples), shells*12)
	}
	if res.Roams == 0 {
		t.Fatal("no roaming events observed by the daemon")
	}
	// The daemon-side echo count spans both daemon incarnations: the echo
	// stage and the per-cohort counts come from the same matches, and only
	// the cohort counts live outside the daemon.
	var echoes, cohortEchoes int64
	for _, st := range res.StageStats {
		if st.Name == "echo" {
			echoes = st.N
		}
	}
	for _, ec := range res.EchoCohorts {
		cohortEchoes += ec.N
	}
	if echoes == 0 || echoes != cohortEchoes {
		t.Fatalf("echo stage counted %d matches, the cohorts %d", echoes, cohortEchoes)
	}
	rs := Summarize(res.ResumeSamples)
	// Resumption is bounded by the heartbeat/retransmission machinery, not
	// by operator action: the whole fleet must be back within seconds.
	if rs.N > 0 && Percentile(res.ResumeSamples, 99) > 10*time.Second {
		t.Fatalf("p99 resumption latency %v is not operational", Percentile(res.ResumeSamples, 99))
	}
}

// TestManySessionTelemetryDeterministic is the acceptance gate for the
// server-side telemetry spine: a ≥300-session run produces non-trivial
// keystroke→echo percentiles and per-stage latencies, and rerunning the
// identical options reproduces every telemetry number bit-for-bit. The
// probes read the same virtual clock as the pipeline, so instrumentation
// cannot perturb (or be perturbed by) scheduling.
func TestManySessionTelemetryDeterministic(t *testing.T) {
	opt := loadOptions(t, "mixed")
	opt.Sessions, opt.Keystrokes, opt.TypeInterval, opt.Seed = 300, 6, 150*time.Millisecond, 5
	a := RunManySession(opt)
	b := RunManySession(opt)

	if len(a.EchoCohorts) == 0 {
		t.Fatal("no server-side echo cohorts measured")
	}
	for _, ec := range a.EchoCohorts {
		if ec.N == 0 || ec.P50 <= 0 || ec.P99 < ec.P50 {
			t.Fatalf("degenerate echo percentiles for cohort %s: %+v", ec.Name, ec)
		}
	}
	if len(a.StageStats) == 0 {
		t.Fatal("no pipeline stage latencies measured")
	}
	if !reflect.DeepEqual(a.EchoCohorts, b.EchoCohorts) {
		t.Fatalf("echo percentiles differ across identical runs:\n%+v\n%+v", a.EchoCohorts, b.EchoCohorts)
	}
	if !reflect.DeepEqual(a.StageStats, b.StageStats) {
		t.Fatalf("stage latencies differ across identical runs:\n%+v\n%+v", a.StageStats, b.StageStats)
	}
	if a.ClientLe16ms != b.ClientLe16ms || a.ClientLeRTT != b.ClientLeRTT {
		t.Fatalf("client-visible Fig. 6 fractions differ: %v/%v vs %v/%v",
			a.ClientLe16ms, a.ClientLeRTT, b.ClientLe16ms, b.ClientLeRTT)
	}
	t.Logf("\n%s", FormatManySession(a))
}

// reportEchoMetrics pushes the server-side echo percentiles into the
// per-commit benchmark artifact (BENCH_<sha>.json via benchjson): shell-
// cohort p50/p99 in milliseconds plus the Fig. 6 "% within 16 ms"
// fraction, alongside the wire-packet throughput metric.
func reportEchoMetrics(b *testing.B, res ManySessionResult) {
	b.ReportMetric(float64(res.PacketsIn+res.PacketsOut), "wirepkts/op")
	b.ReportMetric(res.SyscallsPerPacket, "syscalls_per_pkt")
	for _, ec := range res.EchoCohorts {
		if ec.Name != "shell" {
			continue
		}
		b.ReportMetric(float64(ec.P50)/float64(time.Millisecond), "echo_p50_ms")
		b.ReportMetric(float64(ec.P99)/float64(time.Millisecond), "echo_p99_ms")
		b.ReportMetric(ec.Le16ms*100, "echo_le16ms_pct")
	}
}

// BenchmarkManySessionMixed feeds the per-commit perf artifact with the
// heterogeneous cohort run (unicode + scrolling screen-state load).
func BenchmarkManySessionMixed(b *testing.B) {
	opt := loadOptions(b, "mixed")
	opt.Sessions, opt.Keystrokes, opt.TypeInterval = 63, 5, 100*time.Millisecond
	for i := 0; i < b.N; i++ {
		opt.Seed = int64(i + 1)
		res := RunManySession(opt)
		if res.Lost != 0 {
			b.Fatalf("lost %d keystrokes", res.Lost)
		}
		reportEchoMetrics(b, res)
	}
}

// BenchmarkManySession feeds the per-commit perf artifact: virtual-time
// cost of a 64-session daemon serving a short typing burst.
func BenchmarkManySession(b *testing.B) {
	opt := loadOptions(b, "manysession")
	opt.Sessions, opt.Keystrokes, opt.TypeInterval = 64, 5, 100*time.Millisecond
	for i := 0; i < b.N; i++ {
		opt.Seed = int64(i + 1)
		res := RunManySession(opt)
		if res.Lost != 0 {
			b.Fatalf("lost %d keystrokes", res.Lost)
		}
		reportEchoMetrics(b, res)
	}
}
