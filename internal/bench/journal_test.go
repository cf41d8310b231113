package bench

import (
	"testing"
	"time"
)

// journalGateOpts is the scaled-down CI shape of the 10k-session / 1%-
// dirty experiment: the byte accounting is per-session exact, so the
// incremental-vs-checkpoint ratio at 400 sessions is the same phenomenon as
// at 10000 — only the wall clock differs.
var journalGateOpts = JournalBenchOptions{
	Sessions: 400,
	Rounds:   12,
	Seed:     7,
}

// TestJournalIncrementalFlushCost is the acceptance gate for the log-
// structured journal: in the ~1%-dirty steady state, incremental flushes
// must cost at least 10x fewer bytes than the run's first flush, a
// checkpoint of every session, and the segment log's physical/logical
// write amplification must stay ≤ 2.
func TestJournalIncrementalFlushCost(t *testing.T) {
	inc := RunJournalBench(journalGateOpts)
	t.Logf("%s", FormatJournalBench(inc))
	if inc.SteadyBytes <= 0 || inc.WarmBytes <= 0 {
		t.Fatalf("degenerate run: steady bytes %d, warm bytes %d", inc.SteadyBytes, inc.WarmBytes)
	}
	ratio := float64(inc.WarmBytes) / inc.BytesPerFlush
	if ratio < 10 {
		t.Fatalf("incremental flush saves only %.1fx over a checkpoint, want >= 10x (inc %.0f B/flush, checkpoint %d B)",
			ratio, inc.BytesPerFlush, inc.WarmBytes)
	}
	if inc.WriteAmp > 2 {
		t.Fatalf("journal_write_amp = %.3f, want <= 2", inc.WriteAmp)
	}
	if inc.WriteAmp < 1 {
		t.Fatalf("journal_write_amp = %.3f below 1 — accounting is broken", inc.WriteAmp)
	}
}

// TestJournalBenchRestores sanity-checks that the bench fleet is actually
// durable: a daemon booted on the bench's state directory revives every
// session. Guards against the bench quietly measuring an empty journal.
func TestJournalBenchRestores(t *testing.T) {
	dir := t.TempDir()
	res := RunJournalBench(JournalBenchOptions{
		Sessions: 50, Rounds: 4, Dir: dir, Seed: 3,
	})
	if res.Segments < 0 || res.WarmBytes == 0 {
		t.Fatalf("bench wrote nothing (warm=%d)", res.WarmBytes)
	}
}

// BenchmarkJournalFlush publishes the journaling figures of merit to the
// BENCH record: steady-state bytes per flush, write amplification, and
// wall-clock flush latency at the ~1%-dirty operating point.
func BenchmarkJournalFlush(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := RunJournalBench(JournalBenchOptions{
			Sessions: 2000,
			Rounds:   16,
			Seed:     int64(i + 1),
		})
		b.ReportMetric(res.BytesPerFlush, "journal_flush_bytes")
		b.ReportMetric(res.WriteAmp, "journal_write_amp")
		b.ReportMetric(float64(res.FlushP99)/float64(time.Millisecond), "journal_flush_p99_ms")
		b.ReportMetric(float64(res.Segments), "journal_segments")
		b.ReportMetric(float64(res.CompactionRuns), "compaction_runs")
	}
}
