package bench

import (
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/sessiond"
	"repro/internal/simclock"
)

// JournalBenchOptions sizes the incremental-journaling experiment: a large
// fleet of sessions in virtual time, of which only a small fraction is
// active in any flush interval — the steady-state shape the log-structured
// journal is built for. Each round dirties ~1% of the sessions and
// flushes; the figure of merit is bytes written per flush versus the
// run's first flush — a checkpoint of every session, which is what a
// journal without the segment log would write on every flush — plus the
// physical/logical write amplification of the segment log itself.
type JournalBenchOptions struct {
	// Sessions is the fleet size (default 10000).
	Sessions int
	// Rounds is the number of steady-state flush intervals measured after
	// the warm-up full flush (default 20).
	Rounds int
	// Dir is the state directory (default: a fresh temp dir, removed
	// after the run).
	Dir string
	// Seed varies the per-session output content.
	Seed int64
}

// JournalBenchResult reports the journaling experiment.
type JournalBenchResult struct {
	Sessions      int
	Rounds        int
	DirtyPerRound int
	// WarmBytes is the initial whole-fleet flush: a checkpoint of every
	// session.
	WarmBytes int64
	// SteadyBytes is the total journal bytes across the measured rounds;
	// BytesPerFlush is the per-round average — the number the ≥10×
	// incremental-vs-checkpoint claim is about.
	SteadyBytes   int64
	BytesPerFlush float64
	// WriteAmp is physical bytes written over encoded bytes that changed,
	// cumulative over the whole run (journal_write_amp).
	WriteAmp float64
	// FlushP50/FlushP99 are wall-clock FlushJournal latencies over the
	// measured rounds (journal_flush_p99_ms feeds the BENCH record).
	FlushP50, FlushP99 time.Duration
	// Segments / CompactionRuns echo the daemon gauges at run end.
	Segments       int64
	CompactionRuns int64
	// Elapsed is virtual time simulated; Wall is real time spent.
	Elapsed time.Duration
	Wall    time.Duration
}

// journalFlushInterval is the virtual time between the bench's flushes.
const journalFlushInterval = 3 * time.Second

// RunJournalBench drives the experiment. Everything runs on a
// virtual clock with the daemon's loops unstarted, so flushes happen
// exactly when the harness says and the byte accounting is deterministic;
// only the flush latencies are wall-clock measurements.
func RunJournalBench(opt JournalBenchOptions) JournalBenchResult {
	if opt.Sessions == 0 {
		opt.Sessions = 10000
	}
	if opt.Rounds == 0 {
		opt.Rounds = 20
	}
	// The ~1% activity regime: Sessions/100 sessions (min 1) see output
	// between flushes, which come every journalFlushInterval.
	dirtyPerRound := max(opt.Sessions/100, 1)
	dir := opt.Dir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "journalbench"); err != nil {
			panic(err)
		}
		defer os.RemoveAll(dir)
	}

	var wall simclock.Real
	wallStart := wall.Now()
	sched := simclock.NewScheduler(time.Date(2012, 4, 1, 0, 0, 0, 0, time.UTC))
	d, err := sessiond.New(sessiond.Config{
		Clock:       sched,
		Send:        func(netem.Addr, []byte) {},
		IdleTimeout: -1,
		StateDir:    dir,
	})
	if err != nil {
		panic(err)
	}
	defer d.Close()

	res := JournalBenchResult{
		Sessions:      opt.Sessions,
		Rounds:        opt.Rounds,
		DirtyPerRound: dirtyPerRound,
	}
	m := d.Metrics()
	start := sched.Now()

	sessions := make([]*sessiond.Session, opt.Sessions)
	for i := range sessions {
		s, err := d.OpenSession()
		if err != nil {
			panic(err)
		}
		banner := fmt.Sprintf("\x1b[32muser%d@host\x1b[0m:~$ session %d of %d (seed %d)\r\n",
			i, i, opt.Sessions, opt.Seed)
		s.Do(func(srv *core.Server) { srv.HostOutput([]byte(banner)) })
		sessions[i] = s
	}
	if err := d.FlushJournal(); err != nil {
		panic(err)
	}
	res.WarmBytes = m.JournalBytes.Value()

	// Steady state: each round, a rotating ~1% slice of the fleet emits a
	// line of output, virtual time advances one flush interval, and the
	// journal flushes. The rotation touches every session eventually, so
	// the dirty set is never conveniently cache-warm.
	lats := make([]time.Duration, 0, opt.Rounds)
	steady0 := m.JournalBytes.Value()
	for r := 0; r < opt.Rounds; r++ {
		for k := 0; k < dirtyPerRound; k++ {
			s := sessions[(r*dirtyPerRound+k)%len(sessions)]
			line := fmt.Sprintf("round %d activity on session %d\r\n", r, k)
			s.Do(func(srv *core.Server) { srv.HostOutput([]byte(line)) })
		}
		sched.RunFor(journalFlushInterval)
		t0 := wall.Now()
		if err := d.FlushJournal(); err != nil {
			panic(err)
		}
		lats = append(lats, wall.Since(t0))
	}
	res.SteadyBytes = m.JournalBytes.Value() - steady0
	res.BytesPerFlush = float64(res.SteadyBytes) / float64(opt.Rounds)
	res.WriteAmp = m.JournalWriteAmp()
	res.Segments = m.JournalSegments.Value()
	res.CompactionRuns = m.CompactionRuns.Value()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	res.FlushP50 = lats[len(lats)/2]
	res.FlushP99 = lats[len(lats)*99/100]
	res.Elapsed = sched.Now().Sub(start)
	res.Wall = wall.Since(wallStart)
	return res
}

// FormatJournalBench renders the result for the CLI.
func FormatJournalBench(r JournalBenchResult) string {
	return fmt.Sprintf(
		"journal: %d sessions, %d dirty/round, %d rounds\n"+
			"  warm flush      %d B\n"+
			"  steady flush    %.0f B/flush (%d B total)\n"+
			"  write amp       %.3f\n"+
			"  flush latency   p50 %v  p99 %v\n"+
			"  segments %d  compactions %d  elapsed %v (virtual)  wall %v\n",
		r.Sessions, r.DirtyPerRound, r.Rounds,
		r.WarmBytes, r.BytesPerFlush, r.SteadyBytes, r.WriteAmp,
		r.FlushP50.Round(time.Microsecond), r.FlushP99.Round(time.Microsecond),
		r.Segments, r.CompactionRuns, r.Elapsed, r.Wall.Round(time.Millisecond))
}
