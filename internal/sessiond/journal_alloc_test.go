package sessiond

import (
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/netem"
	"repro/internal/simclock"
)

// TestJournalEncodeAllocFree guards the daemon's half of a journal flush's
// per-session visit: finding the session, filling a warmed snapshot from it
// under its lock — counters, pending output, screen —
// and handing it to the encoder performs no heap allocations, so the
// periodic flush never pressures the collector however many thousands of
// sessions the daemon carries. (internal/journal guards the encoder's half.)
func TestJournalEncodeAllocFree(t *testing.T) {
	sched := simclock.NewScheduler(time.Date(2012, 4, 1, 0, 0, 0, 0, time.UTC))
	d, err := New(Config{
		Clock:       sched,
		Send:        func(netem.Addr, []byte) {},
		IdleTimeout: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	// Populate and scroll the screen so the encode is representative.
	s.mu.Lock()
	for i := 0; i < 40; i++ {
		s.srv.HostOutput([]byte("\x1b[1;32muser@remote\x1b[0m:~$ ls -l output line\r\n"))
	}
	s.pendingOut = append(s.pendingOut, timedOutput{at: sched.Now().Add(time.Second), data: []byte("queued\r\n")})
	s.mu.Unlock()

	var sn journal.Snapshot
	var buf []byte
	enc := func(sn *journal.Snapshot, _ *journal.Mark) {
		buf = sn.FB.AppendSnapshot(buf[:0])
		for _, po := range sn.PendingOut {
			buf = append(buf, po.Data...)
		}
	}
	encode := func() { (*journalHost)(d).WithSnapshot(s.ID, false, &sn, enc) }
	encode() // warm the buffers
	if len(buf) == 0 || len(sn.PendingOut) != 1 {
		t.Fatalf("empty snapshot (%d bytes, %d pending)", len(buf), len(sn.PendingOut))
	}
	if n := testing.AllocsPerRun(200, encode); n != 0 {
		t.Fatalf("journal visit allocates %.1f times per run, want 0", n)
	}
}
