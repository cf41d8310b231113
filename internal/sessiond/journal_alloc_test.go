package sessiond

import (
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/simclock"
)

// TestJournalEncodeAllocFree guards the steady-state journal encode path:
// snapshotting one live session into a warmed buffer — counters, pending
// output, screen, scrollback window — performs no heap allocations, so
// the periodic flush never pressures the collector however many thousands
// of sessions the daemon carries.
func TestJournalEncodeAllocFree(t *testing.T) {
	sched := simclock.NewScheduler(time.Date(2012, 4, 1, 0, 0, 0, 0, time.UTC))
	d, err := NewWithLimits(Config{
		Clock:       sched,
		Send:        func(netem.Addr, []byte) {},
		IdleTimeout: -1,
	}, Scrollback(64))
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	// Populate the screen and history so the encode is representative.
	s.mu.Lock()
	for i := 0; i < 40; i++ {
		s.srv.HostOutput([]byte("\x1b[1;32muser@remote\x1b[0m:~$ ls -l output line\r\n"))
	}
	s.mu.Unlock()

	var sn sessionSnapshot
	var buf []byte
	encode := func() {
		s.mu.Lock()
		s.snapshotSessionLocked(&sn, DefaultSeqReserve)
		buf = appendSessionSnapshot(buf[:0], &sn)
		s.mu.Unlock()
	}
	encode() // warm the buffer
	if len(buf) == 0 {
		t.Fatal("empty snapshot encode")
	}
	if n := testing.AllocsPerRun(200, encode); n != 0 {
		t.Fatalf("journal encode allocates %.1f times per run, want 0", n)
	}
}
