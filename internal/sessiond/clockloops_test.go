package sessiond

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/netem"
	"repro/internal/simclock"
)

var loopEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// countingClock wraps a Scheduler and counts timer traffic, making "how
// often did a daemon loop wake and re-arm" an observable quantity.
type countingClock struct {
	*simclock.Scheduler
	resets atomic.Int64
}

func (c *countingClock) NewTimer(d time.Duration) simclock.Timer {
	return &countingTimer{Timer: c.Scheduler.NewTimer(d), c: c}
}

type countingTimer struct {
	simclock.Timer
	c *countingClock
}

func (t *countingTimer) Reset(d time.Duration) bool {
	t.c.resets.Add(1)
	return t.Timer.Reset(d)
}

// waitUntil polls cond in real time — the loops under test run as real
// goroutines even though they sleep on a virtual clock.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	var real simclock.Real
	deadline := real.Now().Add(5 * time.Second)
	for !cond() {
		if real.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		real.Sleep(time.Millisecond)
	}
}

// TestTickLoopHonorsInjectedClock pins the tickLoop half of the one-time-
// regime bug: deadlines are computed against cfg.Clock.Now, so the sleep
// must ride the same clock. Under a Scheduler the loop must fire a due
// session deadline when *virtual* time crosses it — the pre-fix loop slept
// on a real time.Timer and would sit out the full wall-clock duration.
func TestTickLoopHonorsInjectedClock(t *testing.T) {
	clk := simclock.NewScheduler(loopEpoch)
	d, err := New(Config{Clock: clk, IdleTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	// A slot nobody has contacted holds no deadline; one with a peer owes it
	// a heartbeat, and any session work arms that.
	s.Do(func(srv *core.Server) { srv.Transport().Connection().SetRemoteAddr(netem.Addr{Host: 1, Port: 1}) })
	at, ok := d.NextDeadline()
	if !ok {
		t.Fatal("no session deadline armed")
	}
	go d.tickLoop()
	defer close(d.stop)

	// The loop parks a one-hour timer before it computes its real sleep, so
	// a parked waiter is not yet the rendezvous: its timer armed at the
	// session deadline is.
	waitUntil(t, "the loop to arm its sleep at the session deadline", func() bool {
		next, ok := clk.NextAt()
		return ok && next.Equal(at)
	})
	clk.RunFor(at.Sub(clk.Now()) + time.Millisecond)
	waitUntil(t, "tick loop to consume the due deadline", func() bool {
		next, ok := d.NextDeadline()
		return !ok || next.After(at)
	})
}

// TestJournalLoopBoundedWakeupsDuringOutage pins the journalLoop half:
// during a sustained disk outage (every write fails with EIO), a flush-
// request storm from low-headroom sessions must NOT wake the loop — wakeups
// are bounded by the backoff cadence, and each backoff expiry costs exactly
// one (failed) flush attempt. The pre-fix loop woke per request and clamped
// past deadlines to a 1 ms resleep, spinning at ~1 kHz for the outage.
func TestJournalLoopBoundedWakeupsDuringOutage(t *testing.T) {
	clk := &countingClock{Scheduler: simclock.NewScheduler(loopEpoch)}
	ffs := faultinject.NewFaultFS(nil, 1)
	d, err := New(Config{
		Clock:               clk,
		IdleTimeout:         -1,
		StateDir:            t.TempDir(),
		FS:                  ffs,
		JournalRetryMin:     100 * time.Millisecond,
		JournalRetryMax:     400 * time.Millisecond,
		JournalSuspendAfter: -1, // keep the outage in pure retry/backoff
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	d.journal.Start(d.stop)
	defer close(d.stop)
	clk.BlockUntilWaiters(1) // loop parked on its cadence timer

	// Outage begins. The first on-demand request reaches the disk, fails,
	// and arms the backoff. The session must be dirty for the attempt to
	// reach the disk at all — a clean incremental flush is a no-op.
	ffs.SetFaults(faultinject.FSFaults{FailAll: faultinject.ErrEIO})
	errs0 := d.metrics.JournalErrors.Value()
	s.Do(func(*core.Server) {})
	d.journal.RequestFlush()
	waitUntil(t, "first failed flush attempt", func() bool {
		return d.metrics.JournalErrors.Value() > errs0
	})
	waitUntil(t, "loop to re-park after the failure", func() bool {
		return clk.WaiterCount() >= 1
	})

	// Request storm while the backoff is pending: none of it may wake the
	// loop. Give the loop real time to misbehave, then count re-arms — the
	// pre-fix loop racks up thousands here.
	resets0 := clk.resets.Load()
	for i := 0; i < 20000; i++ {
		d.journal.RequestFlush()
	}
	simclock.Real{}.Sleep(150 * time.Millisecond)
	if grew := clk.resets.Load() - resets0; grew > 2 {
		t.Fatalf("flush-request storm woke the journal loop %d times during backoff; wakeups must be timer-bounded", grew)
	}
	if d.metrics.JournalErrors.Value() != errs0+1 {
		t.Fatalf("storm leaked %d extra flush attempts through the backoff gate",
			d.metrics.JournalErrors.Value()-errs0-1)
	}

	// Each backoff expiry buys exactly one retry: advance virtual time
	// across several expiries and count attempts, not spins.
	for round := int64(1); round <= 4; round++ {
		waitUntil(t, "loop parked before advance", func() bool { return clk.WaiterCount() >= 1 })
		clk.RunFor(600 * time.Millisecond) // > retryMax + jitter
		waitUntil(t, "one retry per backoff expiry", func() bool {
			return d.metrics.JournalErrors.Value() >= errs0+1+round
		})
	}
	if total := clk.resets.Load() - resets0; total > 16 {
		t.Fatalf("journal loop re-armed %d times across 4 backoff expiries; expected a handful", total)
	}

	// Outage ends: the next expiry flushes clean and the loop returns to
	// serving on-demand requests.
	ffs.SetFaults(faultinject.FSFaults{})
	flushes0 := d.metrics.JournalFlushes.Value()
	waitUntil(t, "loop parked before heal advance", func() bool { return clk.WaiterCount() >= 1 })
	clk.RunFor(600 * time.Millisecond)
	waitUntil(t, "post-outage flush success", func() bool {
		return d.metrics.JournalFlushes.Value() > flushes0
	})
}
