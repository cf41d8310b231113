package sessiond_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/netem"
	"repro/internal/network"
	"repro/internal/sessiond"
	"repro/internal/simclock"
	"repro/internal/udpbatch"
)

// spoofedWire builds a datagram with a valid envelope for session id and
// a payload no key will ever authenticate.
func spoofedWire(id uint64) []byte {
	wire := network.AppendEnvelope(nil, id)
	for i := 0; i < 24; i++ {
		wire = append(wire, byte(0xA5^i))
	}
	return wire
}

// seqRemaining reads a session's current send-reservation headroom.
func seqRemaining(s *sessiond.Session) uint64 {
	var rem uint64
	s.Do(func(srv *core.Server) {
		rem = srv.Transport().Connection().SeqRemaining()
	})
	return rem
}

// TestJournalFlushBackoff proves flush failures retry with exponential
// backoff in virtual time: attempt gaps grow from JournalRetryMin toward
// JournalRetryMax and the attempt count over a long outage stays small —
// no unbounded retry loop, no flush-request storm reaching the disk.
func TestJournalFlushBackoff(t *testing.T) {
	dir := t.TempDir()
	ffs := faultinject.NewFaultFS(nil, 1)
	w := newSimWorld(t, sessiond.Config{
		IdleTimeout:         -1,
		StateDir:            dir,
		FS:                  ffs,
		JournalRetryMin:     100 * time.Millisecond,
		JournalRetryMax:     2 * time.Second,
		JournalSuspendAfter: -1, // isolate backoff from suspension
	}, lan())
	sess, err := w.d.OpenSession()
	if err != nil {
		t.Fatal(err)
	}

	// Record every flush ATTEMPT (the open of the checkpoint staging file
	// or of an incremental segment) in virtual time, then fail everything.
	var attempts []time.Time
	ffs.SetOpHook(func(op faultinject.Op, path string) error {
		if op == faultinject.OpOpen &&
			(strings.Contains(path, ".tmp") || strings.Contains(path, ".seg.")) {
			attempts = append(attempts, w.sched.Now())
		}
		return nil
	})
	ffs.SetFaults(faultinject.FSFaults{FailAll: faultinject.ErrEIO})

	// Dirty the session so the flush has work: a clean incremental flush
	// is a no-op that never reaches the disk at all.
	sess.Do(func(*core.Server) {})
	if err := w.d.FlushJournal(); err == nil {
		t.Fatal("flush succeeded under FailAll")
	}
	w.wake()
	w.sched.RunFor(30 * time.Second)

	// A request storm during the outage must collapse into the backoff
	// gate, not reach the disk.
	for i := 0; i < 100; i++ {
		w.d.FlushJournal()
	}
	attemptsAfterStorm := len(attempts)

	if n := len(attempts); n < 8 || n > 25 {
		// Without backoff this would be hundreds (every session tick);
		// with min 100ms doubling to a 2s cap, 30s of outage is ~17.
		t.Fatalf("attempts over 30s outage = %d, want backoff-bounded [8, 25]", n)
	}
	if attemptsAfterStorm != len(attempts) {
		t.Fatalf("%d flush requests leaked through the backoff gate",
			attemptsAfterStorm-len(attempts))
	}
	gaps := make([]time.Duration, 0, len(attempts)-1)
	for i := 1; i < len(attempts); i++ {
		gaps = append(gaps, attempts[i].Sub(attempts[i-1]))
	}
	for i, g := range gaps {
		if g < 100*time.Millisecond {
			t.Fatalf("gap[%d] = %v, below JournalRetryMin", i, g)
		}
		if g > 2*time.Second+2*time.Second/4+10*time.Millisecond {
			t.Fatalf("gap[%d] = %v, above JournalRetryMax+jitter", i, g)
		}
	}
	// The first gaps double (jitter is at most backoff/4, strictly less
	// than the doubling), and the cap is eventually reached.
	if !(gaps[1] > gaps[0] && gaps[2] > gaps[1]) {
		t.Fatalf("early gaps not growing: %v", gaps[:3])
	}
	if max := gaps[len(gaps)-1]; max < 2*time.Second {
		t.Fatalf("final gap %v never reached the backoff cap", max)
	}
	if w.d.Metrics().JournalFlushFailures.Value() != int64(len(attempts)) {
		// Every failure is a real disk attempt (the boot flush succeeded
		// before the hook was armed; the manual kick-off is recorded too).
		t.Fatalf("journal_flush_failures = %d, attempts = %d",
			w.d.Metrics().JournalFlushFailures.Value(), len(attempts))
	}
	if w.d.Metrics().JournalRetryBackoffMs.Value() == 0 {
		t.Fatal("journal_retry_backoff_ms gauge is zero mid-outage")
	}

	// Recovery: heal the disk, let the pending retry land, gauge resets.
	ffs.SetFaults(faultinject.FSFaults{})
	w.runUntil(5*time.Second, func() bool {
		return w.d.Metrics().JournalRetryBackoffMs.Value() == 0
	}, "backoff reset after recovery")
}

// TestJournalSuspendResume drives the journal into the suspended-
// unjournaled state (writes fail, rename works): the stale snapshot is
// invalidated, ceilings lift so service continues, and a later recovery
// resumes journaling with re-capped reservations.
func TestJournalSuspendResume(t *testing.T) {
	dir := t.TempDir()
	ffs := faultinject.NewFaultFS(nil, 2)
	w := newSimWorld(t, sessiond.Config{
		IdleTimeout:         -1,
		StateDir:            dir,
		FS:                  ffs,
		SeqReserve:          128,
		JournalRetryMin:     50 * time.Millisecond,
		JournalRetryMax:     200 * time.Millisecond,
		JournalSuspendAfter: 3,
	}, lan())
	sess, err := w.d.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	cl := w.addClient(sess, netem.Addr{Host: 1, Port: 7000})
	cl.typeString("x")
	w.runUntil(2*time.Second, func() bool {
		return w.d.Metrics().PacketsIn.Value() > 0
	}, "client traffic")
	if err := w.d.FlushJournal(); err != nil {
		t.Fatal(err)
	}
	journalPath := filepath.Join(dir, "sessions.journal")
	if _, err := os.Stat(journalPath); err != nil {
		t.Fatalf("journal not on disk before the outage: %v", err)
	}

	// Disk starts rejecting writes (but rename still works — metadata
	// and data paths often fail independently). Dirty the session first:
	// an incremental flush with no changed sessions never touches the
	// disk, so it could neither fail nor drive the suspension counter.
	ffs.SetFaults(faultinject.FSFaults{WriteErrProb: 1})
	sess.Do(func(*core.Server) {})
	w.d.FlushJournal()
	w.wake()
	w.runUntil(10*time.Second, func() bool {
		return w.d.JournalSuspended() == 1
	}, "suspension (unjournaled mode)")

	if _, err := os.Stat(journalPath); !os.IsNotExist(err) {
		t.Fatalf("stale journal was not invalidated: %v", err)
	}
	if _, err := os.Stat(journalPath + ".suspended"); err != nil {
		t.Fatalf("invalidated journal not renamed aside: %v", err)
	}
	if got := w.d.Metrics().JournalSuspended.Value(); got != 1 {
		t.Fatalf("journal_suspended gauge = %d, want 1", got)
	}
	if rem := seqRemaining(sess); rem < 1<<40 {
		t.Fatalf("ceilings not lifted while unjournaled: remaining = %d", rem)
	}
	// Sessions opened DURING the suspension also run unthrottled.
	s2, err := w.d.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	if rem := seqRemaining(s2); rem < 1<<40 {
		t.Fatalf("session opened while suspended is capped: remaining = %d", rem)
	}
	// Service continues: the client keeps typing and hearing back.
	before := w.d.Metrics().PacketsIn.Value()
	cl.typeString("still alive")
	w.runUntil(5*time.Second, func() bool {
		return w.d.Metrics().PacketsIn.Value() > before
	}, "service while suspended")

	// Recovery: flushes succeed again, journaling resumes, ceilings
	// re-cap at a fresh reservation.
	ffs.SetFaults(faultinject.FSFaults{})
	w.runUntil(10*time.Second, func() bool {
		return w.d.JournalSuspended() == 0
	}, "resume after recovery")
	if _, err := os.Stat(journalPath); err != nil {
		t.Fatalf("journal not rewritten after resume: %v", err)
	}
	if rem := seqRemaining(sess); rem > 2*128 {
		t.Fatalf("ceilings not re-capped after resume: remaining = %d", rem)
	}
	if got := w.d.Metrics().JournalSuspended.Value(); got != 0 {
		t.Fatalf("journal_suspended gauge = %d after resume, want 0", got)
	}
}

// TestJournalFailSafe drives the journal into the fail-safe suspension:
// the disk rejects EVERYTHING including the invalidating rename, so the
// stale snapshot stays restorable and the ceilings must stay binding.
func TestJournalFailSafe(t *testing.T) {
	dir := t.TempDir()
	ffs := faultinject.NewFaultFS(nil, 3)
	w := newSimWorld(t, sessiond.Config{
		IdleTimeout:         -1,
		StateDir:            dir,
		FS:                  ffs,
		SeqReserve:          128,
		JournalRetryMin:     50 * time.Millisecond,
		JournalRetryMax:     200 * time.Millisecond,
		JournalSuspendAfter: 3,
	}, lan())
	sess, err := w.d.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.d.FlushJournal(); err != nil {
		t.Fatal(err)
	}

	ffs.SetFaults(faultinject.FSFaults{FailAll: faultinject.ErrEACCES})
	sess.Do(func(*core.Server) {}) // dirty, so flushes attempt real I/O
	w.d.FlushJournal()
	w.wake()
	w.runUntil(10*time.Second, func() bool {
		return w.d.JournalSuspended() == 2
	}, "fail-safe suspension")

	if _, err := os.Stat(filepath.Join(dir, "sessions.journal")); err != nil {
		t.Fatalf("stale journal should survive in fail-safe mode: %v", err)
	}
	if rem := seqRemaining(sess); rem > 2*128 {
		t.Fatalf("fail-safe mode lifted ceilings: remaining = %d (nonce reuse risk)", rem)
	}
	if got := w.d.Metrics().JournalSuspended.Value(); got != 2 {
		t.Fatalf("journal_suspended gauge = %d, want 2", got)
	}

	// Recovery resumes normally from fail-safe too.
	ffs.SetFaults(faultinject.FSFaults{})
	w.runUntil(10*time.Second, func() bool {
		return w.d.JournalSuspended() == 0
	}, "resume from fail-safe")
}

// TestSuspendedCrashRestoresNothing proves the invalidation did its job:
// a daemon that dies while suspended-unjournaled must restore NO
// sessions — restoring the stale pre-suspension snapshot would revive
// counters below nonces used while the suspension lasted.
func TestSuspendedCrashRestoresNothing(t *testing.T) {
	dir := t.TempDir()
	ffs := faultinject.NewFaultFS(nil, 4)
	w := newSimWorld(t, sessiond.Config{
		IdleTimeout:         -1,
		StateDir:            dir,
		FS:                  ffs,
		JournalRetryMin:     50 * time.Millisecond,
		JournalRetryMax:     200 * time.Millisecond,
		JournalSuspendAfter: 2,
	}, lan())
	sess, err := w.d.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.d.FlushJournal(); err != nil {
		t.Fatal(err)
	}
	ffs.SetFaults(faultinject.FSFaults{WriteErrProb: 1})
	sess.Do(func(*core.Server) {}) // dirty, so flushes attempt real I/O
	w.d.FlushJournal()
	w.wake()
	w.runUntil(10*time.Second, func() bool {
		return w.d.JournalSuspended() == 1
	}, "suspension")

	// Hard crash (no Close, no final flush), then a healthy restart.
	d2, err := sessiond.New(sessiond.Config{
		Clock:       w.sched,
		IdleTimeout: -1,
		StateDir:    dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.Metrics().SessionsRestored.Value(); got != 0 {
		t.Fatalf("restart restored %d sessions from an invalidated journal", got)
	}
}

// TestUnauthQuotaFlood proves the per-source token bucket stops a
// spoofed-envelope flood after its burst allowance — before the AEAD
// runs — while a legitimate client on another address stays untouched,
// and a quieted source earns its service back at the refill rate.
func TestUnauthQuotaFlood(t *testing.T) {
	w := newSimWorld(t, sessiond.Config{
		IdleTimeout:      -1,
		UnauthQuotaBurst: 32,
		UnauthQuotaRate:  16,
	}, lan())
	sess, err := w.d.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	cl := w.addClient(sess, netem.Addr{Host: 1, Port: 7000})
	cl.typeString("hi")
	w.runUntil(2*time.Second, func() bool {
		return w.d.Metrics().PacketsIn.Value() > 0
	}, "legit traffic")

	// 500 spoofed datagrams from one source, all naming the live session.
	floodSrc := netem.Addr{Host: 66, Port: 666}
	wire := spoofedWire(sess.ID)
	authBefore := w.d.Metrics().DropsAuth.Value()
	for i := 0; i < 500; i++ {
		w.d.HandlePacket(wire, floodSrc)
	}
	authCost := w.d.Metrics().DropsAuth.Value() - authBefore
	quotaDrops := w.d.Metrics().DropsUnauthQuota.Value()
	if authCost != 32 {
		t.Fatalf("flood extracted %d AEAD passes, want exactly the burst (32)", authCost)
	}
	if quotaDrops != 500-32 {
		t.Fatalf("drops_unauth_quota = %d, want %d", quotaDrops, 500-32)
	}

	// The legitimate client is unaffected mid-flood.
	inBefore := w.d.Metrics().PacketsIn.Value()
	cl.typeString("still fine")
	w.runUntil(5*time.Second, func() bool {
		return w.d.Metrics().PacketsIn.Value() > inBefore
	}, "legit service during flood")

	// A quieted source refills: after 2 virtual seconds at 16/s the
	// bucket is full again, so a fresh (small) burst is charged, not
	// quota-refused.
	w.sched.RunFor(2 * time.Second)
	authBefore = w.d.Metrics().DropsAuth.Value()
	for i := 0; i < 10; i++ {
		w.d.HandlePacket(wire, floodSrc)
	}
	if got := w.d.Metrics().DropsAuth.Value() - authBefore; got != 10 {
		t.Fatalf("refilled source charged %d/10 — refill broken", got)
	}
}

// floodSweep is n spoofed datagrams naming session id, one source.
func floodSweep(id uint64, n int) []udpbatch.Message {
	msgs := make([]udpbatch.Message, n)
	for i := range msgs {
		msgs[i] = udpbatch.Message{Buf: spoofedWire(id), Addr: netem.Addr{Host: 9, Port: 99}}
	}
	return msgs
}

// TestShedPolicy floods one session past its per-sweep budget: the
// pressure drops must trip the metered shed policy (shed_events, shedding
// gauge), the budget must halve while it is active, and the gauge must
// clear — and the budget return — after the hold expires.
func TestShedPolicy(t *testing.T) {
	sched := simclock.NewScheduler(epoch)
	d, err := sessiond.NewWithLimits(sessiond.Config{
		Clock:       sched,
		IdleTimeout: -1,
	}, sessiond.InboxDepth(4), sessiond.Shed(16, time.Second, 2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	sess, err := d.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	m := d.Metrics()
	sweep := func(wantDrops int64, why string) {
		t.Helper()
		before := m.DropsQueueFull.Value()
		d.HandleBatch(floodSweep(sess.ID, 12))
		if got := m.DropsQueueFull.Value() - before; got != wantDrops {
			t.Fatalf("sweep of 12 dropped %d, want %d (%s)", got, wantDrops, why)
		}
	}
	sweep(8, "budget 4")
	if m.ShedEvents.Value() != 0 {
		t.Fatal("shed tripped below its threshold")
	}
	sweep(8, "budget 4; the 16th drop trips the policy after this sweep's admission")
	if m.ShedEvents.Value() != 1 {
		t.Fatalf("shed_events = %d, want 1", m.ShedEvents.Value())
	}
	if m.Shedding.Value() != 1 {
		t.Fatal("shedding gauge not set while active")
	}
	sweep(10, "budget halved to 2 while shedding")
	if m.ShedEvents.Value() != 1 {
		t.Fatalf("shed_events = %d: drops during the hold must extend it, not count a new event", m.ShedEvents.Value())
	}

	// After the hold expires, the next sweep observes the lapse, clears
	// the gauge and admits the full budget again.
	sched.RunFor(3 * time.Second)
	sweep(8, "budget back to 4 after the hold")
	if m.Shedding.Value() != 0 {
		t.Fatal("shedding gauge still set after the hold expired")
	}
}

// TestFloodCannotStarveQuietSession puts every datagram of a quiet session
// behind a hundred-datagram flood for another session in the SAME ingest
// sweep: the flood is cut at its budget before any AEAD runs, so the quiet
// session's keystrokes are handled in that sweep and its echo arrives on
// time, however long the flood lasts.
func TestFloodCannotStarveQuietSession(t *testing.T) {
	w := newSimWorld(t, sessiond.Config{
		NewApp:      shellApp,
		IdleTimeout: -1,
	}, lan(), sessiond.InboxDepth(4))
	loud, err := w.d.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	quiet, err := w.d.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	var sweeps int64
	w.nw.Attach(w.daemonAddr, func(p netem.Packet) {
		sweeps++
		w.d.HandleBatch(append(floodSweep(loud.ID, 100), udpbatch.Message{Buf: p.Payload, Addr: p.Src}))
		w.wake()
	})
	cl := w.addClient(quiet, netem.Addr{Host: 1, Port: 7000})
	w.sched.RunFor(time.Second)
	cl.typeString("still here")
	typed := w.sched.Now()
	w.runUntil(time.Second, func() bool {
		return strings.Contains(cl.screenText(), "still here")
	}, "the quiet session's echo behind the flood")
	// 2 ms each way, the server's 8 ms collection interval, the client's
	// 1 ms: an unstarved echo is there well inside 50 ms.
	if took := w.sched.Now().Sub(typed); took > 50*time.Millisecond {
		t.Fatalf("echo took %v behind the flood, want what an idle daemon gives", took)
	}
	m := w.d.Metrics()
	if m.DropsQueueFull.Value() == 0 {
		t.Fatal("the flood was never cut at its budget")
	}
	if got := m.DropsAuth.Value() + m.DropsUnauthQuota.Value(); got > 4*sweeps {
		t.Fatalf("%d flood datagrams reached a session over %d sweeps, budget is 4 per sweep", got, sweeps)
	}
}

// TestServeBatchSurvivesTransientErrnos pins the satellite fix: the
// poller errnos a connected-UDP socket can surface (ETIMEDOUT,
// ECONNREFUSED) and kernel pressure (EINTR, ENOBUFS) must not kill the
// reader loop — while a genuinely fatal errno (persistent EACCES) still
// ends ServeBatch with that error.
func TestServeBatchSurvivesTransientErrnos(t *testing.T) {
	d, err := sessiond.New(sessiond.Config{Clock: simclock.Real{}, IdleTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := d.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	conn := newMemConn(func(netem.Addr, []byte) {})
	conn.failReads(
		faultinject.ErrEINTR, faultinject.ErrENOBUFS,
		faultinject.ErrETIMEDOUT, faultinject.ErrECONNREFUSED,
	)
	serveErr := make(chan error, 1)
	go func() { serveErr <- d.ServeBatch(conn) }()

	// The four scripted errnos drain first; then a real datagram must
	// still be read and routed — proof the reader survived them all.
	conn.send(spoofedWire(sess.ID), netem.Addr{Host: 3, Port: 33})
	deadline := time.Now().Add(10 * time.Second)
	for d.Metrics().ReadErrorsTransient.Value() < 4 || d.Metrics().PacketsIn.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("reader did not survive transient errnos: transient=%d in=%d",
				d.Metrics().ReadErrorsTransient.Value(), d.Metrics().PacketsIn.Value())
		}
		select {
		case err := <-serveErr:
			t.Fatalf("ServeBatch died on a transient errno: %v", err)
		case <-time.After(time.Millisecond):
		}
	}

	// A persistent EACCES (firewall rejection) is NOT transient: the
	// reader must surface it rather than spin forever.
	conn.failReads(faultinject.ErrEACCES)
	conn.send(spoofedWire(sess.ID), netem.Addr{Host: 3, Port: 33})
	select {
	case err := <-serveErr:
		if !errors.Is(err, syscall.EACCES) {
			t.Fatalf("ServeBatch returned %v, want EACCES", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeBatch did not return on a fatal errno")
	}
	d.Close()
}

// scriptedSingle is a one-datagram socket that reads ECONNREFUSED, then one
// datagram, then EBADF for ever after.
type scriptedSingle struct {
	reads int
	wire  []byte
}

func (s *scriptedSingle) ReadFrom(buf []byte) (int, netem.Addr, error) {
	s.reads++
	switch s.reads {
	case 1:
		return 0, netem.Addr{}, syscall.ECONNREFUSED
	case 2:
		return copy(buf, s.wire), netem.Addr{Host: 3, Port: 33}, nil
	}
	return 0, netem.Addr{}, syscall.EBADF
}

func (s *scriptedSingle) WriteTo([]byte, netem.Addr) error { return nil }

// TestServeBatchClassifiesLoopRungErrors is the same contract on the loop
// rung, auto's fallback: the adapter hands a socket's read errors to
// ServeBatch, which counts and outlives a transient one and returns a
// persistent one instead of spinning on it.
func TestServeBatchClassifiesLoopRungErrors(t *testing.T) {
	d, err := sessiond.New(sessiond.Config{Clock: simclock.Real{}, IdleTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	sess, err := d.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	sc := &scriptedSingle{wire: spoofedWire(sess.ID)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- d.ServeBatch(udpbatch.NewLoopConn(sc)) }()
	select {
	case err := <-serveErr:
		if !errors.Is(err, syscall.EBADF) {
			t.Fatalf("ServeBatch returned %v, want EBADF", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeBatch did not return on a persistent EBADF")
	}
	if got := d.Metrics().ReadErrorsTransient.Value(); got != 1 {
		t.Fatalf("read_errors_transient = %d, want 1 (the ECONNREFUSED)", got)
	}
	if got := d.Metrics().PacketsIn.Value(); got != 1 {
		t.Fatalf("PacketsIn = %d, want 1: the datagram behind the transient error was not handled", got)
	}
}
