package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/simclock"
	"repro/internal/sspcrypto"
	"repro/internal/telemetry"
	"repro/internal/terminal"
)

// The journal's state machine — flush, retry/backoff, suspend/resume,
// compaction, replay — tested with no daemon: fakeHost is the whole of what
// the package asks of one.

var epoch = time.Date(2012, 4, 1, 0, 0, 0, 0, time.UTC)

const (
	noCeiling = ^uint64(0)
	ample     = 1 << 16 // a reservation no test here exhausts
)

// fakeSession is a session reduced to what a Snapshot records: a screen and
// one outgoing counter with its ceiling (the state-number pair shadows it).
// mu guards all of it, as a session's lock does.
type fakeSession struct {
	id      uint64
	mu      sync.Mutex
	mark    Mark
	emu     *terminal.Emulator
	nextSeq uint64 // the next sequence number this session would seal
	seqCeil uint64 // it may not seal this one or any above
}

// seal uses up to n sequence numbers, stopping at the ceiling as a sender
// does, and reports how many it got.
func (s *fakeSession) seal(n int) (sealed int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for ; sealed < n && s.nextSeq < s.seqCeil; sealed++ {
		s.nextSeq++
	}
	return sealed
}

type fakeHost struct {
	j        *Journal
	reserve  uint64
	nextID   uint64
	sessions map[uint64]*fakeSession
	recaps   int // WithSnapshot calls that re-capped
	lifts    int // LiftCeilings calls
}

func (h *fakeHost) NextID() uint64 { return h.nextID }

func (h *fakeHost) LiveIDs(buf []uint64) []uint64 {
	for id := range h.sessions {
		buf = append(buf, id)
	}
	slices.Sort(buf)
	return buf
}

func (h *fakeHost) WithSnapshot(id uint64, recap bool, sn *Snapshot, enc func(*Snapshot, *Mark)) {
	s := h.sessions[id]
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	*sn = Snapshot{
		ID: s.id, OrigW: 40, OrigH: 8,
		NextSeq:      min(s.nextSeq+h.reserve, sspcrypto.MaxSeq+1),
		NextStateNum: s.nextSeq + h.reserve,
		FB:           s.emu.Framebuffer(),
		PendingOut:   sn.PendingOut[:0],
	}
	if recap {
		h.recaps++
		s.seqCeil = sn.NextSeq
	}
	enc(sn, &s.mark)
}

func (h *fakeHost) Grant(id, seqCeil, _ uint64) {
	if s := h.sessions[id]; s != nil {
		s.mu.Lock()
		s.seqCeil = seqCeil
		s.mark.Granted()
		s.mu.Unlock()
	}
}

func (h *fakeHost) LiftCeilings() {
	h.lifts++
	for _, s := range h.sessions {
		s.mu.Lock()
		s.seqCeil = noCeiling
		s.mu.Unlock()
	}
}

// open issues a session the way a daemon does: capped at one reservation
// (or uncapped while nothing on disk can be restored) and marked dirty.
func (h *fakeHost) open() *fakeSession {
	h.nextID++
	s := &fakeSession{id: h.nextID, emu: terminal.NewEmulator(40, 8), seqCeil: h.reserve}
	if h.j.Suspended() == Unjournaled {
		s.seqCeil = noCeiling
	}
	h.sessions[s.id] = s
	h.j.MarkDirty(s.id, &s.mark)
	return s
}

// write puts text on the session's screen and marks it dirty.
func (h *fakeHost) write(s *fakeSession, text string) {
	s.mu.Lock()
	s.emu.Write([]byte(text))
	s.mu.Unlock()
	h.j.MarkDirty(s.id, &s.mark)
}

func (h *fakeHost) close(s *fakeSession) {
	delete(h.sessions, s.id)
	h.j.NoteClosed(s.id)
}

// world is one state directory and the faults, clock and events around it.
type world struct {
	t      *testing.T
	dir    string
	ffs    *faultinject.FaultFS
	clk    *simclock.Scheduler
	cfg    Config
	events []telemetry.Code
}

func newWorld(t *testing.T, cfg Config) *world {
	w := &world{t: t, dir: t.TempDir(), ffs: faultinject.NewFaultFS(nil, 7), clk: simclock.NewScheduler(epoch)}
	cfg.Dir, cfg.FS, cfg.Clock = w.dir, w.ffs, w.clk
	if cfg.CompactMin == 0 {
		cfg.CompactMin = 64 << 10 // the daemon's floor: no test compacts by accident
	}
	cfg.Event = func(code telemetry.Code, _ uint64, _ time.Time) { w.events = append(w.events, code) }
	w.cfg = cfg
	return w
}

// boot opens the directory as a fresh incarnation would: new counters, a
// host holding exactly the restored sessions with zero headroom.
func (w *world) boot(reserve uint64) (*fakeHost, error) {
	h := &fakeHost{reserve: reserve, sessions: map[uint64]*fakeSession{}}
	cfg := w.cfg
	cfg.Counters = &Counters{}
	j, snaps, nextID, err := Open(cfg, h)
	if err != nil {
		return nil, err
	}
	h.j, h.nextID = j, nextID
	for _, sn := range snaps {
		emu := terminal.NewEmulatorWithFramebuffer(sn.FB)
		h.sessions[sn.ID] = &fakeSession{id: sn.ID, emu: emu, nextSeq: sn.NextSeq, seqCeil: sn.NextSeq}
	}
	return h, nil
}

func (w *world) mustBoot(reserve uint64) *fakeHost {
	w.t.Helper()
	h, err := w.boot(reserve)
	if err != nil {
		w.t.Fatal(err)
	}
	return h
}

func (w *world) mustFlush(h *fakeHost) {
	w.t.Helper()
	if err := h.j.Flush(false); err != nil {
		w.t.Fatal(err)
	}
}

// files lists the state directory, names mapped to sizes.
func (w *world) files() map[string]int64 {
	ents, err := os.ReadDir(w.dir)
	if err != nil {
		w.t.Fatal(err)
	}
	m := make(map[string]int64, len(ents))
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			w.t.Fatal(err)
		}
		m[e.Name()] = info.Size()
	}
	return m
}

func (w *world) segments() (names []string, bytes int64) {
	for name, size := range w.files() {
		if strings.Contains(name, segSuffix) {
			names = append(names, name)
			bytes += size
		}
	}
	slices.Sort(names)
	return names, bytes
}

func screen(s *fakeSession) string { return string(s.emu.Framebuffer().AppendSnapshot(nil)) }

// TestBootReadFaultNeverRestoresWithoutTail is the nonce-safety bug this
// package's boot policy closes: a checkpoint holds a session, a tail of
// segments raises its ceiling flush by flush and the session seals past
// each one, the process dies — and the next boot cannot read the directory
// listing, or one of the segments. Restoring the checkpoint without its
// whole tail would hand the session a NextSeq below sequence numbers
// already on the wire. The boot must be refused, or the session dropped, or
// its NextSeq clear everything it sealed.
func TestBootReadFaultNeverRestoresWithoutTail(t *testing.T) {
	const reserve = 8
	w := newWorld(t, Config{})
	h := w.mustBoot(reserve)
	s := h.open()
	w.mustFlush(h) // the checkpoint: ceiling 8
	for round := 0; round < 4; round++ {
		if s.seal(reserve) != reserve {
			t.Fatalf("round %d: ceiling %d bound before a full reservation was used", round, s.seqCeil)
		}
		h.write(s, fmt.Sprintf("round %d\r\n", round))
		w.mustFlush(h) // a segment: ceiling nextSeq+8
	}
	s.seal(reserve)
	segs, _ := w.segments()
	if len(segs) < 3 || s.nextSeq <= 2*reserve {
		t.Fatalf("timeline too short: %d segments, %d sealed", len(segs), s.nextSeq)
	}

	faults := map[string]func(op faultinject.Op, path string) bool{
		"readdir": func(op faultinject.Op, _ string) bool { return op == faultinject.OpReadDir },
	}
	for _, name := range segs {
		faults["read "+name] = func(op faultinject.Op, path string) bool {
			return op == faultinject.OpRead && filepath.Base(path) == name
		}
	}
	for label, hit := range faults {
		w.ffs.SetOpHook(func(op faultinject.Op, path string) error {
			if hit(op, path) {
				return faultinject.ErrEIO
			}
			return nil
		})
		h2, err := w.boot(reserve)
		w.ffs.SetOpHook(nil)
		if err != nil {
			continue // refused: the operator retries the boot
		}
		if r := h2.sessions[s.id]; r != nil && r.nextSeq < s.nextSeq {
			t.Errorf("%s failing: session restored with NextSeq %d, but it had sealed up to %d", label, r.nextSeq, s.nextSeq-1)
		}
	}
	// The faults gone, the same directory restores past everything sealed.
	if r := w.mustBoot(reserve).sessions[s.id]; r == nil || r.nextSeq < s.nextSeq {
		t.Fatalf("healthy boot did not restore the session past its sealed sequence numbers: %+v", r)
	}
}

// TestFlushFailureStateMachine walks the retry/backoff/suspend/resume
// machine: N consecutive failures double the backoff from RetryMin to
// RetryMax with jitter in [0, backoff/4], attempts inside the backoff are
// refused without touching the disk, the SuspendAfter-th failure suspends —
// unjournaled when the stale checkpoint could be renamed aside (ceilings
// lifted), fail-safe when even that failed (ceilings bind) — and the first
// success resumes, with every ceiling re-capped at a recorded reservation.
func TestFlushFailureStateMachine(t *testing.T) {
	const (
		reserve  = 16
		retryMin = 100 * time.Millisecond
		retryMax = 800 * time.Millisecond
		suspend  = 6
	)
	for _, tc := range []struct {
		name   string
		faults faultinject.FSFaults
		mode   int
	}{
		{"unjournaled", faultinject.FSFaults{WriteErrProb: 1}, Unjournaled},
		{"fail-safe", faultinject.FSFaults{FailAll: faultinject.ErrEACCES}, FailSafe},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, Config{RetryMin: retryMin, RetryMax: retryMax, SuspendAfter: suspend})
			h := w.mustBoot(reserve)
			c := h.j.cfg.Counters
			s := h.open()
			w.mustFlush(h)
			if _, ok := h.j.RetryAt(); ok {
				t.Fatal("a retry is pending on a healthy journal")
			}

			w.ffs.SetFaults(tc.faults)
			opens := 0
			w.ffs.SetOpHook(func(op faultinject.Op, _ string) error {
				if op == faultinject.OpOpen {
					opens++
				}
				return nil
			})
			h.write(s, "dirty\r\n")
			want := time.Duration(0)
			for fail := 1; fail <= suspend; fail++ {
				if err := h.j.Flush(false); err == nil {
					t.Fatalf("attempt %d succeeded under %+v", fail, tc.faults)
				}
				want = min(max(2*want, retryMin), retryMax)
				at, ok := h.j.RetryAt()
				delay := at.Sub(w.clk.Now())
				if !ok || delay < want || delay > want+want/4 {
					t.Fatalf("failure %d: retry in %v (pending %v), want in [%v, %v]", fail, delay, ok, want, want+want/4)
				}
				if got := c.JournalRetryBackoffMs.Value(); got != int64(delay/time.Millisecond) {
					t.Fatalf("failure %d: journal_retry_backoff_ms = %d, delay %v", fail, got, delay)
				}
				if got := c.JournalFlushFailures.Value(); got != int64(fail) || opens != fail {
					t.Fatalf("failure %d: journal_flush_failures = %d, disk attempts = %d", fail, got, opens)
				}
				// Inside the backoff a flush is refused before it reaches
				// the disk, however many ask.
				w.clk.RunFor(delay - time.Nanosecond)
				if err := h.j.Flush(false); err != nil || opens != fail {
					t.Fatalf("failure %d: a flush inside the backoff reached the disk (err %v, attempts %d)", fail, err, opens)
				}
				w.clk.RunFor(time.Nanosecond)
				wantMode := Active
				if fail == suspend {
					wantMode = tc.mode
				}
				if h.j.Suspended() != wantMode {
					t.Fatalf("failure %d: suspended = %d, want %d", fail, h.j.Suspended(), wantMode)
				}
			}
			if want != retryMax {
				t.Fatalf("backoff ended at %v, never reached RetryMax %v", want, retryMax)
			}
			if got := c.JournalSuspended.Value(); got != int64(tc.mode) {
				t.Fatalf("journal_suspended = %d, want %d", got, tc.mode)
			}

			_, haveCheckpoint := w.files()[fileName]
			_, haveAside := w.files()[fileName+suspendedSuffix]
			late := h.open()
			switch tc.mode {
			case Unjournaled:
				if haveCheckpoint || !haveAside {
					t.Fatalf("stale checkpoint not renamed aside: %v", w.files())
				}
				if h.lifts == 0 || s.seqCeil != noCeiling || late.seqCeil != noCeiling {
					t.Fatalf("ceilings not lifted while unjournaled: lifts=%d old=%d new=%d", h.lifts, s.seqCeil, late.seqCeil)
				}
			case FailSafe:
				if !haveCheckpoint {
					t.Fatalf("fail-safe lost the stale checkpoint: %v", w.files())
				}
				if h.lifts != 0 || s.seqCeil > s.nextSeq+reserve || late.seqCeil != reserve {
					t.Fatalf("fail-safe lifted a ceiling: lifts=%d old=%d new=%d", h.lifts, s.seqCeil, late.seqCeil)
				}
			}
			// While suspended the sessions keep sealing; a failed resume
			// attempt must leave them as it found them.
			s.seal(3 * reserve)
			if err := h.j.Flush(false); err == nil {
				t.Fatal("resume attempt succeeded on a failing disk")
			}
			if tc.mode == Unjournaled && s.seqCeil != noCeiling {
				t.Fatalf("a failed resume left the re-capped ceiling %d in place", s.seqCeil)
			}

			// The disk heals: the first success resumes and re-caps.
			w.ffs.SetFaults(faultinject.FSFaults{})
			at, _ := h.j.RetryAt()
			w.clk.RunUntil(at)
			recaps := h.recaps
			w.mustFlush(h)
			if h.j.Suspended() != Active || c.JournalSuspended.Value() != Active || c.JournalRetryBackoffMs.Value() != 0 {
				t.Fatalf("not resumed: suspended=%d gauge=%d backoff=%d", h.j.Suspended(), c.JournalSuspended.Value(), c.JournalRetryBackoffMs.Value())
			}
			if _, ok := h.j.RetryAt(); ok {
				t.Fatal("a retry is still pending after the success")
			}
			if tc.mode == Unjournaled && h.recaps-recaps != len(h.sessions) {
				t.Fatalf("resume re-capped %d of %d sessions at snapshot time", h.recaps-recaps, len(h.sessions))
			}
			for _, x := range h.sessions {
				if x.seqCeil != x.nextSeq+reserve {
					t.Fatalf("session %d: ceiling %d after resume, want nextSeq %d + %d", x.id, x.seqCeil, x.nextSeq, reserve)
				}
			}
			if _, stale := w.files()[fileName+suspendedSuffix]; stale {
				t.Fatal("the invalidated checkpoint outlived the resume")
			}
			wantEvents := slices.Repeat([]telemetry.Code{telemetry.EvJournalFlushFail}, suspend)
			wantEvents = append(wantEvents, telemetry.EvJournalSuspend, telemetry.EvJournalFlushFail, telemetry.EvJournalResume)
			if !slices.Equal(w.events, wantEvents) {
				t.Fatalf("events %v, want %v", w.events, wantEvents)
			}
			// And what resumed is restorable, past everything sealed.
			h2 := w.mustBoot(reserve)
			for id, x := range h.sessions {
				if r := h2.sessions[id]; r == nil || r.nextSeq < x.nextSeq {
					t.Fatalf("session %d after resume and restart: %+v, sealed up to %d", id, r, x.nextSeq)
				}
			}
		})
	}
}

// TestCompactionTriggerAndMidCompactionCrash pins when the tail is folded
// — at the first flush that finds segBytes ≥ 2·max(checkpointBytes,
// CompactMin), not before — and that dying between the new checkpoint's
// rename and the old tail's deletion replays nothing stale.
func TestCompactionTriggerAndMidCompactionCrash(t *testing.T) {
	for _, tc := range []struct {
		name       string
		compactMin int64
	}{
		{"checkpoint dominates", 1},
		{"floor dominates", 4 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const reserve = 32
			w := newWorld(t, Config{CompactMin: tc.compactMin})
			h := w.mustBoot(reserve)
			c := h.j.cfg.Counters
			a, b := h.open(), h.open()
			h.write(a, "session a\r\n")
			w.mustFlush(h)
			threshold := 2 * max(w.files()[fileName], tc.compactMin)

			// The tail's deletion is best effort; failing it is the crash
			// between the two steps of a compaction.
			w.ffs.SetOpHook(func(op faultinject.Op, path string) error {
				if op == faultinject.OpRemove && strings.Contains(path, segSuffix) {
					return faultinject.ErrEIO
				}
				return nil
			})
			for i := 0; c.CompactionRuns.Value() == 0; i++ {
				if i > 2000 {
					t.Fatal("the tail never compacted")
				}
				_, tail := w.segments()
				if tail != h.j.segBytes {
					t.Fatalf("flush %d: journal accounts %d tail bytes, directory holds %d", i, h.j.segBytes, tail)
				}
				a.seal(1)
				h.write(a, fmt.Sprintf("line %d of compaction fodder\r\n", i))
				w.mustFlush(h)
				if due, ran := tail >= threshold, c.CompactionRuns.Value() == 1; due != ran {
					t.Fatalf("flush %d: tail %d B against threshold %d B, compacted = %v", i, tail, threshold, ran)
				}
			}
			w.ffs.SetOpHook(nil)
			stale, _ := w.segments()
			if len(stale) == 0 || c.JournalSegments.Value() != 0 {
				t.Fatalf("crash window not reproduced: %d stale segments, journal_segments = %d", len(stale), c.JournalSegments.Value())
			}
			// The stale tail says less than the checkpoint that absorbed it:
			// b closes and a writes on, in the new epoch.
			h.close(b)
			h.write(a, "after the fold\r\n")
			w.mustFlush(h)

			h2 := w.mustBoot(reserve)
			if len(h2.sessions) != 1 || h2.sessions[b.id] != nil {
				t.Fatalf("restored %d sessions (b closed: %v)", len(h2.sessions), h2.sessions[b.id] == nil)
			}
			if r := h2.sessions[a.id]; r.nextSeq != a.seqCeil || screen(r) != screen(a) {
				t.Fatalf("a restored at NextSeq %d (granted ceiling %d), screen equal = %v", r.nextSeq, a.seqCeil, screen(r) == screen(a))
			}
			for _, name := range stale {
				if _, still := w.files()[name]; still {
					t.Fatalf("stale-epoch segment %s survived the boot", name)
				}
			}
		})
	}
}

// TestReplayDamagePolicy: a torn tail keeps the CRC-complete prefix and
// everything before it, untouched sessions included; a record damaged
// inside intact framing poisons every session restored so far, until a full
// record re-establishes one.
func TestReplayDamagePolicy(t *testing.T) {
	const reserve = 8
	build := func(t *testing.T) (w *world, a, b, c *fakeSession, segs []string) {
		w = newWorld(t, Config{})
		h := w.mustBoot(reserve)
		a, b = h.open(), h.open()
		h.write(a, "a: base\r\n")
		h.write(b, "b: base\r\n")
		w.mustFlush(h) // checkpoint: a, b
		h.write(a, "a: first delta\r\n")
		w.mustFlush(h) // seg 0: delta a
		h.write(b, "b: first delta\r\n")
		w.mustFlush(h) // seg 1: delta b
		c = h.open()
		h.write(c, "c: born late\r\n")
		h.write(a, strings.Repeat("a: repainted\r\n", 8))
		w.mustFlush(h) // seg 2: meta, full a (every row moved), full c
		h.write(b, "b: second delta\r\n")
		w.mustFlush(h) // seg 3: delta b
		segs, _ = w.segments()
		if len(segs) != 4 {
			t.Fatalf("built %d segments, want 4", len(segs))
		}
		return w, a, b, c, segs
	}
	restored := func(w *world) (h *fakeHost, bad int64) {
		h = w.mustBoot(reserve)
		return h, h.j.cfg.Counters.JournalBadRecords.Value()
	}

	t.Run("torn tail", func(t *testing.T) {
		w, a, b, c, segs := build(t)
		whole, _ := restored(w)
		bBefore := screen(whole.sessions[b.id])
		last := filepath.Join(w.dir, segs[3])
		data, err := os.ReadFile(last)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(last, data[:len(data)-7], 0o600); err != nil {
			t.Fatal(err)
		}
		h, bad := restored(w)
		if bad != 1 || len(h.sessions) != 3 {
			t.Fatalf("torn tail: %d bad records, %d sessions restored, want 1 and 3", bad, len(h.sessions))
		}
		if screen(h.sessions[a.id]) != screen(a) || screen(h.sessions[c.id]) != screen(c) {
			t.Fatal("torn tail disturbed sessions it did not touch")
		}
		if got := screen(h.sessions[b.id]); got == bBefore || got == screen(b) {
			t.Fatal("b did not fall back to its last CRC-complete record")
		}
	})

	t.Run("corruption poisons until a full record", func(t *testing.T) {
		w, a, b, c, segs := build(t)
		first := filepath.Join(w.dir, segs[0])
		data, err := os.ReadFile(first)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-9] ^= 0x10 // inside the record body: framing intact, CRC fails
		if err := os.WriteFile(first, data, 0o600); err != nil {
			t.Fatal(err)
		}
		h, bad := restored(w)
		if bad == 0 {
			t.Fatal("corruption went uncounted")
		}
		// a and c have full records after the gap; b has only deltas, which
		// might build on what the gap swallowed.
		if r := h.sessions[a.id]; r == nil || screen(r) != screen(a) {
			t.Fatal("a's later full record did not re-establish it")
		}
		if r := h.sessions[c.id]; r == nil || screen(r) != screen(c) {
			t.Fatal("c, first recorded after the gap, was not restored")
		}
		if h.sessions[b.id] != nil {
			t.Fatal("b was restored from deltas applied across a corrupted gap")
		}
	})
}

// TestAppendRecordEncodeAllocFree guards the journal's half of a flush's
// per-session visit, for both record shapes: a checkpoint's full snapshot
// (the whole screen) and a segment's delta (row-generation diff
// and changed rows), encoded into a warmed arena through the callback the
// host runs under the session's lock, allocate nothing — no closure per
// session either — so the per-interval cost at thousands of sessions is
// pure CPU and bytes, never collector pressure.
func TestAppendRecordEncodeAllocFree(t *testing.T) {
	for _, checkpoint := range []bool{true, false} {
		w := newWorld(t, Config{})
		h := w.mustBoot(ample)
		s := h.open()
		for i := 0; i < 40; i++ {
			h.write(s, "\x1b[1;32muser@remote\x1b[0m:~$ ls -l output line\r\n")
		}
		if !checkpoint {
			// A delta needs a durable base; then a couple of rows move past
			// it, the typical steady-state shape.
			w.mustFlush(h)
			h.write(s, "\x1b[2;1Hdelta row one\x1b[5;1Hdelta row two")
		}
		j := h.j
		j.checkpoint = checkpoint
		base, valid := slices.Clone(s.mark.gens), s.mark.valid
		visit := func() {
			j.arena, j.offs, j.pending = j.arena[:0], j.offs[:0], j.pending[:0]
			h.WithSnapshot(s.id, false, &j.sn, j.encode)
			// Put the base back, so every run encodes the same delta.
			s.mark.valid, s.mark.gens = valid, append(s.mark.gens[:0], base...)
		}
		visit() // warm the buffers
		isDelta := len(j.arena) > 0 && j.arena[0] == recDelta
		if len(j.offs) != 1 || isDelta == checkpoint {
			t.Fatalf("checkpoint=%v: encoded %d records, delta = %v", checkpoint, len(j.offs), isDelta)
		}
		if n := testing.AllocsPerRun(200, visit); n != 0 {
			t.Fatalf("checkpoint=%v: a session's visit allocates %.1f times, want 0", checkpoint, n)
		}
	}
}

// TestIdleFlushAndRequeueBookkeeping: the no-op property and the dirty
// list's bookkeeping, at the seam — a clean flush touches neither disk nor
// counters, a session marked twice is recorded once, and a batch a failed
// flush put back is not duplicated by the marks that follow.
func TestIdleFlushAndRequeueBookkeeping(t *testing.T) {
	w := newWorld(t, Config{SuspendAfter: -1})
	h := w.mustBoot(8)
	c := h.j.cfg.Counters
	s := h.open()
	w.mustFlush(h)
	ops := 0
	w.ffs.SetOpHook(func(faultinject.Op, string) error { ops++; return nil })
	for i := 0; i < 5; i++ {
		w.mustFlush(h)
	}
	if ops != 0 || c.JournalFlushes.Value() != 1 {
		t.Fatalf("idle flushes: %d filesystem operations, journal_flushes = %d", ops, c.JournalFlushes.Value())
	}
	w.ffs.SetOpHook(nil)

	w.ffs.SetFaults(faultinject.FSFaults{WriteErrProb: 1})
	h.write(s, "one\r\n")
	if err := h.j.Flush(false); err == nil {
		t.Fatal("flush succeeded on a failing disk")
	}
	w.ffs.SetFaults(faultinject.FSFaults{})
	h.write(s, "two\r\n") // marks again: the failed flush had cleared the flag
	at, _ := h.j.RetryAt()
	w.clk.RunUntil(at)
	w.mustFlush(h)
	segs, _ := w.segments()
	data, err := os.ReadFile(filepath.Join(w.dir, segs[len(segs)-1]))
	if err != nil {
		t.Fatal(err)
	}
	_, _, body, err := decodeSegmentHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	if recs, bad, _ := decodeSegmentRecords(body); bad != 0 || len(recs) != 1 {
		t.Fatalf("the retried batch holds %d records (%d bad), want the session once", len(recs), bad)
	}
	if r := w.mustBoot(8).sessions[s.id]; r == nil || screen(r) != screen(s) {
		t.Fatal("the retried batch did not restore the session's screen")
	}
}

// TestMarksRacingFlushesLoseNothing: sessions change and mark themselves
// from their own goroutines while another flushes without pause. A flush
// clears a session's dirty flag under the session's lock before it encodes,
// so a change it did not see always leaves the flag set: once the writers
// stop, one more flush has everything, and a restart shows it.
func TestMarksRacingFlushesLoseNothing(t *testing.T) {
	w := newWorld(t, Config{})
	h := w.mustBoot(ample)
	var sessions []*fakeSession
	for i := 0; i < 4; i++ {
		sessions = append(sessions, h.open())
	}
	w.mustFlush(h)
	var writers sync.WaitGroup
	for _, s := range sessions {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 300; i++ {
				s.seal(1)
				h.write(s, fmt.Sprintf("session %d line %d\r\n", s.id, i))
			}
		}()
	}
	done := make(chan struct{})
	go func() { writers.Wait(); close(done) }()
	for flushing := true; flushing; {
		select {
		case <-done:
			flushing = false
		default:
		}
		if err := h.j.Flush(false); err != nil {
			t.Fatal(err)
		}
	}
	h2 := w.mustBoot(ample)
	for _, s := range sessions {
		if r := h2.sessions[s.id]; r == nil || screen(r) != screen(s) || r.nextSeq < s.nextSeq {
			t.Fatalf("session %d: a change made while flushes ran was never recorded", s.id)
		}
	}
}
