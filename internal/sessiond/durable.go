package sessiond

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/netem"
	"repro/internal/network"
	"repro/internal/sspcrypto"
	"repro/internal/statesync"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// This file is the session side of crash-safe persistence: what a session's
// durable core is (snapshotLocked), how one is revived (restoreSession,
// with boot-time eviction of the stale), and the daemon as internal/journal
// sees it (journalHost). The files, the flush and retry/suspend state
// machine, compaction and replay are that package's.

// DefaultJournalInterval is the periodic flush cadence.
const DefaultJournalInterval = journal.DefaultInterval

// DefaultSeqReserve is the per-flush counter reservation: how many
// datagrams (and minted states) a session may produce between flushes
// before sends are suppressed pending the next flush.
const DefaultSeqReserve = 1 << 16

// DefaultJournalCompactMinBytes floors the compaction trigger so tiny
// deployments do not checkpoint on every few appended records.
const DefaultJournalCompactMinBytes = 64 << 10

// openJournal opens Config.StateDir, revives the sessions journaled there,
// records the restart state and grants every restored session fresh
// reservation headroom — all before any traffic flows.
func (d *Daemon) openJournal() error {
	cfg := d.cfg
	j, snaps, maxID, err := journal.Open(journal.Config{
		Dir:          cfg.StateDir,
		FS:           cfg.FS,
		Clock:        cfg.Clock,
		Interval:     cfg.JournalInterval,
		RetryMin:     cfg.JournalRetryMin,
		RetryMax:     cfg.JournalRetryMax,
		SuspendAfter: cfg.JournalSuspendAfter,
		Seed:         cfg.FaultSeed,
		CompactMin:   d.lim.journalCompactMinBytes,
		Counters:     &d.metrics.Counters,
		Event: func(code telemetry.Code, arg uint64, at time.Time) {
			if code == telemetry.EvJournalSuspend {
				d.degrade("journal-suspend", code, 0, arg, at)
			} else {
				d.rec.Record(code, 0, arg, at)
			}
		},
	}, (*journalHost)(d))
	if err != nil {
		return fmt.Errorf("sessiond: %w", err)
	}
	d.journal = j
	now := cfg.Clock.Now()
	for _, sn := range snaps {
		// Boot-time eviction of stale snapshots: a session that was idle
		// past the eviction horizon when the daemon died would have been
		// evicted had it kept running; don't resurrect it. Pre-issued
		// slots nobody ever redeemed wait indefinitely, as live ones do.
		if idle := cfg.IdleTimeout; idle > 0 && sn.Heard && now.Sub(sn.LastActive) >= idle {
			d.metrics.SnapshotsStale.Add(1)
			continue
		}
		if err := d.restoreSession(sn); err != nil {
			return fmt.Errorf("sessiond: restoring session %d: %w", sn.ID, err)
		}
		maxID = max(maxID, sn.ID)
	}
	d.nextID.Store(maxID)
	return d.FlushJournal()
}

// FlushJournal makes every session's durable core durable in the state
// directory — a segment of what changed, or a whole checkpoint — and then
// raises each recorded session's send-counter ceilings to the recorded
// reservations. It is a no-op error when the daemon has no Config.StateDir.
// Safe to call from any goroutine; flushes are serialized.
func (d *Daemon) FlushJournal() error {
	if d.journal == nil {
		return errors.New("sessiond: no StateDir configured")
	}
	return d.journal.Flush(false)
}

// JournalSuspended reports the suspension gauge (journal.Active /
// Unjournaled / FailSafe) for tests and status surfaces.
func (d *Daemon) JournalSuspended() int {
	if d.journal == nil {
		return journal.Active
	}
	return d.journal.Suspended()
}

// markDirty tells the journal this session's durable core changed.
func (s *Session) markDirty() {
	if j := s.d.journal; j != nil {
		j.MarkDirty(s.ID, &s.jm)
	}
}

// maybeRequestFlushLocked triggers an early flush when a session is
// consuming its counter reservation faster than the periodic cadence
// refreshes it. Caller holds s.mu.
//
// Only the sequence-number reservation is watched, because the state-number
// one never runs lower. Each grant gives both counters the same
// Config.SeqReserve of headroom (snapshotLocked). Every state minted after
// it is sealed into at least one datagram, except when the seal is refused
// because the sequence reservation is exhausted, and then SeqRemaining is
// already 0. Empty acks and resends spend sequence numbers but no state
// numbers. So states left <= low implies datagrams left <= low.
func (s *Session) maybeRequestFlushLocked() {
	j := s.d.journal
	if j == nil {
		return
	}
	if s.srv.Transport().Connection().SeqRemaining() <= s.d.cfg.SeqReserve/4 {
		// A session can burn through its reservation by sending alone
		// (retransmits, server-push output) without otherwise dirtying
		// durable state; mark it so the incremental flush actually encodes
		// the raised ceilings — otherwise the early flush would be the
		// no-op that starves it.
		s.markDirty()
		j.RequestFlush()
	}
}

// setCeilingsLocked bounds what the session may send: sequence numbers
// below seq, state numbers below num. Caller holds s.mu (or owns a session
// not yet registered).
func (s *Session) setCeilingsLocked(seq, num uint64) {
	tr := s.srv.Transport()
	tr.Connection().SetSeqCeiling(seq)
	tr.Sender().SetNumCeiling(num)
}

// liftCeilingsLocked removes both bounds (valid only while nothing on disk
// can be restored).
func (s *Session) liftCeilingsLocked() { s.setCeilingsLocked(sspcrypto.MaxSeq+1, ^uint64(0)) }

// snapshotLocked fills sn with the session's durable core. Its NextSeq and
// NextStateNum are the proposed reservations — the live counters plus
// Config.SeqReserve — and are NOT applied here: that is the flush's phase
// two. sn.PendingOut's array is reused, so a warmed sn costs no allocation.
// Caller holds s.mu.
func (s *Session) snapshotLocked(sn *journal.Snapshot) {
	tr := s.srv.Transport()
	conn := tr.Connection()
	reserve := s.d.cfg.SeqReserve
	pending := sn.PendingOut[:0]
	for _, po := range s.pendingOut {
		pending = append(pending, journal.TimedOutput{At: po.at, Data: po.data})
	}
	*sn = journal.Snapshot{
		ID:           s.ID,
		Key:          s.key,
		OrigW:        s.origW,
		OrigH:        s.origH,
		NextSeq:      min(conn.NextSeq()+reserve, sspcrypto.MaxSeq+1),
		ExpectedSeq:  conn.ExpectedSeq(),
		NextStateNum: tr.Sender().NumHighWater() + reserve,
		RecvNum:      tr.RemoteStateNum(),
		StreamSize:   tr.RemoteState().Size(),
		LastActive:   s.lastActive,
		PendingOut:   pending,
		FB:           s.srv.Terminal().Framebuffer(),
	}
	sn.Remote, sn.HaveRemote = conn.RemoteAddr()
	_, sn.Heard = conn.LastHeard()
}

// journalHost is the Daemon as journal.Host: the five things a flush needs
// of the registry and of a session under its lock.
type journalHost Daemon

func (h *journalHost) NextID() uint64 { return h.nextID.Load() }

func (h *journalHost) LiveIDs(buf []uint64) []uint64 {
	h.reg.each(func(s *Session) { buf = append(buf, s.ID) })
	slices.Sort(buf)
	return buf
}

func (h *journalHost) WithSnapshot(id uint64, recap bool, sn *journal.Snapshot, enc func(*journal.Snapshot, *journal.Mark)) {
	s := h.reg.lookup(id)
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		// removeLocked queued a tombstone; that record is the session's
		// durable fate.
		return
	}
	s.snapshotLocked(sn)
	if recap {
		s.setCeilingsLocked(sn.NextSeq, sn.NextStateNum)
	}
	enc(sn, &s.jm)
	sn.FB = nil // the journal's scratch must not pin this screen until the next flush
}

func (h *journalHost) Grant(id, seqCeil, numCeil uint64) {
	s := h.reg.lookup(id)
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.closed {
		s.setCeilingsLocked(seqCeil, numCeil)
		s.jm.Granted()
	}
	s.mu.Unlock()
}

func (h *journalHost) LiftCeilings() {
	h.reg.each(func(s *Session) {
		s.mu.Lock()
		if !s.closed {
			s.liftCeilingsLocked()
		}
		s.mu.Unlock()
	})
}

// restoreSession revives one journaled session: restored screen and input
// stream, reserved counters, and — per SSP semantics — a fresh diff
// baseline of state 0, so the first frame to the surviving client is a
// full repaint it applies against its pristine initial state.
func (d *Daemon) restoreSession(sn *journal.Snapshot) error {
	if d.reg.lookup(sn.ID) != nil {
		return fmt.Errorf("duplicate session id %d", sn.ID)
	}
	s := &Session{
		ID:      sn.ID,
		d:       d,
		key:     sn.Key,
		origW:   sn.OrigW,
		origH:   sn.OrigH,
		heapIdx: -1,
	}
	var raddr *netem.Addr
	if sn.HaveRemote {
		raddr = &sn.Remote
	}
	srv, err := core.NewServer(s.serverConfig(&core.ServerResume{
		Current:  statesync.NewCompleteWithFramebuffer(sn.FB),
		Baseline: statesync.NewComplete(sn.OrigW, sn.OrigH),
		Stream:   statesync.RestoreUserStream(sn.StreamSize),
		Resume: transport.Resume{
			Resume: network.Resume{
				NextSeq:     sn.NextSeq,
				ExpectedSeq: sn.ExpectedSeq,
				RemoteAddr:  raddr,
				Heard:       sn.Heard,
			},
			SendNumFloor: sn.NextStateNum,
			RecvNum:      sn.RecvNum,
		},
	}))
	if err != nil {
		return err
	}
	s.srv = srv
	// Zero headroom until the post-restore flush records fresh
	// reservations; nothing is sent under the restored ceilings.
	s.setCeilingsLocked(sn.NextSeq, sn.NextStateNum)
	s.lastActive = sn.LastActive
	// Host output the dead process had queued but not yet interpreted
	// flushes at (or immediately after) its original due time.
	for _, po := range sn.PendingOut {
		s.pendingOut = append(s.pendingOut, timedOutput{at: po.At, data: po.Data})
	}
	// Reattach the host application: NewApp may hand back one that
	// survived the restart (a pty held open across a frontend restart, the
	// torture tests' transplanted apps) or a fresh one behind the restored
	// screen. Start() is never replayed — the restored screen already
	// reflects history.
	if d.cfg.NewApp != nil {
		s.app = d.cfg.NewApp(s.ID)
	}
	d.reg.insert(s)
	d.metrics.SessionsLive.Add(1)
	d.metrics.SessionsRestored.Add(1)
	s.mu.Lock()
	s.rearmLocked(d.cfg.Clock.Now())
	s.mu.Unlock()
	return nil
}
