package sessiond

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/netem"
	"repro/internal/network"
	"repro/internal/sspcrypto"
	"repro/internal/statesync"
	"repro/internal/telemetry"
	"repro/internal/terminal"
)

// This file implements the daemon's crash-safe persistence: a periodic +
// on-shutdown journal writer with atomic rename, and the boot path that
// restores journaled sessions so a reconnecting client's next datagram
// authenticates and resumes — a restart becomes just another form of
// packet loss.
//
// # Nonce safety (the two-phase reservation)
//
// Each flush records, per session, a reservation ceiling for the outgoing
// sequence numbers (AES-OCB nonces) and state numbers: the live counter
// plus Config.SeqReserve. Sessions never send past their *currently
// applied* ceiling, and a new ceiling is applied only after the journal
// that records it has been durably renamed into place. A crash at any
// point therefore restores counters at least as high as anything the dead
// process could have put on the wire: no nonce, and no state number, is
// ever used twice across a restart. A session that exhausts its
// reservation between flushes simply suppresses sends (SSP loss) and
// requests an early flush.

// DefaultJournalInterval is the periodic flush cadence.
const DefaultJournalInterval = 10 * time.Second

// DefaultSeqReserve is the per-flush counter reservation: how many
// datagrams (and minted states) a session may produce between flushes
// before sends are suppressed pending the next flush.
const DefaultSeqReserve = 1 << 16

// journalFileName is the snapshot inside Config.StateDir; the .tmp sibling
// is the atomic-rename staging file.
const journalFileName = "sessions.journal"

// suspendedSuffix marks an invalidated journal: when sustained disk
// failure suspends journaling, the stale on-disk snapshot is renamed
// aside so a crash during the suspension cannot restore counters below
// nonces that were used while it lasted.
const suspendedSuffix = ".suspended"

// corruptSuffix preserves a journal whose header failed to decode (torn
// rename caught mid-header, foreign file): the daemon boots empty —
// always nonce-safe — and the artifact stays on disk for forensics.
const corruptSuffix = ".corrupt"

// Journal suspension modes (the journal_suspended gauge values).
const (
	journalActive      = 0 // flushes succeeding (or still retrying below the threshold)
	journalUnjournaled = 1 // stale snapshot invalidated, ceilings lifted: full service, no durability
	journalFailSafe    = 2 // invalidation ALSO failed: ceilings stay binding, sessions stall at exhaustion
)

// DefaultJournalCompactMinBytes floors the compaction trigger so tiny
// deployments do not checkpoint on every few appended records.
const DefaultJournalCompactMinBytes = 64 << 10

// journal is the daemon's persistence state. All buffers are reused across
// flushes, so the steady-state encode path allocates nothing.
type journal struct {
	path, tmpPath string
	dir           string
	interval      time.Duration
	reserve       uint64

	// fs is the filesystem seam every journal I/O goes through
	// (faultinject.OSFS in production).
	fs faultinject.FS

	// Flush-failure state, guarded by the daemon's flushMu (every flush
	// serializes on it). retryAt and suspended are additionally atomic
	// because the timing paths (NextDeadline, TickDue, journalLoop,
	// OpenSession) read them without the lock.
	retryMin, retryMax time.Duration
	suspendAfter       int
	rng                *faultinject.Rand // deterministic backoff jitter
	fails              int               // consecutive failed attempts
	backoff            time.Duration     // current base backoff (0 = healthy)
	retryAt            atomic.Int64      // unix nanos of the next allowed attempt; 0 = none
	suspended          atomic.Int32      // journalActive/journalUnjournaled/journalFailSafe

	// arena accumulates the encoded session records back to back;
	// offs[i] delimits record i. fileBuf assembles the whole journal
	// file. records is the reusable [][]byte view handed to appendJournal.
	arena   []byte
	offs    []int
	fileBuf []byte
	records [][]byte

	// pending is the two-phase ceiling list: applied to the live sessions
	// only after the rename is durable.
	pending []pendingCeiling

	// sessScratch reuses the per-flush collection of live sessions.
	sessScratch []*Session

	// ---- Log-structured state (guarded by the daemon's flushMu) ----

	// fullRewrite forces every flush onto the checkpoint path — the
	// pre-incremental behavior, kept as the measured baseline
	// (Config.JournalFullRewrite).
	fullRewrite bool
	// compactMin floors the compaction trigger.
	compactMin int64
	// epoch is the current checkpoint generation; segments are written at
	// this epoch and boot replays only matching segments.
	epoch uint64
	// segSeq numbers the next segment file within the epoch. Bumped even
	// on a failed append so a possibly-partially-written name is never
	// reused.
	segSeq uint64
	// segBytes/segCount track the live segment tail since the last
	// checkpoint; haveCheckpoint/checkpointBytes describe that checkpoint.
	// Compaction triggers when segBytes outgrows the checkpoint (see
	// compactDueLocked).
	segBytes        int64
	segCount        int64
	haveCheckpoint  bool
	checkpointBytes int64
	// lastNextID is the last durably recorded session-ID issuance floor; a
	// flush emits a recMeta only when the live counter moved past it.
	lastNextID uint64

	// ---- Dirty tracking (own lock: marked from packet paths) ----

	// dirtyMu guards dirty and tombs. A session enqueues itself at most
	// once (Session.dirty CAS) so the list is bounded by the live session
	// count; tombstones are enqueued by removeLocked.
	dirtyMu sync.Mutex
	dirty   []*Session
	tombs   []uint64

	// Reused per-flush scratch for the incremental path.
	drainScratch []*Session
	tombScratch  []uint64
	rowScratch   []int
	dirtySet     map[uint64]struct{}
}

type pendingCeiling struct {
	s       *Session
	seqCeil uint64
	numCeil uint64
}

func newJournal(cfg Config, compactMin int64) *journal {
	seed := cfg.FaultSeed
	if seed == 0 {
		seed = 0x5e55104d // fixed default: runs stay reproducible
	}
	return &journal{
		path:         filepath.Join(cfg.StateDir, journalFileName),
		tmpPath:      filepath.Join(cfg.StateDir, "."+journalFileName+".tmp"),
		dir:          cfg.StateDir,
		interval:     cfg.JournalInterval,
		reserve:      cfg.SeqReserve,
		fs:           cfg.FS,
		retryMin:     cfg.JournalRetryMin,
		retryMax:     cfg.JournalRetryMax,
		suspendAfter: cfg.JournalSuspendAfter,
		rng:          faultinject.NewRand(seed),
		fullRewrite:  cfg.JournalFullRewrite,
		compactMin:   compactMin,
		dirtySet:     make(map[uint64]struct{}),
	}
}

// markDirty enqueues this session for the next incremental flush. The CAS
// admits each session once per flush cycle, so the steady-state cost of a
// packet on an already-dirty session is one atomic load.
func (s *Session) markDirty() {
	j := s.d.journal
	if j == nil {
		return
	}
	if s.dirty.CompareAndSwap(false, true) {
		j.dirtyMu.Lock()
		j.dirty = append(j.dirty, s)
		j.dirtyMu.Unlock()
	}
}

// noteClosed enqueues a tombstone so the next flush durably records the
// close (otherwise a restart would resurrect the session).
func (j *journal) noteClosed(id uint64) {
	j.dirtyMu.Lock()
	j.tombs = append(j.tombs, id)
	j.dirtyMu.Unlock()
}

// drainDirty atomically takes the current dirty list and tombstones,
// clearing each session's dirty flag. A mark that races the drain simply
// lands in the next cycle's list. The returned slices are owned by the
// caller until the next drain (double-buffered scratch).
func (j *journal) drainDirty() (sessions []*Session, tombs []uint64) {
	j.dirtyMu.Lock()
	sessions, j.dirty = j.dirty, j.drainScratch[:0]
	tombs, j.tombs = j.tombs, j.tombScratch[:0]
	j.dirtyMu.Unlock()
	j.drainScratch = sessions
	j.tombScratch = tombs
	for _, s := range sessions {
		s.dirty.Store(false)
	}
	return sessions, tombs
}

// requeueDirty re-marks a failed batch so the retry re-encodes it.
func (j *journal) requeueDirty(sessions []*Session, tombs []uint64) {
	for _, s := range sessions {
		s.markDirty()
	}
	if len(tombs) > 0 {
		j.dirtyMu.Lock()
		j.tombs = append(j.tombs, tombs...)
		j.dirtyMu.Unlock()
	}
}

// compactDueLocked reports whether the segment tail has outgrown the
// checkpoint enough that folding it in is worth a full rewrite. The 2×
// factor bounds the log at O(live state) while keeping the amortized
// write amplification comfortably under 2 (each changed byte is written
// once in its segment and at most half a time again per compaction).
// Caller holds flushMu.
func (j *journal) compactDueLocked() bool {
	floor := j.compactMin
	if j.checkpointBytes > floor {
		floor = j.checkpointBytes
	}
	return j.segBytes >= 2*floor
}

// snapshotSessionLocked fills sn from s. Caller holds s.mu. The returned
// ceilings are the proposed (journal-recorded) reservations; they are NOT
// applied to the session here — see FlushJournal's two-phase apply.
func (s *Session) snapshotSessionLocked(sn *sessionSnapshot, reserve uint64) (seqCeil, numCeil uint64) {
	tr := s.srv.Transport()
	conn := tr.Connection()
	seqCeil = conn.NextSeq() + reserve
	if seqCeil > sspcrypto.MaxSeq+1 {
		seqCeil = sspcrypto.MaxSeq + 1
	}
	numCeil = tr.Sender().NumHighWater() + reserve
	*sn = sessionSnapshot{
		ID:           s.ID,
		Key:          s.key,
		OrigW:        s.origW,
		OrigH:        s.origH,
		NextSeq:      seqCeil,
		ExpectedSeq:  conn.ExpectedSeq(),
		NextStateNum: numCeil,
		RecvNum:      tr.RemoteStateNum(),
		StreamSize:   tr.RemoteState().Size(),
		LastActive:   s.lastActive,
		PendingOut:   s.pendingOut,
		FB:           s.srv.Terminal().Framebuffer(),
	}
	if addr, ok := conn.RemoteAddr(); ok {
		sn.HaveRemote = true
		sn.Remote = addr
	}
	_, sn.Heard = conn.LastHeard()
	return seqCeil, numCeil
}

// FlushJournal writes a snapshot of every live session to the state
// directory (atomic rename) and then raises each session's send-counter
// ceilings to the recorded reservations. It is a no-op error when the
// daemon has no Config.StateDir. Safe to call from any goroutine; flushes
// are serialized by the journal itself being confined to one caller at a
// time via the daemon's flush path (journal loop, Close, tests).
func (d *Daemon) FlushJournal() error {
	return d.flushJournal(false)
}

// flushJournal implements FlushJournal. final marks Close's shutdown
// flush: once the daemon is closing, every other flush is refused so a
// queued periodic flush can never run after Close removed the sessions
// and overwrite the final snapshot with an empty journal.
//
// The flush dispatches onto one of two paths. The incremental path — the
// steady state — appends one segment file holding only the sessions whose
// durable core changed since the last flush (dirty tracking), a complete
// no-op when nothing changed. The checkpoint path rewrites the whole
// journal atomically at the next epoch and deletes the now-stale segment
// tail; it runs on shutdown, on the first flush after boot, while resuming
// from a suspension, when Config.JournalFullRewrite pins the baseline
// behavior, and when compaction is due (the log outgrew the checkpoint).
func (d *Daemon) flushJournal(final bool) error {
	j := d.journal
	if j == nil {
		return errors.New("sessiond: no StateDir configured")
	}
	d.flushMu.Lock()
	defer d.flushMu.Unlock()
	if d.closing.Load() && !final {
		return nil
	}
	now := d.cfg.Clock.Now()
	if !final {
		// Backoff gate: while a failed flush is waiting out its backoff,
		// every flush request — periodic tick, low-headroom storm from a
		// thousand sessions — collapses into this cheap refusal. Retries
		// happen only when the backoff expires; the shutdown flush is the
		// one caller allowed through regardless.
		if at := j.retryAt.Load(); at != 0 && now.UnixNano() < at {
			return nil
		}
	}
	suspendMode := j.suspended.Load()
	compact := j.haveCheckpoint && suspendMode == journalActive &&
		!j.fullRewrite && !final && j.compactDueLocked()
	if final || j.fullRewrite || !j.haveCheckpoint || suspendMode != journalActive || compact {
		return d.flushCheckpointLocked(now, suspendMode, compact)
	}
	return d.flushIncrementalLocked(now)
}

// flushCheckpointLocked writes a full-journal checkpoint at the next epoch
// (atomic rename), then deletes the segment tail the checkpoint absorbed.
// A crash between those two steps leaves stale-epoch segments the next
// boot ignores and removes. Caller holds flushMu.
func (d *Daemon) flushCheckpointLocked(now time.Time, suspendMode int32, compact bool) error {
	j := d.journal
	// The checkpoint records everyone, so the pending dirty set is
	// absorbed — but only if the write lands; a failure requeues it so
	// the incremental path still knows who changed.
	dirtySessions, tombs := j.drainDirty()
	clear(j.dirtySet)
	for _, s := range dirtySessions {
		j.dirtySet[s.ID] = struct{}{}
	}

	// Collect live sessions in ID order (deterministic record order).
	sessions := j.sessScratch[:0]
	d.reg.each(func(s *Session) { sessions = append(sessions, s) })
	sort.Slice(sessions, func(a, b int) bool { return sessions[a].ID < sessions[b].ID })
	j.sessScratch = sessions

	j.arena = j.arena[:0]
	j.offs = j.offs[:0]
	j.pending = j.pending[:0]
	changed := int64(0)
	var sn sessionSnapshot
	for _, s := range sessions {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			continue
		}
		seqCeil, numCeil := s.snapshotSessionLocked(&sn, j.reserve)
		if suspendMode == journalUnjournaled {
			// Resuming from the unjournaled suspension: ceilings were
			// lifted, so the session could otherwise sail past the
			// snapshot while this flush is in flight — and a crash after
			// the rename would then restore counters BELOW used nonces.
			// Re-cap at snapshot time, under the same lock that took the
			// snapshot, so the recorded reservation is a true upper bound
			// on everything this session can ever put on the wire.
			tr := s.srv.Transport()
			tr.Connection().SetSeqCeiling(seqCeil)
			tr.Sender().SetNumCeiling(numCeil)
		}
		recStart := len(j.arena)
		j.arena = appendSessionSnapshot(j.arena, &sn)
		s.noteEncodedLocked(sn.FB)
		s.mu.Unlock()
		if _, dirty := j.dirtySet[s.ID]; dirty {
			changed += int64(len(j.arena) - recStart)
		}
		j.offs = append(j.offs, len(j.arena))
		j.pending = append(j.pending, pendingCeiling{s: s, seqCeil: seqCeil, numCeil: numCeil})
	}

	j.records = j.records[:0]
	start := 0
	for _, end := range j.offs {
		j.records = append(j.records, j.arena[start:end])
		start = end
	}
	hdr := journalHeader{NextID: d.nextID.Load(), Epoch: j.epoch + 1, FlushedAt: now}
	j.fileBuf = appendJournal(j.fileBuf[:0], hdr, j.records)

	if err := writeFileAtomic(j.fs, j.tmpPath, j.path, j.fileBuf); err != nil {
		d.metrics.JournalErrors.Add(1)
		if suspendMode == journalUnjournaled {
			// Still suspended and the disk still says no: lift the
			// ceilings we just re-capped, so service continues. Safe —
			// the on-disk journal is still the invalidated one.
			d.liftCeilingsLocked()
		}
		j.requeueDirty(dirtySessions, tombs)
		d.noteFlushFailureLocked(now)
		return fmt.Errorf("sessiond: journal flush: %w", err)
	}

	// The checkpoint is durable: advance the epoch and drop the segment
	// tail it absorbed (best effort — anything left behind is stale-epoch
	// and the next boot removes it).
	j.epoch = hdr.Epoch
	j.haveCheckpoint = true
	j.checkpointBytes = int64(len(j.fileBuf))
	j.lastNextID = hdr.NextID
	j.removeStaleSegmentsLocked(j.epoch)
	j.segBytes, j.segSeq, j.segCount = 0, 0, 0
	d.metrics.JournalSegments.Set(0)
	if compact {
		d.metrics.CompactionRuns.Add(1)
	}

	// Phase two: the reservations are durable; raise the live ceilings
	// (and validate each session's screen-delta base — the checkpoint row
	// generations recorded above are now on disk).
	for _, p := range j.pending {
		p.s.mu.Lock()
		if !p.s.closed {
			tr := p.s.srv.Transport()
			tr.Connection().SetSeqCeiling(p.seqCeil)
			tr.Sender().SetNumCeiling(p.numCeil)
			p.s.jrValid = true
		}
		p.s.mu.Unlock()
	}
	d.noteFlushSuccessLocked()
	d.metrics.JournalFlushes.Add(1)
	d.metrics.JournalBytes.Add(int64(len(j.fileBuf)))
	d.metrics.JournalChangedBytes.Add(changed)
	// Release the session pointers the scratch arrays hold (to their full
	// capacity — earlier, larger flushes left entries beyond the current
	// length), so evicted sessions' screens are collectable between
	// flushes instead of being pinned until the session count grows back.
	full := j.sessScratch[:cap(j.sessScratch)]
	clear(full)
	j.sessScratch = full[:0]
	fullPending := j.pending[:cap(j.pending)]
	clear(fullPending)
	j.pending = fullPending[:0]
	return nil
}

// flushIncrementalLocked appends one segment file carrying only the
// durable changes since the last flush: the session-ID floor when it
// moved, tombstones for closed sessions, and one record per dirty session
// (a screen-delta record when the dimensions are unchanged and few rows
// moved, a full snapshot record otherwise). With nothing changed it is a
// complete no-op: no I/O, no metrics, no backoff perturbation — the
// "idle sessions cost zero flush bytes" property. Caller holds flushMu.
func (d *Daemon) flushIncrementalLocked(now time.Time) error {
	j := d.journal
	sessions, tombs := j.drainDirty()
	nextID := d.nextID.Load()
	if len(sessions) == 0 && len(tombs) == 0 && nextID == j.lastNextID {
		return nil
	}
	sort.Slice(sessions, func(a, b int) bool { return sessions[a].ID < sessions[b].ID })

	j.arena = j.arena[:0]
	j.offs = j.offs[:0]
	j.pending = j.pending[:0]
	if nextID != j.lastNextID {
		j.arena = append(j.arena, recMeta)
		j.arena = binary.AppendUvarint(j.arena, nextID)
		j.offs = append(j.offs, len(j.arena))
	}
	for _, id := range tombs {
		j.arena = append(j.arena, recClose)
		j.arena = binary.AppendUvarint(j.arena, id)
		j.offs = append(j.offs, len(j.arena))
	}
	var sn sessionSnapshot
	for _, s := range sessions {
		s.mu.Lock()
		if s.closed {
			// removeLocked queued a tombstone; that record (this batch or
			// the next) is the session's durable fate.
			s.mu.Unlock()
			continue
		}
		seqCeil, numCeil := s.snapshotSessionLocked(&sn, j.reserve)
		fb := sn.FB
		useDelta := false
		if s.jrValid && s.jrW == fb.W && s.jrH == fb.H &&
			s.jrSb == 0 && fb.ScrollbackLines() == 0 && len(s.jrGens) == fb.H {
			j.rowScratch = j.rowScratch[:0]
			for i := 0; i < fb.H; i++ {
				if fb.RowGen(i) != s.jrGens[i] {
					j.rowScratch = append(j.rowScratch, i)
				}
			}
			// Past half the screen a delta stops paying for itself (the
			// row encoding matches the checkpoint's, so the crossover is
			// purely the changed-row fraction).
			useDelta = len(j.rowScratch) <= fb.H/2
		}
		if useDelta {
			j.arena = appendDeltaBody(j.arena, &sn, j.rowScratch)
		} else {
			j.arena = append(j.arena, recFull)
			j.arena = appendSessionSnapshot(j.arena, &sn)
		}
		s.noteEncodedLocked(fb)
		s.mu.Unlock()
		j.offs = append(j.offs, len(j.arena))
		j.pending = append(j.pending, pendingCeiling{s: s, seqCeil: seqCeil, numCeil: numCeil})
	}
	if len(j.offs) == 0 {
		// Every drained session raced a close and its tombstone is queued
		// for the next cycle; nothing durable changed yet.
		return nil
	}

	changed := int64(len(j.arena))
	j.fileBuf = appendSegmentHeader(j.fileBuf[:0], j.epoch, j.segSeq)
	start := 0
	for _, end := range j.offs {
		j.fileBuf = appendFramedRecord(j.fileBuf, j.arena[start:end])
		start = end
	}

	name := filepath.Join(j.dir, segmentFileName(j.epoch, j.segSeq))
	// The file name is single-use (segSeq advances on failure too), so a
	// torn append can only ever damage this file's own tail — previously
	// durable records live in other files and are untouchable.
	err := writeSegmentFile(j.fs, name, j.fileBuf)
	if err != nil {
		// The attempt may have left a partial file: advance the sequence
		// so the retry never appends after a torn tail, and account the
		// possible on-disk bytes toward compaction. Boot replays the
		// CRC-complete prefix; the requeued batch re-records every
		// affected session (full records — their delta base is invalid).
		j.segSeq++
		j.segBytes += int64(len(j.fileBuf))
		j.segCount++
		d.metrics.JournalSegments.Set(j.segCount)
		d.metrics.JournalErrors.Add(1)
		j.requeueDirty(sessions, tombs)
		d.noteFlushFailureLocked(now)
		return fmt.Errorf("sessiond: journal append: %w", err)
	}
	j.segSeq++
	j.segBytes += int64(len(j.fileBuf))
	j.segCount++
	j.lastNextID = nextID
	d.metrics.JournalSegments.Set(j.segCount)

	// Phase two: the reservations are durable; raise the live ceilings and
	// validate each session's screen-delta base.
	for _, p := range j.pending {
		p.s.mu.Lock()
		if !p.s.closed {
			tr := p.s.srv.Transport()
			tr.Connection().SetSeqCeiling(p.seqCeil)
			tr.Sender().SetNumCeiling(p.numCeil)
			p.s.jrValid = true
		}
		p.s.mu.Unlock()
	}
	d.noteFlushSuccessLocked()
	d.metrics.JournalFlushes.Add(1)
	d.metrics.JournalBytes.Add(int64(len(j.fileBuf)))
	d.metrics.JournalChangedBytes.Add(changed)
	fullPending := j.pending[:cap(j.pending)]
	clear(fullPending)
	j.pending = fullPending[:0]
	full := j.drainScratch[:cap(j.drainScratch)]
	clear(full)
	j.drainScratch = full[:0]
	return nil
}

// noteEncodedLocked records the screen generation fingerprint this flush
// encoded, so the next incremental flush can diff against it. jrValid
// stays false until the write proves durable (phase two); a failed or
// torn write therefore forces the next record to be a full snapshot.
// Caller holds s.mu.
func (s *Session) noteEncodedLocked(fb *terminal.Framebuffer) {
	s.jrGens = s.jrGens[:0]
	for i := 0; i < fb.H; i++ {
		s.jrGens = append(s.jrGens, fb.RowGen(i))
	}
	s.jrW, s.jrH, s.jrSb = fb.W, fb.H, fb.ScrollbackLines()
	s.jrValid = false
}

// removeStaleSegmentsLocked deletes every segment file whose epoch is not
// keepEpoch (best effort). Caller holds flushMu.
func (j *journal) removeStaleSegmentsLocked(keepEpoch uint64) {
	names, err := j.fs.ReadDir(j.dir)
	if err != nil {
		return
	}
	for _, name := range names {
		if ep, _, ok := parseSegmentName(name); ok && ep != keepEpoch {
			j.fs.Remove(filepath.Join(j.dir, name))
		}
	}
}

// writeSegmentFile creates one segment file and makes it durable. Every
// operation goes through the filesystem seam, so fault schedules can fail
// or tear any step — the torn-append crash points TestChaosTorture and the
// nonce property tests exercise.
func writeSegmentFile(fs faultinject.FS, name string, data []byte) error {
	f, err := fs.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o600)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeFileAtomic writes data to tmp, fsyncs it, renames it over path, and
// fsyncs the directory so the rename itself is durable. Every operation
// goes through the filesystem seam, so fault schedules can fail any step.
func writeFileAtomic(fs faultinject.FS, tmp, path string, data []byte) error {
	f, err := fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fs.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fs.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fs.Remove(tmp)
		return err
	}
	if err := fs.Rename(tmp, path); err != nil {
		fs.Remove(tmp)
		return err
	}
	fs.SyncDir(filepath.Dir(path)) // best effort; not all filesystems support it
	return nil
}

// noteFlushFailureLocked advances the retry/backoff state after a failed
// flush attempt and, past the suspension threshold, degrades to the
// explicit journaling-suspended state. Caller holds flushMu.
func (d *Daemon) noteFlushFailureLocked(now time.Time) {
	j := d.journal
	j.fails++
	d.metrics.JournalFlushFailures.Add(1)
	d.recordEv(telemetry.EvJournalFlushFail, 0, uint64(j.fails), now)
	if j.backoff <= 0 {
		j.backoff = j.retryMin
	} else if j.backoff < j.retryMax {
		j.backoff *= 2
		if j.backoff > j.retryMax {
			j.backoff = j.retryMax
		}
	}
	// Deterministic jitter in [0, backoff/4]: retries from a fleet of
	// daemons (or one daemon's many incarnations in a test matrix) spread
	// out instead of thundering onto a recovering disk in lockstep.
	delay := j.backoff + time.Duration(j.rng.Uint64()%uint64(j.backoff/4+1))
	j.retryAt.Store(now.Add(delay).UnixNano())
	d.metrics.JournalRetryBackoffMs.Set(int64(delay / time.Millisecond))
	if j.suspendAfter > 0 && j.fails >= j.suspendAfter && j.suspended.Load() == journalActive {
		d.suspendJournalingLocked(now)
	}
	d.requestFlush() // nudge the async loop to recompute its sleep
}

// noteFlushSuccessLocked resets the retry/backoff state and, when the
// journal was suspended, resumes it — the successful flush that just
// landed re-recorded every session with snapshot-time ceilings, so
// durability and nonce safety are both restored. Caller holds flushMu.
func (d *Daemon) noteFlushSuccessLocked() {
	j := d.journal
	j.fails = 0
	j.backoff = 0
	j.retryAt.Store(0)
	d.metrics.JournalRetryBackoffMs.Set(0)
	if j.suspended.Swap(journalActive) != journalActive {
		d.metrics.JournalSuspended.Set(journalActive)
		d.recordEv(telemetry.EvJournalResume, 0, 0, d.cfg.Clock.Now())
		j.fs.Remove(j.path + suspendedSuffix) // best-effort cleanup
	}
}

// suspendJournalingLocked degrades the daemon after sustained flush
// failure. The stale on-disk snapshot is invalidated first (renamed
// aside): if that succeeds — or there was nothing on disk — a crash
// during the suspension restores nothing, so no counter can ever be
// restored below a nonce used while suspended, and the live ceilings are
// safely lifted: full service, no durability. If even the invalidation
// fails, the stale snapshot could still be restored by a crash, so the
// fail-safe keeps the recorded ceilings binding: sessions stall when
// their reservation runs out rather than risk nonce reuse. Caller holds
// flushMu.
func (d *Daemon) suspendJournalingLocked(now time.Time) {
	j := d.journal
	mode := int32(journalFailSafe)
	if err := j.fs.Rename(j.path, j.path+suspendedSuffix); err == nil || errors.Is(err, os.ErrNotExist) {
		mode = journalUnjournaled
	}
	j.suspended.Store(mode)
	d.metrics.JournalSuspended.Set(int64(mode))
	d.degrade("journal-suspend", telemetry.EvJournalSuspend, 0, uint64(mode), now)
	if mode == journalUnjournaled {
		d.liftCeilingsLocked()
	}
}

// liftCeilingsLocked removes every live session's send-counter ceilings
// (valid only while the on-disk journal is invalidated). Caller holds
// flushMu; takes each session lock briefly, same order as a flush.
func (d *Daemon) liftCeilingsLocked() {
	d.reg.each(func(s *Session) {
		s.mu.Lock()
		if !s.closed {
			tr := s.srv.Transport()
			tr.Connection().SetSeqCeiling(sspcrypto.MaxSeq + 1)
			tr.Sender().SetNumCeiling(^uint64(0))
		}
		s.mu.Unlock()
	})
}

// JournalSuspended reports the suspension gauge (journalActive /
// journalUnjournaled / journalFailSafe) for tests and status surfaces.
func (d *Daemon) JournalSuspended() int {
	if d.journal == nil {
		return journalActive
	}
	return int(d.journal.suspended.Load())
}

// requestFlush asks the journal loop for an early flush (low reservation
// headroom, a freshly opened session). Non-blocking; coalesces.
func (d *Daemon) requestFlush() {
	select {
	case d.flushReq <- struct{}{}:
	default:
	}
}

// maybeRequestFlushLocked triggers an early flush when a session is
// consuming its counter reservation faster than the periodic cadence
// refreshes it. Caller holds s.mu.
func (s *Session) maybeRequestFlushLocked() {
	j := s.d.journal
	if j == nil {
		return
	}
	low := j.reserve / 4
	tr := s.srv.Transport()
	if tr.Connection().SeqRemaining() <= low || tr.Sender().NumRemaining() <= low {
		// A session can burn through its reservation by sending alone
		// (retransmits, server-push output) without otherwise dirtying
		// durable state; mark it so the incremental flush actually encodes
		// the raised ceilings — otherwise the early flush would be the
		// no-op that starves it.
		s.markDirty()
		s.d.requestFlush()
	}
}

// journalLoop is the async flush driver (served mode): periodic cadence,
// on-demand requests, and failed-flush retries. Simulation embedders
// call FlushJournal directly in virtual time instead (with retries
// riding the deadline heap — see TickDue). Flush attempts self-gate on
// the backoff state, so a request storm during an outage costs nothing;
// the loop only has to make sure it is AWAKE when the backoff expires,
// which is what the retryAt-aware sleep below does.
func (d *Daemon) journalLoop() {
	j := d.journal
	clk := d.cfg.Clock
	timer := clk.NewTimer(j.interval)
	defer timer.Stop()
	for {
		// While a failed flush is waiting out its backoff, stop selecting
		// on flushReq: attempts self-gate on the backoff anyway, so waking
		// for the low-headroom request storm would spin this loop at the
		// packet rate for the remainder of a disk outage. The timer below
		// is armed for the backoff deadline, which is the only instant
		// worth waking for.
		req := d.flushReq
		if j.retryAt.Load() != 0 {
			req = nil
		}
		select {
		case <-d.stop:
			return
		case <-timer.C():
		case <-req:
		}
		d.FlushJournal() // outcome recorded in metrics/backoff state
		sleep := j.interval
		if at := j.retryAt.Load(); at != 0 {
			// Recompute the backoff deadline from the Clock. A deadline
			// already in the past means the backoff expired while we were
			// busy: retry on the immediately-firing timer rather than
			// clamping to a busy-spin resleep.
			until := time.Unix(0, at).Sub(clk.Now())
			if until < sleep {
				sleep = until
			}
			if sleep < 0 {
				sleep = 0
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C():
			default:
			}
		}
		timer.Reset(sleep)
	}
}

// restoreFromJournal loads the state directory's checkpoint plus its
// matching-epoch segment tail (if present) and revives every non-stale
// session. Called from New before any traffic.
func (d *Daemon) restoreFromJournal() error {
	j := d.journal
	type segFile struct {
		name       string
		epoch, seq uint64
	}
	var segs []segFile
	if names, err := j.fs.ReadDir(j.dir); err == nil {
		for _, name := range names {
			if ep, sq, ok := parseSegmentName(name); ok {
				segs = append(segs, segFile{name: name, epoch: ep, seq: sq})
			}
		}
	}
	sort.Slice(segs, func(a, b int) bool {
		if segs[a].epoch != segs[b].epoch {
			return segs[a].epoch < segs[b].epoch
		}
		return segs[a].seq < segs[b].seq
	})
	// dropSegs discards orphaned segments (best effort), remembering the
	// highest orphan epoch so the first checkpoint this incarnation writes
	// supersedes even a segment the delete failed to remove.
	dropSegs := func() {
		for _, sg := range segs {
			if sg.epoch > j.epoch {
				j.epoch = sg.epoch
			}
			j.fs.Remove(filepath.Join(j.dir, sg.name))
		}
	}
	data, err := j.fs.ReadFile(j.path)
	if os.IsNotExist(err) {
		// No checkpoint: fresh boot, or a suspension invalidated it.
		// Orphan segments extend nothing restorable — deltas without their
		// base cannot be applied, and restoring nothing is always
		// nonce-safe (this is what keeps the suspended-crash contract:
		// nothing journaled while the snapshot was invalidated can revive).
		dropSegs()
		return nil
	}
	if err != nil {
		return fmt.Errorf("sessiond: reading journal: %w", err)
	}
	hdr, snaps, bad, err := decodeJournal(data)
	if err != nil {
		// The checkpoint exists but its header never survived to disk (a
		// rename torn by power loss, or a foreign file). Refusing to boot
		// would turn one bad sector into a dead daemon; restoring nothing
		// is always nonce-safe (no counter can be resealed by a session
		// that was never revived). Preserve the artifact for forensics and
		// start empty. The segment tail extends a checkpoint that cannot
		// be read, so it goes too.
		d.metrics.JournalBadRecords.Add(1)
		j.fs.Rename(j.path, j.path+corruptSuffix)
		dropSegs()
		return nil
	}
	d.metrics.JournalBadRecords.Add(int64(bad))
	j.epoch = hdr.Epoch
	replay := newJournalReplay(hdr, snaps)
	for _, sg := range segs {
		if sg.epoch != hdr.Epoch {
			// A crash between writing a compacted checkpoint and deleting
			// the old tail leaves stale-epoch segments; their content is
			// folded into the checkpoint already.
			j.fs.Remove(filepath.Join(j.dir, sg.name))
			continue
		}
		d.replaySegment(replay, filepath.Join(j.dir, sg.name), hdr.Epoch)
	}
	now := d.cfg.Clock.Now()
	maxID := replay.nextID
	for _, sn := range replay.sessionsSorted() {
		// Boot-time eviction of stale snapshots: a session that was idle
		// past the eviction horizon when the daemon died would have been
		// evicted had it kept running; don't resurrect it. Pre-issued
		// slots nobody ever redeemed wait indefinitely, as live ones do.
		if idle := d.cfg.IdleTimeout; idle > 0 && sn.Heard && now.Sub(sn.LastActive) >= idle {
			d.metrics.SnapshotsStale.Add(1)
			continue
		}
		if _, err := d.restoreSession(sn); err != nil {
			return fmt.Errorf("sessiond: restoring session %d: %w", sn.ID, err)
		}
		if sn.ID > maxID {
			maxID = sn.ID
		}
	}
	d.nextID.Store(maxID)
	return nil
}

// replaySegment folds one segment file into the replay state.
//
// Damage policy: truncation is benign, corruption is not. A torn tail
// (framing that runs out mid-record — the shape a crashed or short-write
// append leaves, since each segment gets exactly one Write call) keeps
// every CRC-complete record before it; that is consistent because a failed
// append requeues its whole batch, so every session the tear touched
// reappears as a full record in a later segment. The same goes for a file
// whose header never finished (unreadable, short, or inconsistent): the
// write that created it reported failure, so the file is skipped whole.
// Real corruption — a record that fails its CRC or decodes malformed with
// INTACT framing, which one truncated Write can never produce — poisons
// every session restored so far: later deltas might build on updates the
// gap swallowed, so they are ignored until a full record re-establishes
// their session. Dropping a session is always nonce-safe.
func (d *Daemon) replaySegment(replay *journalReplay, path string, epoch uint64) {
	j := d.journal
	data, err := j.fs.ReadFile(path)
	if err != nil {
		d.metrics.JournalBadRecords.Add(1)
		return
	}
	ep, _, body, err := decodeSegmentHeader(data)
	if err != nil || ep != epoch {
		d.metrics.JournalBadRecords.Add(1)
		return
	}
	recs, bad, torn := decodeSegmentRecords(body)
	poison := bad > 0 && !torn
	for _, rec := range recs {
		if !replay.applyRecord(rec) {
			// The CRC passed but the body is malformed: corruption, not a
			// tear. Nothing after it in this file can be trusted either.
			bad++
			poison = true
			break
		}
	}
	d.metrics.JournalBadRecords.Add(int64(bad))
	if poison {
		replay.poisonAll()
	}
}

// restoreSession revives one journaled session: restored screen and input
// stream, reserved counters, and — per SSP semantics — a fresh diff
// baseline of state 0, so the first frame to the surviving client is a
// full repaint it applies against its pristine initial state.
func (d *Daemon) restoreSession(sn *sessionSnapshot) (*Session, error) {
	if d.reg.lookup(sn.ID) != nil {
		return nil, fmt.Errorf("duplicate session id %d", sn.ID)
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
		addr := sn.Remote
		raddr = &addr
	}
	srv, err := core.NewServer(core.ServerConfig{
		Key:         sn.Key,
		Clock:       d.cfg.Clock,
		Width:       sn.OrigW,
		Height:      sn.OrigH,
		Timing:      d.cfg.Timing,
		Envelope:    &network.Envelope{ID: sn.ID},
		Probe:       d.pipe,
		RecycleWire: d.cfg.RecycleWire,
		Emit:        func(wire []byte) { s.emit(wire) },
		HostInput:   func(data []byte) { s.hostInput(data) },
		Resume: &core.ServerResume{
			Current:      statesync.NewCompleteWithFramebuffer(sn.FB),
			Baseline:     statesync.NewComplete(sn.OrigW, sn.OrigH),
			Stream:       statesync.RestoreUserStream(sn.StreamSize),
			SendNumFloor: sn.NextStateNum,
			RecvNum:      sn.RecvNum,
			NextSeq:      sn.NextSeq,
			ExpectedSeq:  sn.ExpectedSeq,
			RemoteAddr:   raddr,
			Heard:        sn.Heard,
		},
	})
	if err != nil {
		return nil, err
	}
	s.srv = srv
	// Zero headroom until the post-restore flush records fresh
	// reservations; nothing is sent under the restored ceilings.
	srv.Transport().Connection().SetSeqCeiling(sn.NextSeq)
	srv.Transport().Sender().SetNumCeiling(sn.NextStateNum)
	s.lastActive = sn.LastActive
	// Host output the dead process had queued but not yet interpreted
	// flushes at (or immediately after) its original due time.
	s.pendingOut = sn.PendingOut
	// Reattach the host application. RestoreApp models an application that
	// survived the restart (a pty held open across a frontend restart, the
	// torture tests' transplanted apps); falling back to NewApp gives the
	// session a fresh application behind its restored screen. Start() is
	// never replayed — the restored screen already reflects history.
	if d.cfg.RestoreApp != nil {
		s.app = d.cfg.RestoreApp(s.ID)
	} else if d.cfg.NewApp != nil {
		s.app = d.cfg.NewApp(s.ID)
	}
	d.reg.insert(s)
	d.metrics.SessionsLive.Add(1)
	d.metrics.SessionsRestored.Add(1)
	s.mu.Lock()
	s.rearmLocked(d.cfg.Clock.Now())
	s.mu.Unlock()
	return s, nil
}
