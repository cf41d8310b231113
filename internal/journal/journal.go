// Package journal is the crash-safe persistence of a daemon's sessions: a
// periodic + on-shutdown writer (checkpoint by atomic rename, incremental
// segments appended between checkpoints) and the boot path that replays
// them, so that a reconnecting client's next datagram authenticates and
// resumes — a restart becomes just another form of packet loss.
//
// The package knows nothing of sessions beyond their Snapshot. What it
// needs of the daemon that embeds it is the Host interface; what it keeps
// per session is a Mark the session embeds.
//
// # Nonce safety (the two-phase reservation)
//
// Each flush records, per session, a reservation ceiling for the outgoing
// sequence numbers (AES-OCB nonces) and state numbers: the live counter
// plus the host's reserve. Sessions never send past their *currently
// applied* ceiling, and a new ceiling is applied (Host.Grant) only after
// the file that records it is durable. A crash at any point therefore
// restores counters at least as high as anything the dead process could
// have put on the wire: no nonce, and no state number, is ever used twice
// across a restart. A session that exhausts its reservation between
// flushes simply suppresses sends (SSP loss) and asks for an early flush.
package journal

import (
	"cmp"
	"encoding/binary"
	"errors"
	"expvar"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/terminal"
)

// DefaultInterval is the periodic flush cadence.
const DefaultInterval = 10 * time.Second

// fileName is the checkpoint inside Config.Dir; the .tmp sibling is the
// atomic-rename staging file.
const fileName = "sessions.journal"

// suspendedSuffix marks an invalidated journal: when sustained disk
// failure suspends journaling, the stale on-disk snapshot is renamed
// aside so a crash during the suspension cannot restore counters below
// nonces that were used while it lasted.
const suspendedSuffix = ".suspended"

// corruptSuffix preserves a checkpoint whose header failed to decode (torn
// rename caught mid-header, foreign file): the daemon boots empty —
// always nonce-safe — and the artifact stays on disk for forensics.
const corruptSuffix = ".corrupt"

// Suspension modes (Suspended, and the journal_suspended gauge).
const (
	Active      = 0 // flushes succeeding (or still retrying below the threshold)
	Unjournaled = 1 // stale snapshot invalidated, ceilings lifted: full service, no durability
	FailSafe    = 2 // invalidation ALSO failed: ceilings stay binding, sessions stall at exhaustion
)

// Host is what the journal asks of the daemon whose sessions it persists.
// The journal calls it only from inside Flush, one call at a time.
type Host interface {
	// LiveIDs appends the ID of every live session to buf, ascending.
	LiveIDs(buf []uint64) []uint64
	// WithSnapshot fills sn from session id — its NextSeq and NextStateNum
	// being the ceilings this flush proposes, the live counters plus the
	// host's reserve — and runs enc on it and on the session's Mark, all
	// under that session's lock. With recap set the proposed ceilings are
	// also applied at once, under the same lock. A session that is not
	// live is skipped: enc does not run.
	WithSnapshot(id uint64, recap bool, sn *Snapshot, enc func(*Snapshot, *Mark))
	// Grant raises session id's ceilings to ones a durable record now
	// holds and calls its Mark's Granted, under the session's lock. A
	// session that is no longer live is skipped.
	Grant(id, seqCeil, numCeil uint64)
	// LiftCeilings removes every live session's ceilings.
	LiftCeilings()
	// NextID reads the session-ID issuance floor: no session has an ID
	// above it.
	NextID() uint64
}

// Mark is the journal's per-session state. The host embeds one in each
// session and hands it back through MarkDirty, WithSnapshot and Grant; a
// Mark already dirty costs MarkDirty one atomic load.
type Mark struct {
	// dirty is set from MarkDirty until the flush that encodes the session.
	dirty atomic.Bool

	// The screen-delta base, guarded by the session's lock: gens holds the
	// per-row generation numbers as of the last encoded record, w/h its
	// dimensions. valid is true only while the record that captured them is
	// durable (Granted sets it, every encode clears it), so a failed or torn
	// write forces the next record to be full.
	gens  []uint64
	w, h  int
	valid bool
}

// Granted records that the session's last encoded record is durable.
// Called by Host.Grant with the session's lock held.
func (m *Mark) Granted() { m.valid = true }

// deltaRows appends to rows the screen rows that moved since the last
// encoded record and reports whether a delta against that record may stand
// in for a full one: the record is durable, the dimensions are unchanged,
// and at most half the rows moved — past that a delta stops paying for
// itself (the row encoding is the checkpoint's, so the crossover is purely
// the changed-row fraction).
func (m *Mark) deltaRows(fb *terminal.Framebuffer, rows []int) ([]int, bool) {
	if !m.valid || m.w != fb.W || m.h != fb.H || len(m.gens) != fb.H {
		return rows, false
	}
	for i := 0; i < fb.H; i++ {
		if fb.RowGen(i) != m.gens[i] {
			rows = append(rows, i)
		}
	}
	return rows, len(rows) <= fb.H/2
}

// noteEncoded records the screen generations a flush encoded, for the next
// one to diff against.
func (m *Mark) noteEncoded(fb *terminal.Framebuffer) {
	m.gens = m.gens[:0]
	for i := 0; i < fb.H; i++ {
		m.gens = append(m.gens, fb.RowGen(i))
	}
	m.w, m.h = fb.W, fb.H
	m.valid = false
}

// Counters is the journal's metrics. The host publishes them (sessiond
// embeds the struct in its own Metrics, which keeps their expvar names).
type Counters struct {
	JournalFlushes    expvar.Int // successful journal writes (checkpoints and segments)
	JournalBytes      expvar.Int // cumulative journal bytes written (= journal_flush_bytes)
	JournalErrors     expvar.Int // failed journal writes (reservations not extended)
	JournalBadRecords expvar.Int // journal records skipped for CRC/decode failure

	// JournalChangedBytes is the encoded size of the records covering
	// sessions whose durable core actually changed — the denominator of
	// the write-amplification ratio; a checkpoint's numerator additionally
	// carries every unchanged session, which is the waste the segment log
	// eliminates.
	JournalChangedBytes expvar.Int
	JournalSegments     expvar.Int // gauge: live segment files since the last checkpoint
	CompactionRuns      expvar.Int // checkpoints triggered by segment-tail growth

	// The failure posture, visible from /debug/vars: an operator watching
	// journal_suspended knows exactly what a crash right now would lose.
	JournalFlushFailures  expvar.Int // flush attempts that failed (before any retry succeeded)
	JournalSuspended      expvar.Int // gauge: 0 active, 1 suspended (unjournaled), 2 suspended (fail-safe)
	JournalRetryBackoffMs expvar.Int // gauge: current flush-retry backoff in ms (0 = healthy)
}

// Config parameterizes a Journal. Dir, Clock, Counters and Event are
// required.
type Config struct {
	// Dir is the state directory (created if missing).
	Dir string
	// FS is the filesystem every journal I/O goes through (nil = the real
	// one). Fault tests substitute a faultinject.FaultFS.
	FS faultinject.FS
	// Clock stamps checkpoints and times retries and the flush loop.
	Clock simclock.Clock
	// Interval is the flush loop's periodic cadence (default
	// DefaultInterval).
	Interval time.Duration
	// RetryMin/RetryMax bound the exponential backoff between failed flush
	// attempts (defaults 100ms / 10s).
	RetryMin, RetryMax time.Duration
	// SuspendAfter is how many consecutive failures suspend journaling
	// (default 8; negative never suspends — retries go on at RetryMax).
	SuspendAfter int
	// Seed seeds the deterministic backoff jitter (0 = a fixed default).
	Seed int64
	// CompactMin floors the compaction trigger in bytes, so tiny
	// deployments do not checkpoint on every few appended records.
	CompactMin int64
	// Counters receives the journal's metrics.
	Counters *Counters
	// Event reports a flush failure (EvJournalFlushFail, arg = consecutive
	// failures), a suspension (EvJournalSuspend, arg = mode) or a resume
	// (EvJournalResume) for the host's flight recorder. Called with the
	// flush lock held: it must not call back into the journal.
	Event func(code telemetry.Code, arg uint64, at time.Time)
}

// Journal is one state directory's writer. All buffers are reused across
// flushes, so the steady-state encode path allocates nothing.
type Journal struct {
	cfg           Config
	host          Host
	path, tmpPath string
	rng           *faultinject.Rand // deterministic backoff jitter

	// mu serializes flushes and guards every field below that is neither
	// atomic nor under dirtyMu. retryAt, suspended and async are atomic
	// because the timing paths (RetryAt, the loop, Suspended) read them
	// without it.
	mu        sync.Mutex
	final     bool          // a shutdown flush was attempted: refuse all others
	fails     int           // consecutive failed attempts
	backoff   time.Duration // current base backoff (0 = healthy)
	retryAt   atomic.Int64  // unix nanos of the next allowed attempt; 0 = none
	suspended atomic.Int32  // Active/Unjournaled/FailSafe
	async     atomic.Bool   // the loop owns retry timing (Start was called)
	flushReq  chan struct{} // coalesced early-flush requests toward the loop

	// arena accumulates the encoded records back to back; offs[i] ends
	// record i. fileBuf assembles the file. pending is the two-phase
	// ceiling list, granted only once the file is durable. The rest is
	// per-flush scratch; encode is encodeLocked, bound once so that a visit
	// allocates no closure.
	arena, fileBuf []byte
	offs           []int
	pending        []ceiling
	live           []uint64
	rows           []int
	sn             Snapshot
	encode         func(*Snapshot, *Mark)

	// What encodeLocked reads of the flush in progress: whether it writes
	// a checkpoint, the drained dirty IDs (ascending) with a cursor into
	// them, and the bytes encoded for sessions that had changed.
	checkpoint bool
	drained    []uint64
	cursor     int
	changed    int64

	// epoch is the current checkpoint generation; segments are written at
	// it and boot replays only matching segments. segSeq numbers the next
	// segment within the epoch, bumped even on a failed append so a
	// possibly-partially-written name is never reused. segBytes/segCount
	// track the tail since the last checkpoint, haveCheckpoint and
	// checkpointBytes describe that checkpoint. lastNextID is the last
	// durably recorded session-ID floor.
	epoch, segSeq      uint64
	segBytes, segCount int64
	haveCheckpoint     bool
	checkpointBytes    int64
	lastNextID         uint64

	// dirtyMu guards the dirty list and the tombstones (own lock: marked
	// from packet paths). A session enqueues itself at most once per encode
	// (Mark.dirty) and a failed flush puts its batch back, so the list is
	// bounded by twice the live session count. The scratch slices
	// double-buffer the drain.
	dirtyMu                   sync.Mutex
	dirty, tombs              []uint64
	dirtyScratch, tombScratch []uint64
}

type ceiling struct{ id, seq, num uint64 }

// Open creates the state directory if need be, loads its checkpoint and
// matching-epoch segment tail, and returns the journal with the surviving
// snapshots in ascending ID order and the session-ID floor they were
// recorded under. The caller revives what it wants of them and then
// flushes, which writes the first checkpoint of this incarnation.
//
// A read error — the directory listing, the checkpoint, or any segment of
// its epoch — fails Open: restoring a checkpoint without its whole tail
// would hand sessions counters below nonces the dead process used, and
// unlike a torn tail (the shape a crashed *write* leaves, which replay
// tolerates) a failed read says nothing about what is on disk. The
// operator retries the boot.
func Open(cfg Config, host Host) (*Journal, []*Snapshot, uint64, error) {
	if cfg.FS == nil {
		cfg.FS = faultinject.OSFS{}
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.RetryMin <= 0 {
		cfg.RetryMin = 100 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 10 * time.Second
	}
	if cfg.RetryMax < cfg.RetryMin {
		cfg.RetryMax = cfg.RetryMin
	}
	if cfg.SuspendAfter == 0 {
		cfg.SuspendAfter = 8
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x5e55104d // fixed default: runs stay reproducible
	}
	if err := cfg.FS.MkdirAll(cfg.Dir, 0o700); err != nil {
		return nil, nil, 0, fmt.Errorf("journal: state dir: %w", err)
	}
	j := &Journal{
		cfg:      cfg,
		host:     host,
		path:     filepath.Join(cfg.Dir, fileName),
		tmpPath:  filepath.Join(cfg.Dir, "."+fileName+".tmp"),
		rng:      faultinject.NewRand(cfg.Seed),
		flushReq: make(chan struct{}, 1),
	}
	j.encode = j.encodeLocked
	snaps, nextID, err := j.load()
	if err != nil {
		return nil, nil, 0, err
	}
	return j, snaps, nextID, nil
}

// MarkDirty enqueues session id, whose Mark is m, for the next incremental
// flush: its durable core changed.
func (j *Journal) MarkDirty(id uint64, m *Mark) {
	if m.dirty.CompareAndSwap(false, true) {
		j.dirtyMu.Lock()
		j.dirty = append(j.dirty, id)
		j.dirtyMu.Unlock()
	}
}

// NoteClosed enqueues a tombstone so the next flush durably records the
// close (otherwise a restart would resurrect the session).
func (j *Journal) NoteClosed(id uint64) {
	j.dirtyMu.Lock()
	j.tombs = append(j.tombs, id)
	j.dirtyMu.Unlock()
}

// drainDirty takes the current dirty list, sorted and without the
// duplicates a requeue can leave, and the tombstones. A mark that races the
// drain simply lands in the next cycle's list. The returned slices are
// owned by the caller until the next drain.
func (j *Journal) drainDirty() (ids, tombs []uint64) {
	j.dirtyMu.Lock()
	ids, j.dirty = j.dirty, j.dirtyScratch[:0]
	tombs, j.tombs = j.tombs, j.tombScratch[:0]
	j.dirtyMu.Unlock()
	slices.Sort(ids)
	ids = slices.Compact(ids)
	j.dirtyScratch, j.tombScratch = ids, tombs
	return ids, tombs
}

// requeue puts a failed batch back so the retry re-encodes it.
func (j *Journal) requeue(ids, tombs []uint64) {
	j.dirtyMu.Lock()
	j.dirty = append(j.dirty, ids...)
	j.tombs = append(j.tombs, tombs...)
	j.dirtyMu.Unlock()
}

// compactDue reports whether the segment tail has outgrown the checkpoint
// enough that folding it in is worth a full rewrite. The 2× factor bounds
// the log at O(live state) while keeping the amortized write amplification
// comfortably under 2 (each changed byte is written once in its segment
// and at most half a time again per compaction).
func (j *Journal) compactDue() bool {
	return j.segBytes >= 2*max(j.checkpointBytes, j.cfg.CompactMin)
}

// Flush makes every change since the last flush durable and then raises
// the ceilings of the sessions it recorded. Safe to call from any
// goroutine; flushes are serialized. final marks the shutdown flush: once
// one has been attempted every other flush is refused, so a queued periodic
// flush can never run after the host removed its sessions and overwrite
// the final snapshot with an empty journal.
//
// A flush writes one of two files. The incremental one — the steady state
// — is a new segment holding only the sessions whose durable core changed
// since the last flush, and a complete no-op when nothing changed. The
// checkpoint rewrites the whole journal atomically at the next epoch and
// deletes the segment tail it absorbed; it is written on shutdown, on the
// first flush after boot, while resuming from a suspension, and when
// compaction is due.
func (j *Journal) Flush(final bool) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if final {
		j.final = true
	} else if j.final {
		return nil
	}
	now := j.cfg.Clock.Now()
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
	mode := j.suspended.Load()
	compact := j.haveCheckpoint && mode == Active && !final && j.compactDue()
	checkpoint := final || !j.haveCheckpoint || mode != Active || compact
	return j.flushLocked(now, checkpoint, compact, mode == Unjournaled)
}

// flushLocked is the flush: collect, encode each session under its lock,
// write, and — only once the write is durable — grant the recorded
// ceilings. A checkpoint visits every live session and writes the journal
// file at the next epoch; an incremental flush visits the dirty ones and
// writes the next segment (the ID floor when it moved, tombstones, then one
// delta or full record per session). With nothing changed the latter does
// nothing at all: no I/O, no metrics, no backoff perturbation — idle
// sessions cost zero flush bytes. resuming marks the checkpoint that ends
// the unjournaled suspension. Caller holds mu.
func (j *Journal) flushLocked(now time.Time, checkpoint, compact, resuming bool) error {
	c := j.cfg.Counters
	// A checkpoint records everyone, so it absorbs the dirty set — but
	// only if the write lands; a failure puts it back so the incremental
	// path still knows who changed.
	dirty, tombs := j.drainDirty()
	visit := dirty
	if checkpoint {
		j.live = j.host.LiveIDs(j.live[:0])
		visit = j.live
	}
	nextID := j.host.NextID()
	if !checkpoint && len(dirty) == 0 && len(tombs) == 0 && nextID == j.lastNextID {
		return nil
	}

	j.arena, j.offs, j.pending = j.arena[:0], j.offs[:0], j.pending[:0]
	if !checkpoint {
		// A checkpoint carries the floor in its header and records a close
		// by leaving the session out.
		if nextID != j.lastNextID {
			j.arena = binary.AppendUvarint(append(j.arena, recMeta), nextID)
			j.offs = append(j.offs, len(j.arena))
		}
		for _, id := range tombs {
			j.arena = binary.AppendUvarint(append(j.arena, recClose), id)
			j.offs = append(j.offs, len(j.arena))
		}
	}
	j.checkpoint, j.drained, j.cursor, j.changed = checkpoint, dirty, 0, 0
	for _, id := range visit {
		// Resuming from the unjournaled suspension: ceilings were lifted,
		// so the session could otherwise sail past the snapshot while this
		// flush is in flight — and a crash after the rename would then
		// restore counters BELOW used nonces. The host re-caps at snapshot
		// time, under the lock that took the snapshot, so the recorded
		// reservation is a true upper bound on everything the session can
		// ever put on the wire.
		j.host.WithSnapshot(id, resuming, &j.sn, j.encode)
	}
	if !checkpoint {
		if len(j.offs) == 0 {
			// Every drained session raced a close and its tombstone is
			// queued for the next cycle; nothing durable changed yet.
			return nil
		}
		j.changed = int64(len(j.arena))
	}

	var err error
	start := 0
	if checkpoint {
		hdr := header{NextID: nextID, Epoch: j.epoch + 1, FlushedAt: now}
		j.fileBuf = appendCheckpointHeader(j.fileBuf[:0], hdr, len(j.offs))
	} else {
		j.fileBuf = appendSegmentHeader(j.fileBuf[:0], j.epoch, j.segSeq)
	}
	for _, end := range j.offs {
		j.fileBuf = appendFramedRecord(j.fileBuf, j.arena[start:end])
		start = end
	}
	size := int64(len(j.fileBuf))
	if checkpoint {
		err = writeFileAtomic(j.cfg.FS, j.tmpPath, j.path, j.fileBuf)
	} else {
		// The file name is single-use — the sequence advances on failure
		// too — so a torn append can only ever damage this file's own
		// tail, and the retry never appends after it; the possible on-disk
		// bytes count toward compaction either way. Boot replays the
		// CRC-complete prefix; the requeued batch re-records every
		// affected session (full records — their delta base is invalid).
		name := filepath.Join(j.cfg.Dir, segmentFileName(j.epoch, j.segSeq))
		err = writeSynced(j.cfg.FS, name, os.O_APPEND, j.fileBuf)
		j.segSeq++
		j.segBytes += size
		j.segCount++
		c.JournalSegments.Set(j.segCount)
	}
	if err != nil {
		c.JournalErrors.Add(1)
		if resuming {
			// Still suspended and the disk still says no: lift the
			// ceilings just re-capped, so service continues. Safe — the
			// on-disk journal is still the invalidated one.
			j.host.LiftCeilings()
		}
		j.requeue(dirty, tombs)
		j.noteFailure(now)
		return fmt.Errorf("journal: flush: %w", err)
	}
	if checkpoint {
		// The checkpoint is durable: advance the epoch and drop the
		// segment tail it absorbed (best effort — anything left behind is
		// stale-epoch and the next boot removes it).
		j.epoch++
		j.haveCheckpoint = true
		j.checkpointBytes = size
		j.removeStaleSegments()
		j.segBytes, j.segSeq, j.segCount = 0, 0, 0
		c.JournalSegments.Set(0)
		if compact {
			c.CompactionRuns.Add(1)
		}
	}
	j.lastNextID = nextID

	// Phase two: the reservations are durable; raise the live ceilings
	// (and validate each session's screen-delta base — the row generations
	// recorded above are now on disk).
	for _, p := range j.pending {
		j.host.Grant(p.id, p.seq, p.num)
	}
	j.noteSuccess(now)
	c.JournalFlushes.Add(1)
	c.JournalBytes.Add(size)
	c.JournalChangedBytes.Add(j.changed)
	return nil
}

// encodeLocked appends session sn's record to the arena and queues its
// proposed ceilings for phase two. It runs inside Host.WithSnapshot, under
// the session's lock, which is what lets it read the live screen sn.FB
// points at. The dirty flag is cleared here, before the encode, so a change
// made after this lock is released marks the session again.
func (j *Journal) encodeLocked(sn *Snapshot, m *Mark) {
	m.dirty.Store(false)
	start := len(j.arena)
	delta := false
	if !j.checkpoint {
		j.rows, delta = m.deltaRows(sn.FB, j.rows[:0])
	}
	switch {
	case j.checkpoint:
		j.arena = appendSnapshot(j.arena, sn)
	case delta:
		j.arena = appendDeltaBody(j.arena, sn, j.rows)
	default:
		j.arena = appendSnapshot(append(j.arena, recFull), sn)
	}
	m.noteEncoded(sn.FB)
	j.offs = append(j.offs, len(j.arena))
	j.pending = append(j.pending, ceiling{sn.ID, sn.NextSeq, sn.NextStateNum})
	if j.checkpoint {
		// Only the sessions that had changed count toward changed bytes.
		for j.cursor < len(j.drained) && j.drained[j.cursor] < sn.ID {
			j.cursor++
		}
		if j.cursor < len(j.drained) && j.drained[j.cursor] == sn.ID {
			j.changed += int64(len(j.arena) - start)
		}
	}
}

// removeStaleSegments deletes every segment file that is not of the
// current epoch (best effort).
func (j *Journal) removeStaleSegments() {
	names, err := j.cfg.FS.ReadDir(j.cfg.Dir)
	if err != nil {
		return
	}
	for _, name := range names {
		if ep, _, ok := parseSegmentName(name); ok && ep != j.epoch {
			j.cfg.FS.Remove(filepath.Join(j.cfg.Dir, name))
		}
	}
}

// writeSynced creates (or, with os.O_APPEND, extends) one file and makes
// its bytes durable. Every operation goes through the filesystem seam, so
// fault schedules can fail or tear any step — the torn-append crash points
// the chaos and nonce property tests exercise.
func writeSynced(fs faultinject.FS, name string, flag int, data []byte) error {
	f, err := fs.OpenFile(name, os.O_WRONLY|os.O_CREATE|flag, 0o600)
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
// fsyncs the directory so the rename itself is durable.
func writeFileAtomic(fs faultinject.FS, tmp, path string, data []byte) error {
	err := writeSynced(fs, tmp, os.O_TRUNC, data)
	if err == nil {
		err = fs.Rename(tmp, path)
	}
	if err != nil {
		fs.Remove(tmp)
		return err
	}
	fs.SyncDir(filepath.Dir(path)) // best effort; not all filesystems support it
	return nil
}

// noteFailure advances the retry/backoff state after a failed flush and,
// past the suspension threshold, degrades to the explicit suspended state.
// Caller holds mu.
func (j *Journal) noteFailure(now time.Time) {
	c := j.cfg.Counters
	j.fails++
	c.JournalFlushFailures.Add(1)
	j.cfg.Event(telemetry.EvJournalFlushFail, uint64(j.fails), now)
	if j.backoff <= 0 {
		j.backoff = j.cfg.RetryMin
	} else {
		j.backoff = min(2*j.backoff, j.cfg.RetryMax)
	}
	// Deterministic jitter in [0, backoff/4]: retries from a fleet of
	// daemons (or one daemon's many incarnations in a test matrix) spread
	// out instead of thundering onto a recovering disk in lockstep.
	delay := j.backoff + time.Duration(j.rng.Uint64()%uint64(j.backoff/4+1))
	j.retryAt.Store(now.Add(delay).UnixNano())
	c.JournalRetryBackoffMs.Set(int64(delay / time.Millisecond))
	if j.cfg.SuspendAfter > 0 && j.fails >= j.cfg.SuspendAfter && j.suspended.Load() == Active {
		j.suspend(now)
	}
	j.RequestFlush() // nudge the loop to recompute its sleep
}

// noteSuccess resets the retry/backoff state and, when the journal was
// suspended, resumes it — the checkpoint that just landed re-recorded
// every session with snapshot-time ceilings, so durability and nonce
// safety are both restored. Caller holds mu.
func (j *Journal) noteSuccess(now time.Time) {
	j.fails = 0
	j.backoff = 0
	j.retryAt.Store(0)
	j.cfg.Counters.JournalRetryBackoffMs.Set(0)
	if j.suspended.Swap(Active) != Active {
		j.cfg.Counters.JournalSuspended.Set(Active)
		j.cfg.Event(telemetry.EvJournalResume, 0, now)
		j.cfg.FS.Remove(j.path + suspendedSuffix) // best-effort cleanup
	}
}

// suspend degrades the journal after sustained flush failure. The stale
// on-disk snapshot is invalidated first (renamed aside): if that succeeds
// — or there was nothing on disk — a crash during the suspension restores
// nothing, so no counter can ever be restored below a nonce used while
// suspended, and the live ceilings are safely lifted: full service, no
// durability. If even the invalidation fails, the stale snapshot could
// still be restored by a crash, so the fail-safe keeps the recorded
// ceilings binding: sessions stall when their reservation runs out rather
// than risk nonce reuse. Caller holds mu.
func (j *Journal) suspend(now time.Time) {
	mode := int32(FailSafe)
	if err := j.cfg.FS.Rename(j.path, j.path+suspendedSuffix); err == nil || errors.Is(err, os.ErrNotExist) {
		mode = Unjournaled
	}
	j.suspended.Store(mode)
	j.cfg.Counters.JournalSuspended.Set(int64(mode))
	j.cfg.Event(telemetry.EvJournalSuspend, uint64(mode), now)
	if mode == Unjournaled {
		j.host.LiftCeilings()
	}
}

// Suspended reports the suspension mode: Active, Unjournaled or FailSafe.
func (j *Journal) Suspended() int { return int(j.suspended.Load()) }

// RequestFlush asks the flush loop for an early flush (low reservation
// headroom, a freshly opened session). Non-blocking; coalesces.
func (j *Journal) RequestFlush() {
	select {
	case j.flushReq <- struct{}{}:
	default:
	}
}

// RetryAt reports when a failed flush may next be attempted, for a host
// that drives flushes itself (a simulation rides it on its deadline heap).
// ok is false when no retry is pending — and always once Start has handed
// retry timing to the journal's own loop, which keeps disk I/O off the
// host's timing path.
func (j *Journal) RetryAt() (at time.Time, ok bool) {
	nanos := j.retryAt.Load()
	if nanos == 0 || j.async.Load() {
		return time.Time{}, false
	}
	return time.Unix(0, nanos), true
}

// Start launches the async flush driver: periodic cadence, on-demand
// requests, and failed-flush retries, until stop is closed. Flush attempts
// self-gate on the backoff state, so a request storm during an outage costs
// nothing; the loop only has to make sure it is AWAKE when the backoff
// expires, which is what its retryAt-aware sleep does.
func (j *Journal) Start(stop <-chan struct{}) {
	j.async.Store(true)
	go j.loop(stop)
}

func (j *Journal) loop(stop <-chan struct{}) {
	clk := j.cfg.Clock
	timer := clk.NewTimer(j.cfg.Interval)
	defer timer.Stop()
	for {
		// While a failed flush is waiting out its backoff, stop selecting
		// on flushReq: attempts self-gate on the backoff anyway, so waking
		// for the low-headroom request storm would spin this loop at the
		// packet rate for the remainder of a disk outage. The timer below
		// is armed for the backoff deadline, which is the only instant
		// worth waking for.
		req := j.flushReq
		if j.retryAt.Load() != 0 {
			req = nil
		}
		select {
		case <-stop:
			return
		case <-timer.C():
		case <-req:
		}
		j.Flush(false) // outcome recorded in metrics/backoff state
		sleep := j.cfg.Interval
		if at := j.retryAt.Load(); at != 0 {
			// Recompute the backoff deadline from the Clock. A deadline
			// already in the past means the backoff expired while we were
			// busy: retry on the immediately-firing timer rather than
			// clamping to a busy-spin resleep.
			sleep = max(0, min(sleep, time.Unix(0, at).Sub(clk.Now())))
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

// load reads the checkpoint plus its matching-epoch segment tail; see Open.
func (j *Journal) load() ([]*Snapshot, uint64, error) {
	fs, c := j.cfg.FS, j.cfg.Counters
	names, err := fs.ReadDir(j.cfg.Dir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, 0, fmt.Errorf("journal: listing state dir: %w", err)
	}
	type segFile struct {
		name       string
		epoch, seq uint64
	}
	var segs []segFile
	for _, name := range names {
		if ep, sq, ok := parseSegmentName(name); ok {
			segs = append(segs, segFile{name: name, epoch: ep, seq: sq})
		}
	}
	slices.SortFunc(segs, func(a, b segFile) int {
		return cmp.Or(cmp.Compare(a.epoch, b.epoch), cmp.Compare(a.seq, b.seq))
	})
	// dropSegs discards orphaned segments (best effort), remembering the
	// highest orphan epoch so the first checkpoint this incarnation writes
	// supersedes even a segment the delete failed to remove.
	dropSegs := func() {
		for _, sg := range segs {
			j.epoch = max(j.epoch, sg.epoch)
			fs.Remove(filepath.Join(j.cfg.Dir, sg.name))
		}
	}
	data, err := fs.ReadFile(j.path)
	if errors.Is(err, os.ErrNotExist) {
		// No checkpoint: fresh boot, or a suspension invalidated it.
		// Orphan segments extend nothing restorable — deltas without their
		// base cannot be applied, and restoring nothing is always
		// nonce-safe (this is what keeps the suspended-crash contract:
		// nothing journaled while the snapshot was invalidated can revive).
		dropSegs()
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("journal: reading checkpoint: %w", err)
	}
	hdr, snaps, bad, err := decodeCheckpoint(data)
	if err != nil {
		// The checkpoint exists but its header never survived to disk (a
		// rename torn by power loss, or a foreign file). Refusing to boot
		// would turn one bad sector into a dead daemon; restoring nothing
		// is always nonce-safe (no counter can be resealed by a session
		// that was never revived). Preserve the artifact for forensics and
		// start empty. The segment tail extends a checkpoint that cannot
		// be read, so it goes too.
		c.JournalBadRecords.Add(1)
		fs.Rename(j.path, j.path+corruptSuffix)
		dropSegs()
		return nil, 0, nil
	}
	c.JournalBadRecords.Add(int64(bad))
	j.epoch = hdr.Epoch
	rp := newReplay(hdr, snaps)
	for _, sg := range segs {
		path := filepath.Join(j.cfg.Dir, sg.name)
		if sg.epoch != hdr.Epoch {
			// A crash between writing a compacted checkpoint and deleting
			// the old tail leaves stale-epoch segments; their content is
			// folded into the checkpoint already.
			fs.Remove(path)
			continue
		}
		data, err := fs.ReadFile(path)
		if err != nil {
			return nil, 0, fmt.Errorf("journal: reading segment: %w", err)
		}
		c.JournalBadRecords.Add(int64(rp.applySegment(data, hdr.Epoch)))
	}
	return rp.sessionsSorted(), rp.nextID, nil
}
