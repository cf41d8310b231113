package telemetry

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// Code identifies one flight-recorder event type. The vocabulary is the
// daemon's "what was I doing" trace: ingress batches, keystrokes and
// their echo frames, every drop class, and the degradation transitions
// from the fault-tolerance machinery.
type Code uint8

const (
	EvNone             Code = iota
	EvBatchIn               // ingress batch handled; arg = datagrams in the batch
	EvKeystroke             // user input reached a session's host; arg = input bytes
	EvEcho                  // keystroke matched to its echo frame; arg = latency in µs
	EvFrameSent             // sender minted a new state; arg = state number
	EvDropAuth              // datagram failed AEAD verification
	EvDropQueue             // session over its per-sweep budget; arg = datagrams dropped
	EvDropEgress            // sealed datagram dropped before the socket; arg = 1 egress ring full, 0 no reply target
	EvQuotaBlocked          // source refused pre-AEAD by the unauth quota
	EvRoam                  // authentic datagram from a new source address
	EvShedTrip              // shed policy tripped; arg = drop threshold
	EvJournalFlushFail      // journal flush failed; arg = consecutive failures
	EvJournalSuspend        // journaling suspended; arg = suspension mode
	EvJournalResume         // journaling resumed after suspension
	EvDump                  // a flight-recorder dump was taken
	EvDropBadDiff           // authentic datagram whose diff would not apply
	numCodes
)

var codeNames = [numCodes]string{
	EvNone:             "none",
	EvBatchIn:          "batch_in",
	EvKeystroke:        "keystroke",
	EvEcho:             "echo",
	EvFrameSent:        "frame_sent",
	EvDropAuth:         "drop_auth",
	EvDropQueue:        "drop_queue",
	EvDropEgress:       "drop_egress",
	EvQuotaBlocked:     "quota_blocked",
	EvRoam:             "roam",
	EvShedTrip:         "shed_trip",
	EvJournalFlushFail: "journal_flush_fail",
	EvJournalSuspend:   "journal_suspend",
	EvJournalResume:    "journal_resume",
	EvDump:             "dump",
	EvDropBadDiff:      "drop_bad_diff",
}

func (c Code) String() string {
	if int(c) < len(codeNames) {
		return codeNames[c]
	}
	return fmt.Sprintf("code(%d)", uint8(c))
}

const (
	recorderShards = 8
	wordsPerEvent  = 4 // ts, session, arg, code — each one atomic word

	// DefaultRecorderSlots is the per-shard ring size: 8×1024 events is
	// ~256 KB and several seconds of history under heavy load.
	DefaultRecorderSlots = 1024
)

// recShard is one ring. The cursor is padded onto its own cache line so
// the eight shards' hot counters do not false-share.
type recShard struct {
	pos   atomic.Uint64
	_     [7]uint64
	words []atomic.Uint64
}

// Recorder is a lock-free in-memory flight recorder: a fixed ring of
// packed events per shard, sharded by session ID so concurrent session
// workers do not contend on one cursor. It is always on: Record is
// wait-free and makes no allocations. An event's four words are stored
// non-transactionally — a reader racing a wrapping writer can observe a
// torn event; dumps are diagnostics, not an audit log, and the
// ~ring-period staleness window makes this vanishingly rare in practice.
type Recorder struct {
	slots  uint64 // per shard, power of two
	shards [recorderShards]recShard
}

// NewRecorder returns a recorder with slotsPerShard event slots
// in each of its 8 shards (0 or negative = DefaultRecorderSlots; rounded
// up to a power of two).
func NewRecorder(slotsPerShard int) *Recorder {
	if slotsPerShard <= 0 {
		slotsPerShard = DefaultRecorderSlots
	}
	n := uint64(1)
	for n < uint64(slotsPerShard) {
		n <<= 1
	}
	r := &Recorder{slots: n}
	for i := range r.shards {
		r.shards[i].words = make([]atomic.Uint64, n*wordsPerEvent)
	}
	return r
}

// Record stores one event, overwriting the oldest in the session's
// shard. The caller supplies the timestamp so simulated clocks record
// virtual time.
func (r *Recorder) Record(code Code, session, arg uint64, now time.Time) {
	sh := &r.shards[session%recorderShards]
	base := ((sh.pos.Add(1) - 1) & (r.slots - 1)) * wordsPerEvent
	sh.words[base].Store(uint64(now.UnixNano()))
	sh.words[base+1].Store(session)
	sh.words[base+2].Store(arg)
	sh.words[base+3].Store(uint64(code))
}

// Event is one decoded flight-recorder entry.
type Event struct {
	At      time.Time
	Code    Code
	Session uint64
	Arg     uint64
}

// Snapshot decodes every recorded event, oldest first. Safe against
// concurrent recording (modulo the documented tearing window).
func (r *Recorder) Snapshot() []Event {
	evs := make([]Event, 0, 64)
	for s := range r.shards {
		sh := &r.shards[s]
		for i := uint64(0); i < r.slots; i++ {
			base := i * wordsPerEvent
			code := Code(sh.words[base+3].Load())
			if code == EvNone || code >= numCodes {
				continue
			}
			evs = append(evs, Event{
				At:      time.Unix(0, int64(sh.words[base].Load())),
				Session: sh.words[base+1].Load(),
				Arg:     sh.words[base+2].Load(),
				Code:    code,
			})
		}
	}
	// Deterministic order even when virtual time stamps many events with
	// one instant: time, then session, then code, then arg.
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if !a.At.Equal(b.At) {
			return a.At.Before(b.At)
		}
		if a.Session != b.Session {
			return a.Session < b.Session
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Arg < b.Arg
	})
	return evs
}

// AppendDump renders the ring human-readably: one line per event with
// its offset from now (negative = past), newest last.
func (r *Recorder) AppendDump(dst []byte, reason string, now time.Time) []byte {
	evs := r.Snapshot()
	dst = fmt.Appendf(dst, "flight recorder dump (reason: %s) at %s — %d events\n",
		reason, now.UTC().Format(time.RFC3339Nano), len(evs))
	for _, ev := range evs {
		dst = fmt.Appendf(dst, "  %12s  %-18s sess=%-6d arg=%d\n",
			ev.At.Sub(now).Round(time.Microsecond), ev.Code, ev.Session, ev.Arg)
	}
	return dst
}
