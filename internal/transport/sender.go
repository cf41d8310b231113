package transport

import (
	"iter"
	"math"
	"slices"
	"time"

	"repro/internal/network"
	"repro/internal/simclock"
)

// Timing collects the transport sender's timing parameters. The defaults
// are the paper's published values; each is exposed so the benchmark
// harness can sweep them (Figure 3 sweeps CollectionInterval; the ablation
// benches sweep the others).
type Timing struct {
	// SendIntervalMin caps the frame rate at 50 Hz (paper footnote 1).
	SendIntervalMin time.Duration
	// SendIntervalMax bounds the inter-frame interval on very slow paths.
	SendIntervalMax time.Duration
	// CollectionInterval is the pause after the first host write before a
	// frame goes out, letting clumped updates coalesce (§2.3; Figure 3
	// found 8 ms optimal). It counts from the write itself when the caller
	// says when that was (Transport.TickChangedAt — the reference freezes
	// one timestamp per loop iteration, so its interval too starts when the
	// pty became readable, not when the emulator finished with the bytes),
	// and otherwise from the tick that first notices the change.
	CollectionInterval time.Duration
	// AckDelay is the delayed-ack interval; within 100 ms more than 99.9%
	// of acks piggyback on host data (§2.3).
	AckDelay time.Duration
	// HeartbeatInterval keeps NAT bindings alive and lets each side learn
	// the other is reachable (§2.3: 3 s).
	HeartbeatInterval time.Duration
	// MTU is the maximum fragment-contents size in bytes.
	MTU int
}

// ActiveRetryTimeout stops aggressive retransmission when the peer has
// been silent this long (it may be disconnected; heartbeats continue).
const ActiveRetryTimeout = 10 * time.Second

// DefaultTiming returns the paper's parameter values: what a server, whose
// host application writes in clumps, runs with.
func DefaultTiming() Timing {
	return Timing{
		SendIntervalMin:    20 * time.Millisecond,
		SendIntervalMax:    250 * time.Millisecond,
		CollectionInterval: 8 * time.Millisecond,
		AckDelay:           100 * time.Millisecond,
		HeartbeatInterval:  3 * time.Second,
		MTU:                1200,
	}
}

// ClientTiming is DefaultTiming with the reference client's collection
// interval: Figure 3's 8 ms optimum was measured on host output, which
// arrives in clumps worth coalescing; a keystroke has nothing to wait for,
// and the reference client sends it after 1 ms (set_send_delay(1)).
func ClientTiming() Timing {
	t := DefaultTiming()
	t.CollectionInterval = time.Millisecond
	return t
}

// SenderStats counts the sender's wire activity.
type SenderStats struct {
	Instructions int // instructions carrying a non-empty diff
	EmptyAcks    int // pure acks and heartbeats
	Fragments    int // datagrams sent
	DiffBytes    int64
	// Suppressed counts sends refused by the durable reservation ceilings
	// (sequence numbers or state numbers). SSP treats each as loss; the
	// persistence layer flushes its journal to extend the reservation.
	Suppressed int
	// PreparedSent counts frames built ahead of their deadline (Prepare)
	// that then left as built; Prepare reports each frame it builds, and
	// the rest were discarded because something moved first.
	PreparedSent int
}

// sentState is one entry in the sender's history of states the receiver
// may hold.
type sentState[T State[T]] struct {
	num   uint64
	at    time.Time
	state T
}

// maxSentStates bounds the history; beyond it, a middle entry is culled
// (the extremes — the known-received baseline and the newest state — must
// survive).
const maxSentStates = 32

// preparedFrame is a frame built during its collection interval (see
// Transport.Prepare): the snapshot that will become the sent state and the
// header numbers its payload, waiting in the fragmenter's scratch, was
// encoded with.
type preparedFrame[T State[T]] struct {
	valid bool
	state T
	// hdr is the instruction as encoded, less its diff, of which only the
	// length is kept (for the counters).
	hdr     Instruction
	diffLen int
}

// Sender drives one direction of SSP: it watches a live local object and
// fast-forwards the remote host to its current state.
//
// A frame waits out a collection interval before it leaves, and the sender
// can spend that wait building it: Prepare snapshots, diffs, marshals and
// deflates the frame the deadline is expected to send, and the tick that
// serves the deadline only stamps, seals and writes it — after checking that
// it is still exactly the frame it would have minted. The package comment
// has the contract.
type Sender[T State[T]] struct {
	conn   *network.Connection
	clock  simclock.Clock
	timing Timing
	frag   fragmenter
	// emit transmits one sealed wire datagram; wired up by Transport.
	emit func(wire []byte)

	// currentState is the live object owned by the application; the
	// sender reads it every tick and clones it into sentStates on send.
	currentState T

	sentStates []sentState[T] // front = newest state known received

	assumedIdx int // index of the assumed receiver state

	nextAckTime    time.Time // delayed-ack / heartbeat deadline
	nextSendTime   time.Time // zero when no data pending
	mindelayActive bool
	mindelayAt     time.Time
	// changedAt is when the caller of the tick about to run says the live
	// object changed (noteChange); the tick clears it.
	changedAt time.Time
	// changes counts the changes the caller has announced since the last
	// new state was minted, and prevChanges what that count was when it
	// was: how many writes the previous frame coalesced. Prepare reads both.
	changes, prevChanges int

	prep preparedFrame[T]

	pendingDataAck bool
	ackNum         uint64 // newest remote state num, echoed in instructions

	// recycleWire enables reuse of the emitted wire buffer: wireBuf, the
	// last datagram sealed, is what the next is sealed into. Only safe when
	// the Emit callback fully consumes the datagram before returning (a
	// UDP write); simulation embedders retain payloads in flight and must
	// leave it off.
	recycleWire bool
	wireBuf     []byte

	// numFloor is the journal-restored state-number reservation: the first
	// state minted after a restart takes at least this number, so it
	// strictly exceeds every state number any previous incarnation sent
	// (the receiver's NewNum-based dedup then admits the resume repaint).
	numFloor uint64
	// numCeiling bounds minted state numbers for crash safety, with the
	// same two-phase journal protocol as the datagram layer's sequence
	// ceiling (network.Connection.SetSeqCeiling). 0 means unlimited.
	numCeiling uint64

	stats SenderStats
}

// newSender builds a sender for the live object current, whose initial
// contents both sides agree is state number 0.
func newSender[T State[T]](conn *network.Connection, clock simclock.Clock, timing Timing, current T) *Sender[T] {
	now := clock.Now()
	return &Sender[T]{
		conn:         conn,
		clock:        clock,
		timing:       timing,
		currentState: current,
		sentStates:   []sentState[T]{{num: 0, at: now, state: current.Clone()}},
		nextAckTime:  now.Add(timing.HeartbeatInterval),
	}
}

// newResumedSender builds a sender restored from a journal: current is the
// restored live object, baseline is the agreed initial state (state number
// 0, ownership transfers to the sender), and numFloor is the persisted
// state-number reservation. Because current differs from the baseline, the
// first tick conveys a full fresh-baseline diff (0 → numFloor) that the
// receiver applies via its pristine state-0 fallback.
func newResumedSender[T State[T]](conn *network.Connection, clock simclock.Clock, timing Timing, current, baseline T, numFloor uint64) *Sender[T] {
	s := newSender(conn, clock, timing, current)
	recycle(s.sentStates[0].state)
	s.sentStates[0].state = baseline
	s.numFloor = numFloor
	return s
}

// SetNumCeiling installs the durable state-number reservation ceiling; see
// network.Connection.SetSeqCeiling for the two-phase crash-safety protocol
// it participates in. 0 means unlimited.
func (s *Sender[T]) SetNumCeiling(ceiling uint64) { s.numCeiling = ceiling }

// NumHighWater reports the state-number reservation a journal snapshot must
// exceed: one past the newest minted number, and never below the restored
// floor (which may not have minted yet).
func (s *Sender[T]) NumHighWater() uint64 {
	hw := s.back().num + 1
	if hw < s.numFloor {
		hw = s.numFloor
	}
	return hw
}

// Stats returns a snapshot of wire counters.
func (s *Sender[T]) Stats() SenderStats { return s.stats }

// SentStateCount reports the retained history length.
func (s *Sender[T]) SentStateCount() int { return len(s.sentStates) }

// SentStates iterates the retained history, the acknowledged baseline
// first: every snapshot the receiver has not yet let the sender forget.
// For memory accounting; the states stay the sender's.
func (s *Sender[T]) SentStates() iter.Seq[T] {
	return func(yield func(T) bool) {
		for i := range s.sentStates {
			if !yield(s.sentStates[i].state) {
				return
			}
		}
	}
}

// ForceAckSoon makes the next Tick emit at least an empty ack; the client
// uses it right after dialing so the server learns its address without
// waiting for the first heartbeat.
func (s *Sender[T]) ForceAckSoon() { s.nextAckTime = s.clock.Now() }

// LastSentNum reports the newest state number handed to the network; the
// prediction engine stamps expiration frames with it.
func (s *Sender[T]) LastSentNum() uint64 { return s.back().num }

// LastAckedNum reports the newest state number the receiver acknowledged.
func (s *Sender[T]) LastAckedNum() uint64 { return s.front().num }

// setDataAck records that the peer delivered a new state we must
// acknowledge (within AckDelay, or piggybacked sooner).
func (s *Sender[T]) setDataAck(ackNum uint64) {
	s.ackNum = ackNum
	s.pendingDataAck = true
}

// SendInterval reports the current frame interval — the paper's
// frame-rate rule made observable for live transport introspection.
func (s *Sender[T]) SendInterval() time.Duration { return s.sendInterval() }

// sendInterval is the paper's frame-rate rule: half the smoothed RTT,
// clamped so there is about one instruction in flight at any time but
// never more than 50 frames per second.
func (s *Sender[T]) sendInterval() time.Duration {
	iv := s.conn.SRTT(time.Second) / 2
	if iv < s.timing.SendIntervalMin {
		iv = s.timing.SendIntervalMin
	}
	if iv > s.timing.SendIntervalMax {
		iv = s.timing.SendIntervalMax
	}
	return iv
}

func (s *Sender[T]) back() *sentState[T]  { return &s.sentStates[len(s.sentStates)-1] }
func (s *Sender[T]) front() *sentState[T] { return &s.sentStates[0] }

// updateAssumedReceiverState guesses the newest sent state the receiver
// has: any state sent within the last RTO (+ ack delay) is optimistically
// assumed delivered; older unacknowledged states are assumed lost.
func (s *Sender[T]) updateAssumedReceiverState(now time.Time) {
	s.assumedIdx = 0
	horizon := s.conn.RTO() + s.timing.AckDelay
	for i := 1; i < len(s.sentStates); i++ {
		if now.Sub(s.sentStates[i].at) < horizon {
			s.assumedIdx = i
		} else {
			break
		}
	}
}

// processAcknowledgmentThrough handles an incoming AckNum: all history at
// or before the acknowledged state collapses into a new baseline, and the
// shared prefix is subtracted from every retained state (garbage collection
// for append-only objects). Dropped snapshots are recycled back to the
// state implementation, which keeps the snapshot churn of a long-lived
// session allocation-free.
func (s *Sender[T]) processAcknowledgmentThrough(ack uint64) {
	idx := -1
	for i := range s.sentStates {
		if s.sentStates[i].num == ack {
			idx = i
			break
		}
	}
	if idx <= 0 {
		return // unknown (stale or bogus) ack, or already the baseline
	}
	// The baseline is about to move and every retained state to lose the
	// acknowledged prefix; a frame prepared before that names the old
	// baseline and its snapshot would miss the Subtract.
	s.discardPrepared()
	for i := 0; i < idx; i++ {
		recycle(s.sentStates[i].state)
	}
	// Compact in place: sliding the slice start would shed capacity and
	// make addSentState reallocate every few instructions.
	s.sentStates = slices.Delete(s.sentStates, 0, idx)
	base := s.front().state.Clone()
	s.currentState.Subtract(base)
	for i := range s.sentStates {
		s.sentStates[i].state.Subtract(base)
	}
	recycle(base)
}

// calculateTimers recomputes the ack and send deadlines from the current
// object and history, per §2.3's sender timing rules.
func (s *Sender[T]) calculateTimers(now time.Time) {
	s.updateAssumedReceiverState(now)

	if s.pendingDataAck {
		if deadline := now.Add(s.timing.AckDelay); s.nextAckTime.After(deadline) {
			s.nextAckTime = deadline
		}
	}

	lastHeard, heard := s.conn.LastHeard()
	remoteActive := heard && now.Sub(lastHeard) < ActiveRetryTimeout

	switch {
	case !s.currentState.Equal(s.back().state):
		// Fresh changes: wait out the collection interval and the frame
		// rate, whichever is later.
		if !s.mindelayActive {
			s.mindelayActive = true
			s.mindelayAt = now
			// The interval counts from the change itself when this tick's
			// caller knows when that was. Only here: a hint never moves an
			// interval already running, and one from the future is now.
			if !s.changedAt.IsZero() && s.changedAt.Before(now) {
				s.mindelayAt = s.changedAt
			}
		}
		t := s.mindelayAt.Add(s.timing.CollectionInterval)
		if u := s.back().at.Add(s.sendInterval()); u.After(t) {
			t = u
		}
		s.nextSendTime = t
	case !s.currentState.Equal(s.sentStates[s.assumedIdx].state) && remoteActive:
		// Nothing new, but the assumed receiver state lags: keep
		// retransmitting diffs at the frame rate.
		t := s.back().at.Add(s.sendInterval())
		if s.mindelayActive {
			if u := s.mindelayAt.Add(s.timing.CollectionInterval); u.After(t) {
				t = u
			}
		}
		s.nextSendTime = t
	case !s.currentState.Equal(s.front().state) && remoteActive:
		// Receiver may be fully caught up (optimistically), but we lack
		// the ack: probe again after a timeout.
		s.nextSendTime = s.back().at.Add(s.conn.RTO() + s.timing.AckDelay)
	default:
		s.nextSendTime = time.Time{}
	}
}

// tick is the sender's main entry: called whenever anything may have
// changed (host activity, packet arrival, timer expiry). It sends at most
// one instruction.
func (s *Sender[T]) tick() {
	now := s.clock.Now()
	s.calculateTimers(now)
	s.changedAt = time.Time{} // a hint lives for the one tick it was given to
	if !s.conn.HasPeer() {
		// Nobody to send to. The timers above still ran, so a collection
		// interval the local object's first change opened keeps counting from
		// that change; nothing is minted, diffed, sealed or numbered.
		return
	}

	ackDue := !now.Before(s.nextAckTime)
	sendDue := !s.nextSendTime.IsZero() && !now.Before(s.nextSendTime)
	if !ackDue && !sendDue {
		return
	}
	// The diff, the instruction and its fragments are built in a scratch
	// borrowed for this tick alone: between ticks the sender holds none.
	defer s.frag.release()
	if s.sendPrepared(now) {
		return
	}

	sc := s.frag.borrow()
	// A live object Equal to the newest sent state goes out as a resend of
	// that state, under its number, so its diff is that snapshot's: Equal
	// need not compare everything a diff carries (a screen's active
	// rendition), and every diff a receiver can hold for one number must
	// leave it in the state the next diff is computed from.
	resend := s.currentState.Equal(s.back().state)
	target := s.currentState
	if resend {
		target = s.back().state
	}
	sc.diff = target.AppendDiff(sc.diff[:0], s.sentStates[s.assumedIdx].state)
	if len(sc.diff) == 0 {
		if ackDue {
			s.sendEmptyAck(now)
		}
		return
	}
	s.sendToReceiver(now, sc.diff, resend)
}

// wantsPrepare reports whether building the next frame now is likely to pay:
// a send is pending for a state not yet sent, the reservation covers its
// number, nothing is prepared already, and the traffic says it will last.
// quietUntil is the earliest instant the caller already knows the live
// object will change again (zero: none known). It reads the deadlines the
// last Tick or NextDeadline computed; a stale answer costs a wasted or a
// missed frame, never a wrong one. A frame prepared earlier that has gone
// stale is recycled on the way.
func (s *Sender[T]) wantsPrepare(quietUntil time.Time) bool {
	if !s.conn.HasPeer() || s.nextSendTime.IsZero() || (!quietUntil.IsZero() && !quietUntil.After(s.nextSendTime)) {
		return false
	}
	// The traffic decides, through the changes the caller announces. A pty
	// in a flood writes many times per interval and every write would throw
	// the frame away; the previous frame is the forecast: if it coalesced
	// more than one announced change, or this one already has, build
	// nothing ahead — one discarded frame when a flood starts, and the first
	// quiet interval switches building back on. And a pending frame nobody
	// announced a change for carries no host write (an echo acknowledgment,
	// a resize): a few bytes no reply is waiting for, usually overtaken by
	// the keystroke whose output will be.
	if s.changes != 1 || s.prevChanges > 1 {
		return false
	}
	if s.prep.valid {
		if s.preparedIsExact() {
			return false
		}
		s.discardPrepared()
	}
	_, ok := s.nextNum()
	return ok && !s.currentState.Equal(s.back().state)
}

// preparedIsExact reports whether the prepared frame is byte for byte the
// instruction a tick sending now would mint: its payload still in the
// fragmenter, the same four header numbers, each derived again, and a live
// object identical to the snapshot.
func (s *Sender[T]) preparedIsExact() bool {
	hdr := &s.prep.hdr
	num, ok := s.nextNum()
	return ok && s.frag.prepared &&
		hdr.OldNum == s.sentStates[s.assumedIdx].num && hdr.NewNum == num &&
		hdr.AckNum == s.ackNum && hdr.ThrowawayNum == s.front().num &&
		identical(s.currentState, s.prep.state)
}

// prepare builds the frame the pending deadline is expected to send: the
// snapshot addSentState would take then, the diff against the assumed
// receiver state, and the marshalled, deflated payload, which waits in the
// fragmenter's scratch — the one scratch a sender keeps past the call that
// borrowed it. It reports whether there was a frame to build.
func (s *Sender[T]) prepare() bool {
	defer s.frag.release() // unless a payload now waits in it
	sc := s.frag.borrow()
	assumed := &s.sentStates[s.assumedIdx]
	sc.diff = s.currentState.AppendDiff(sc.diff[:0], assumed.state)
	if len(sc.diff) == 0 {
		return false
	}
	num, _ := s.nextNum()
	inst := Instruction{
		OldNum:       assumed.num,
		NewNum:       num,
		AckNum:       s.ackNum,
		ThrowawayNum: s.front().num,
		Diff:         sc.diff,
	}
	s.frag.prepare(&inst)
	inst.Diff = nil
	s.prep = preparedFrame[T]{valid: true, state: s.currentState.Clone(), hdr: inst, diffLen: len(sc.diff)}
	return true
}

// sendPrepared sends the prepared frame if it is exactly what this tick
// would mint, and reports whether it did: the snapshot becomes the sent
// state and the payload is split and sealed with this tick's timestamps. A
// frame that is anything else is recycled.
func (s *Sender[T]) sendPrepared(now time.Time) bool {
	p := &s.prep
	if !p.valid {
		return false
	}
	if !s.preparedIsExact() {
		s.discardPrepared()
		return false
	}
	s.pushSentState(now, p.hdr.NewNum, p.state)
	diffLen := p.diffLen
	*p = preparedFrame[T]{}
	s.sendFragments(now, s.frag.preparedFragments(s.timing.MTU))
	s.noteDataSent(diffLen)
	s.stats.PreparedSent++
	return true
}

// discardPrepared recycles the prepared frame's snapshot, if there is one,
// and gives back the scratch its payload waited in.
func (s *Sender[T]) discardPrepared() {
	if s.prep.valid {
		recycle(s.prep.state)
		s.prep = preparedFrame[T]{}
		s.frag.prepared = false
		s.frag.release()
	}
}

// Collecting reports whether a frame for fresh changes is waiting out its
// collection interval, as of the last tick.
func (s *Sender[T]) Collecting() bool { return s.mindelayActive }

// PreparedState returns the snapshot of the frame waiting for its deadline,
// if there is one. For memory accounting; it stays the sender's.
func (s *Sender[T]) PreparedState() (T, bool) { return s.prep.state, s.prep.valid }

// noteChange records that the caller of the next tick says the live object
// changed at at: a collection interval that tick starts counts from it (the
// tick consumes the hint), the change is one more write the frame being
// collected coalesces, and a frame prepared before it no longer shows the
// live object.
func (s *Sender[T]) noteChange(at time.Time) {
	s.discardPrepared()
	s.changes++
	s.changedAt = at
}

// nextDeadline reports the instant the sender next needs a tick: the
// earlier of its ack/heartbeat and send deadlines, recomputed as of now. It
// is absolute, so it does not move with the moment it is asked for — an
// event loop arms it as is; waitTime is the same deadline for loops that
// sleep on a duration. ok is false when there is none: an endpoint without
// a peer has nothing a tick could do, until a datagram gives it one.
func (s *Sender[T]) nextDeadline(now time.Time) (at time.Time, ok bool) {
	if !s.conn.HasPeer() {
		return time.Time{}, false
	}
	s.calculateTimers(now)
	if !s.nextSendTime.IsZero() && s.nextSendTime.Before(s.nextAckTime) {
		return s.nextSendTime, true
	}
	return s.nextAckTime, true
}

// NoDeadline is what WaitTime reports when no tick is needed until something
// arrives: the longest wait there is.
const NoDeadline time.Duration = math.MaxInt64

// waitTime reports how long the event loop may sleep before the sender
// needs another tick.
func (s *Sender[T]) waitTime() time.Duration {
	now := s.clock.Now()
	at, ok := s.nextDeadline(now)
	if !ok {
		return NoDeadline
	}
	if d := at.Sub(now); d > 0 {
		return d
	}
	return 0
}

// sendEmptyAck emits an instruction with no diff: it carries the ack
// number (delayed ack) and doubles as the heartbeat.
func (s *Sender[T]) sendEmptyAck(now time.Time) {
	num := s.back().num
	s.sendInstruction(now, &Instruction{
		OldNum:       num,
		NewNum:       num,
		AckNum:       s.ackNum,
		ThrowawayNum: s.front().num,
	})
	s.stats.EmptyAcks++
	s.pendingDataAck = false
	s.mindelayActive = false
}

// nextNum is the number a state minted now would take: one past the newest,
// and never below the restored floor. ok is false when the durable
// reservation does not cover it.
func (s *Sender[T]) nextNum() (num uint64, ok bool) {
	num = s.back().num + 1
	if num < s.numFloor {
		num = s.numFloor
	}
	return num, s.numCeiling == 0 || num < s.numCeiling
}

// sendToReceiver conveys the current state as a diff from the assumed
// receiver state (the action "best calculated to fast-forward the remote
// host", design goal 3); resend says the newest sent state is that state.
func (s *Sender[T]) sendToReceiver(now time.Time, diff []byte, resend bool) {
	var newNum uint64
	if resend {
		// Resend of a state the receiver should already be getting:
		// same number, refreshed timestamp.
		newNum = s.back().num
		s.back().at = now
	} else {
		var ok bool
		if newNum, ok = s.nextNum(); !ok {
			// Reservation exhausted: minting this number could collide
			// with a post-crash restore. Suppress (SSP sees loss) until
			// the journal extends the reservation.
			s.stats.Suppressed++
			return
		}
		s.addSentState(now, newNum)
	}
	s.sendInstruction(now, &Instruction{
		OldNum:       s.sentStates[s.assumedIdx].num,
		NewNum:       newNum,
		AckNum:       s.ackNum,
		ThrowawayNum: s.front().num,
		Diff:         diff,
	})
	s.noteDataSent(len(diff))
}

// noteDataSent is the bookkeeping every data instruction ends with.
func (s *Sender[T]) noteDataSent(diffLen int) {
	s.stats.Instructions++
	s.stats.DiffBytes += int64(diffLen)
	s.pendingDataAck = false
	s.mindelayActive = false
}

// addSentState snapshots the live object into the history as state num.
func (s *Sender[T]) addSentState(now time.Time, num uint64) {
	s.pushSentState(now, num, s.currentState.Clone())
}

// pushSentState appends snapshot, which the sender now owns, to the history
// as state num, and opens the next frame's count of coalesced changes.
func (s *Sender[T]) pushSentState(now time.Time, num uint64, snapshot T) {
	s.prevChanges, s.changes = s.changes, 0
	s.sentStates = append(s.sentStates, sentState[T]{num: num, at: now, state: snapshot})
	if len(s.sentStates) > maxSentStates {
		// Cull from the middle: keep the baseline, recent states and the
		// newest.
		mid := len(s.sentStates) / 2
		if mid == s.assumedIdx {
			// Never cull the assumed receiver state: the diff the caller
			// just computed is against it, and the instruction about to go
			// out stamps its number as OldNum. (mid+1 stays interior:
			// mid ≤ len/2 and the newest entry sits at len-1 ≥ mid+2.)
			mid++
		}
		recycle(s.sentStates[mid].state)
		s.sentStates = slices.Delete(s.sentStates, mid, mid+1)
		if s.assumedIdx > mid {
			s.assumedIdx--
		}
	}
}

// sendInstruction fragments, seals and transmits one instruction.
func (s *Sender[T]) sendInstruction(now time.Time, inst *Instruction) {
	s.sendFragments(now, s.frag.makeFragments(inst, s.timing.MTU))
}

// sendFragments seals and transmits one instruction's fragments, and pushes
// the heartbeat deadline out. The fragments are sealed back to back, as the
// receiver's derivation of their instruction id (seq − num) requires; a
// refused seal consumes no sequence number, so the next instruction starts
// a fresh id. Each fragment is marshalled into the tick's
// scratch; the sealed wire buffer itself is recycled only when the embedder
// has declared Emit non-retaining (RecycleWire).
func (s *Sender[T]) sendFragments(now time.Time, frags []fragment) {
	for i := range frags {
		payload := s.frag.marshal(&frags[i])
		buf := s.wireBuf[:0]
		if buf == nil {
			buf = make([]byte, 0, len(payload)+s.conn.Overhead())
		}
		wire, err := s.conn.AppendPacket(buf, payload)
		if err != nil {
			// Sequence reservation exhausted (recoverable after a journal
			// flush) or the sequence space itself is gone (session dead).
			// Either way the datagram is suppressed like loss.
			s.stats.Suppressed++
			return
		}
		s.stats.Fragments++
		if s.emit != nil {
			s.emit(wire)
		}
		if s.recycleWire {
			s.wireBuf = wire
		}
	}
	s.nextAckTime = now.Add(s.timing.HeartbeatInterval)
}
