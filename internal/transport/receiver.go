package transport

import (
	"fmt"
	"slices"
)

// maxReceivedStates bounds the receiver's history. ThrowawayNum prunes it
// in normal operation; the cap is a defensive backstop.
const maxReceivedStates = 1024

// recvState is one remote state the receiver can serve as a diff source.
type recvState[T State[T]] struct {
	num   uint64
	state T
}

// Receiver holds the remote object's reconstructed states. States are kept
// (in ascending number order) until the sender's ThrowawayNum retires
// them, because the sender may still choose any of them as a diff source.
//
// Retired states are recycled back to the state implementation (see
// Recycler): a retired snapshot's storage may be reused by the very next
// state reconstruction. The audit behind that wiring fixed the reference
// contract of Latest(): its result is valid only until the next call to
// processInstruction — every in-repo caller reads it transiently within
// one event-loop turn, and external callers must Clone before retaining.
//
// History is also rationalized, as in the reference implementation's
// get_remote_diff: on every instruction the oldest retained state is
// subtracted from all of them, so an append-only object (the user-input
// stream) holds only what the sender has not yet promised to forget, and a
// session's per-instruction cost does not grow with its age. Latest() is
// therefore the remote object less the prefix every retained state shares;
// consumers read it by global index (UserStream.EventsSince / Size) before
// the next instruction arrives.
type Receiver[T State[T]] struct {
	states []recvState[T]

	// pristine is the agreed initial object (state number 0), kept for the
	// fresh-baseline fallback: a sender that lost its history (a restarted
	// sessiond) re-synchronizes by diffing from state 0, which both sides
	// can always reconstruct even after the numbered entry was retired
	// (SSP's "no diff-base is assumed across restart" rule). It is never
	// mutated and never recycled.
	pristine    T
	hasPristine bool

	// anyBase marks a receiver restored from a journal: diffs from unknown
	// source states may be applied through the ResumableState capability
	// (index-verified), which is how a surviving client's input stream
	// reaches a restarted server without either side rewinding.
	anyBase bool
}

// newReceiver builds a receiver whose state number 0 is initial. The
// receiver takes ownership of initial (it is retained as the pristine
// fallback source).
func newReceiver[T State[T]](initial T) *Receiver[T] {
	return &Receiver[T]{
		states:      []recvState[T]{{num: 0, state: initial.Clone()}},
		pristine:    initial,
		hasPristine: true,
	}
}

// newResumedReceiver builds a receiver restored from a journal: initial is
// installed as state number num (the newest state the dead process had
// received), and unknown-base application is enabled. There is no pristine
// state-0 fallback — a peer of a restored session never legitimately
// diffs from state 0, and the restored object is not state 0's contents.
func newResumedReceiver[T State[T]](initial T, num uint64) *Receiver[T] {
	return &Receiver[T]{
		states:  []recvState[T]{{num: num, state: initial.Clone()}},
		anyBase: true,
	}
}

// Latest returns the newest reconstructed remote state, less the prefix
// all retained states share (see Receiver). Callers must treat it as
// read-only and must not retain it across the next received instruction,
// which may subtract what was just read and recycles retired history
// (Clone before retaining).
func (r *Receiver[T]) Latest() T { return r.states[len(r.states)-1].state }

// LatestNum returns the newest remote state number.
func (r *Receiver[T]) LatestNum() uint64 { return r.states[len(r.states)-1].num }

// processInstruction applies one instruction. It returns true when a new
// remote state was created (which the caller must acknowledge). Unknown
// diff sources are not an error — the instruction is simply unusable and
// the sender will fast-forward us from an older base later.
func (r *Receiver[T]) processInstruction(inst *Instruction) (bool, error) {
	// Retire history the sender promises never to reference again, but
	// always keep the newest state. Retired snapshots are recycled: their
	// storage feeds the next reconstruction's Clone. Compacting in place
	// keeps the capacity, so appending the next state never reallocates.
	retired := 0
	for retired < len(r.states)-1 && r.states[retired].num < inst.ThrowawayNum {
		recycle(r.states[retired].state)
		retired++
	}
	r.states = slices.Delete(r.states, 0, retired)

	// Rationalize: drop the prefix every retained state shares. Newest
	// first, so the oldest is whole until it subtracts itself, last.
	oldest := r.states[0].state
	for i := len(r.states) - 1; i >= 0; i-- {
		r.states[i].state.Subtract(oldest)
	}

	if inst.NewNum <= r.LatestNum() {
		return false, nil // duplicate or superseded; idempotency by number
	}

	var source T
	found := false
	for i := range r.states {
		if r.states[i].num == inst.OldNum {
			source = r.states[i].state
			found = true
			break
		}
	}
	if !found && inst.OldNum == 0 && r.hasPristine {
		// Fresh-baseline resynchronization: the sender (a restarted
		// daemon) is diffing from the agreed initial state. Its NewNum is
		// reservation-floored above everything it ever sent, so the
		// NewNum <= LatestNum dedup above still rejects stale replays.
		source = r.pristine
		found = true
	}
	if !found {
		return r.applyUnknownBase(inst)
	}

	ns := source.Clone()
	if err := ns.Apply(inst.Diff); err != nil {
		recycle(ns)
		return false, fmt.Errorf("transport: applying diff %d→%d: %w", inst.OldNum, inst.NewNum, err)
	}
	r.addState(inst.NewNum, ns)
	return true, nil
}

// applyUnknownBase handles an instruction whose source state is not held:
// unusable in normal operation, but a journal-restored receiver applies it
// through the ResumableState capability when the diff is index-verified.
func (r *Receiver[T]) applyUnknownBase(inst *Instruction) (bool, error) {
	// A resend marker (NewNum == OldNum) or an empty diff carries no
	// verifiable content to rebuild a state from.
	if !r.anyBase || inst.NewNum == inst.OldNum || len(inst.Diff) == 0 {
		return false, nil
	}
	ns := r.Latest().Clone()
	rs, capable := any(ns).(ResumableState)
	if !capable {
		recycle(ns)
		return false, nil
	}
	// OldNum == ThrowawayNum proves the diff's source is the sender's
	// acknowledged baseline — state the dead process provably delivered —
	// which licenses jumping a gap; anything else may only overlap.
	acked := inst.OldNum == inst.ThrowawayNum && inst.OldNum != 0
	ok, err := rs.ApplyUnknownBase(inst.Diff, acked)
	if err != nil {
		recycle(ns)
		return false, fmt.Errorf("transport: applying resumed diff %d→%d: %w", inst.OldNum, inst.NewNum, err)
	}
	if !ok {
		recycle(ns)
		return false, nil
	}
	r.addState(inst.NewNum, ns)
	return true, nil
}

// addState records a newly reconstructed state, enforcing the history cap.
func (r *Receiver[T]) addState(num uint64, st T) {
	r.states = append(r.states, recvState[T]{num: num, state: st})
	if len(r.states) > maxReceivedStates {
		recycle(r.states[1].state)
		r.states = slices.Delete(r.states, 1, 2)
	}
}
