package transport

import (
	"testing"
)

// These tests pin the receiver-side snapshot lifecycle that unlocks
// Recycler wiring on the receive path (ROADMAP item): the audit of
// Latest() found every in-repo caller reads it transiently within one
// event-loop turn, so retired history can be recycled — but the contract
// must hold exactly: retired states recycle exactly once, and the newest
// state (which Latest exposes) and the pristine state-0 fallback never do.

func mkInst(old, new, throwaway uint64, diff []byte) *Instruction {
	return &Instruction{
		OldNum:       old,
		NewNum:       new,
		ThrowawayNum: throwaway,
		Diff:         diff,
	}
}

func TestReceiverRecyclesRetiredStates(t *testing.T) {
	recycled := 0
	initial := &recycleState{logState: &logState{}, recycled: &recycled}
	r := newReceiver[*recycleState](initial)

	var got []byte
	if isNew, err := r.processInstruction(mkInst(0, 1, 0, []byte("a"))); err != nil || !isNew {
		t.Fatalf("state 1: isNew=%v err=%v", isNew, err)
	}
	got = consume(t, got, r.Latest().logState)
	if isNew, err := r.processInstruction(mkInst(1, 2, 1, []byte("b"))); err != nil || !isNew {
		t.Fatalf("state 2: isNew=%v err=%v", isNew, err)
	}
	got = consume(t, got, r.Latest().logState)
	// ThrowawayNum 1 retired state 0 — exactly one recycle.
	if recycled != 1 {
		t.Fatalf("recycled = %d after retiring state 0, want 1", recycled)
	}
	if string(got) != "ab" || r.Latest().Size() != 2 {
		t.Fatalf("consumed %q from a latest of size %d, want ab and 2", got, r.Latest().Size())
	}
	// Rationalized: state 1 (the oldest retained) was subtracted from both.
	if held := string(r.Latest().data); held != "b" {
		t.Fatalf("latest retains %q, want only the unshared suffix b", held)
	}

	// Replay is idempotent by number and recycles nothing further.
	if isNew, err := r.processInstruction(mkInst(1, 2, 1, []byte("b"))); err != nil || isNew {
		t.Fatalf("replay: isNew=%v err=%v", isNew, err)
	}
	// An unknown, non-zero base is unusable (not an error) outside resume
	// mode, and must not touch the history.
	if isNew, err := r.processInstruction(mkInst(7, 9, 1, []byte("zz"))); err != nil || isNew {
		t.Fatalf("unknown base: isNew=%v err=%v", isNew, err)
	}
	if recycled != 1 || len(r.states) != 2 {
		t.Fatalf("after noise: recycled=%d states=%d, want 1 and 2", recycled, len(r.states))
	}
	// The live states (1 and 2) and the pristine fallback are alive.
	if initial.dead {
		t.Fatal("pristine initial state was recycled")
	}
	for i := range r.states {
		if r.states[i].state.dead {
			t.Fatalf("retained state %d was recycled", r.states[i].num)
		}
	}
}

// TestReceiverPristineStateZeroFallback proves the fresh-baseline rule: a
// sender that lost its history (daemon restart) diffs from state 0 with a
// reservation-floored NewNum, and the receiver reconstructs from its
// pristine initial even though the numbered state 0 was retired long ago.
func TestReceiverPristineStateZeroFallback(t *testing.T) {
	recycled := 0
	initial := &recycleState{logState: &logState{}, recycled: &recycled}
	r := newReceiver[*recycleState](initial)

	// Normal history: 0→1→2→3, with state 0 retired by ThrowawayNum.
	r.processInstruction(mkInst(0, 1, 0, []byte("a")))
	r.processInstruction(mkInst(1, 2, 1, []byte("b")))
	r.processInstruction(mkInst(2, 3, 2, []byte("c")))

	// Restarted sender: full resync from state 0 at a floored number.
	isNew, err := r.processInstruction(mkInst(0, 1000, 3, []byte("abcd")))
	if err != nil || !isNew {
		t.Fatalf("fresh-baseline instruction: isNew=%v err=%v", isNew, err)
	}
	if got := string(r.Latest().data); got != "abcd" {
		t.Fatalf("latest after resync = %q, want abcd", got)
	}
	if r.LatestNum() != 1000 {
		t.Fatalf("latest num = %d, want 1000", r.LatestNum())
	}
	// A stale pre-restart replay (small NewNum) stays rejected.
	if isNew, err := r.processInstruction(mkInst(0, 1, 0, []byte("a"))); err != nil || isNew {
		t.Fatalf("stale replay: isNew=%v err=%v", isNew, err)
	}
	if initial.dead {
		t.Fatal("pristine initial state was recycled during resync")
	}
}

// TestResumedReceiverRequiresResumableState: in any-base mode, a state
// type without the ResumableState capability treats unknown bases as
// unusable (screens must never be rebuilt from the wrong base), and the
// scratch clone is recycled, not leaked.
func TestResumedReceiverRequiresResumableState(t *testing.T) {
	recycled := 0
	initial := &recycleState{logState: &logState{data: []byte("xyz")}, recycled: &recycled}
	r := newResumedReceiver[*recycleState](initial, 41)
	// The restored object was delivered by the dead incarnation: a consumer
	// resumes after it, as core.Server does from the journaled stream size.
	got := consume(t, nil, r.Latest().logState)

	if r.LatestNum() != 41 {
		t.Fatalf("restored latest num = %d, want 41", r.LatestNum())
	}
	isNew, err := r.processInstruction(mkInst(40, 42, 39, []byte("q")))
	if err != nil || isNew {
		t.Fatalf("unknown base on non-resumable type: isNew=%v err=%v", isNew, err)
	}
	if recycled != 1 {
		t.Fatalf("scratch clone recycles = %d, want 1", recycled)
	}
	if got = consume(t, got, r.Latest().logState); string(got) != "xyz" || r.Latest().Size() != 3 {
		t.Fatalf("latest mutated to %q (size %d) by unusable instruction", got, r.Latest().Size())
	}
}
