package transport

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/simclock"
)

// recycleState wraps logState and counts Recycle calls, so the tests can
// pin exactly when the sender releases snapshot ownership.
type recycleState struct {
	*logState
	recycled *int
	dead     bool
}

func (s *recycleState) Clone() *recycleState {
	return &recycleState{logState: s.logState.Clone(), recycled: s.recycled}
}
func (s *recycleState) Equal(o *recycleState) bool      { return s.logState.Equal(o.logState) }
func (s *recycleState) DiffFrom(o *recycleState) []byte { return s.logState.DiffFrom(o.logState) }
func (s *recycleState) Subtract(o *recycleState)        { s.logState.Subtract(o.logState) }
func (s *recycleState) Apply(diff []byte) error         { return s.logState.Apply(diff) }
func (s *recycleState) AppendDiff(buf []byte, o *recycleState) []byte {
	return s.logState.AppendDiff(buf, o.logState)
}
func (s *recycleState) Recycle() {
	if s.dead {
		panic("transport: snapshot recycled twice")
	}
	s.dead = true
	*s.recycled++
}

// TestSenderRecyclesRetiredSnapshots proves the snapshot-retention
// contract: every state the sender drops — acknowledged baselines, culled
// history entries, and the scratch clone acknowledgment processing makes —
// is recycled exactly once, and states still in the history never are.
func TestSenderRecyclesRetiredSnapshots(t *testing.T) {
	clk := simclock.NewScheduler(t0)
	recycled := 0
	live := &recycleState{logState: &logState{}, recycled: &recycled}
	s := newSender[*recycleState](nil, clk, DefaultTiming(), live)

	// Build history: states 1..5.
	for i := byte(0); i < 5; i++ {
		live.data = append(live.data, 'a'+i)
		s.addSentState(clk.Now(), uint64(i)+1)
		clk.RunFor(10 * time.Millisecond)
	}
	if got := s.SentStateCount(); got != 6 {
		t.Fatalf("history = %d states, want 6", got)
	}

	// Ack through state 3: states 0,1,2 retire, plus the Subtract scratch
	// clone — four recycles.
	s.processAcknowledgmentThrough(3)
	if recycled != 4 {
		t.Fatalf("recycled %d snapshots after ack, want 4 (3 retired + scratch)", recycled)
	}
	if got := s.SentStateCount(); got != 3 {
		t.Fatalf("history = %d states after ack, want 3", got)
	}

	// The surviving history must still be usable for diffs (nothing live
	// was recycled).
	for _, st := range s.sentStates {
		if st.state.dead {
			t.Fatalf("state %d recycled while still retained", st.num)
		}
	}
	if diff := live.DiffFrom(s.front().state); !bytes.Equal(diff, []byte("de")) {
		t.Fatalf("diff from baseline = %q, want %q", diff, "de")
	}

	// Overflow the history: the middle cull must recycle exactly one per
	// overflow.
	before := recycled
	num := uint64(6)
	for i := 0; i < maxSentStates; i++ {
		live.data = append(live.data, 'z')
		s.addSentState(clk.Now(), num)
		num++
		clk.RunFor(time.Millisecond)
	}
	overflowed := s.SentStateCount() // stays capped
	if overflowed > maxSentStates {
		t.Fatalf("history grew to %d, cap is %d", overflowed, maxSentStates)
	}
	culled := recycled - before
	if culled == 0 {
		t.Fatal("middle cull recycled nothing")
	}
	for _, st := range s.sentStates {
		if st.state.dead {
			t.Fatalf("state %d recycled while still retained after cull", st.num)
		}
	}
}

// TestCullNeverDropsAssumedReceiverState pins the OldNum-integrity rule:
// when the history cap forces a middle cull during addSentState, the
// assumed receiver state — the base the caller's diff was computed
// against — must survive with assumedIdx still naming it.
func TestCullNeverDropsAssumedReceiverState(t *testing.T) {
	clk := simclock.NewScheduler(t0)
	recycled := 0
	live := &recycleState{logState: &logState{}, recycled: &recycled}
	s := newSender[*recycleState](nil, clk, DefaultTiming(), live)

	num := uint64(1)
	for len(s.sentStates) < maxSentStates {
		live.data = append(live.data, 'q')
		s.addSentState(clk.Now(), num)
		num++
	}
	// Put the assumed receiver state exactly where the next cull strikes.
	mid := (len(s.sentStates) + 1) / 2
	s.assumedIdx = mid
	assumedNum := s.sentStates[mid].num

	live.data = append(live.data, 'q')
	s.addSentState(clk.Now(), num)

	if got := s.sentStates[s.assumedIdx].num; got != assumedNum {
		t.Fatalf("assumed state num = %d after cull, want %d", got, assumedNum)
	}
	if s.sentStates[s.assumedIdx].state.dead {
		t.Fatal("assumed receiver state was recycled by the cull")
	}
}
