package transport

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/statesync"
)

// TestReceiverRationalizationProperty model-checks the receiver in
// isolation over random drop/dup/reorder schedules. A model sender mints
// states k = truth[:size[k]], diffs each from some state it still holds,
// and advances ThrowawayNum to whatever the receiver last acknowledged;
// the "network" delivers its instructions in any order, any number of
// times, or never. After every step:
//
//   - every retained state still has its global Size and holds exactly the
//     matching suffix of the truth (rationalization drops a prefix, never
//     moves or alters a byte);
//   - every retained state reconstructs from every older retained one;
//   - a consumer reading by global offset sees each byte once, in order;
//   - what is retained is bounded by the unacknowledged window: nothing
//     below the newest ThrowawayNum seen, in any state — except a state
//     just rebuilt from the pristine state-0 fallback (a late 0→k
//     instruction), which the next instruction trims.
func TestReceiverRationalizationProperty(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		truth := seq(0, 8192) // more than 1500 steps can mint
		size := []int{0}      // size[k] = length of state k
		r := newReceiver[*logState](newLog())

		var inFlight []*Instruction
		var got []byte
		acked := uint64(0) // newest state the sender knows was received
		floor := uint64(0) // newest ThrowawayNum the receiver has seen
		for step := 0; step < 1500; step++ {
			switch rng.Intn(10) {
			case 0: // an ack reaches the sender
				acked = r.LatestNum()
			case 1, 2, 3, 4: // the sender mints a state and sends it
				size = append(size, size[len(size)-1]+1+rng.Intn(5))
				newNum := uint64(len(size) - 1)
				oldNum := acked // the known-received baseline, or an optimistic guess
				if rng.Intn(2) == 0 {
					oldNum += uint64(rng.Int63n(int64(newNum - acked)))
				}
				inFlight = append(inFlight, mkInst(oldNum, newNum, acked, truth[size[oldNum]:size[newNum]]))
			default: // the network delivers something: maybe again later, maybe never
				if len(inFlight) == 0 {
					continue
				}
				i := rng.Intn(len(inFlight))
				inst := inFlight[i]
				if rng.Intn(4) != 0 { // else: left in flight, a duplicate-to-be
					inFlight = append(inFlight[:i], inFlight[i+1:]...)
				}
				if rng.Intn(5) == 0 {
					continue // lost
				}
				isNew, err := r.processInstruction(inst)
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				got = consume(t, got, r.Latest())
				checkRetained(t, r, truth, size)
				floor = max(floor, inst.ThrowawayNum)
				oldest := r.states[0]
				if len(r.states) > 1 && oldest.num < floor {
					t.Fatalf("seed %d step %d: state %d retained below ThrowawayNum %d", seed, step, oldest.num, floor)
				}
				fromPristine := isNew && inst.OldNum == 0 && oldest.num != 0
				for i, st := range r.states {
					if window := size[st.num] - size[oldest.num]; len(st.state.data) > window &&
						!(fromPristine && i == len(r.states)-1) {
						t.Fatalf("seed %d step %d: state %d holds %d bytes, unacknowledged window is %d",
							seed, step, st.num, len(st.state.data), window)
					}
				}
			}
		}
		if !bytes.Equal(got, truth[:size[r.LatestNum()]]) {
			t.Fatalf("seed %d: consumed %d bytes, state %d is %d bytes", seed, len(got), r.LatestNum(), size[r.LatestNum()])
		}
		if r.LatestNum() < 50 {
			t.Fatalf("seed %d: schedule only reached state %d; the property was barely exercised", seed, r.LatestNum())
		}
	}
}

// checkRetained asserts every retained state against the truth and every
// (older, newer) retained pair against each other.
func checkRetained(t *testing.T, r *Receiver[*logState], truth []byte, size []int) {
	t.Helper()
	for i, st := range r.states {
		want := size[st.num]
		if st.state.Size() != want || !bytes.Equal(st.state.data, truth[st.state.base:want]) {
			t.Fatalf("state %d spans [%d,%d) = %q, want size %d", st.num, st.state.base, st.state.Size(), st.state.data, want)
		}
		for _, src := range r.states[:i] {
			ns := src.state.Clone()
			ns.Apply(truth[size[src.num]:want])
			from := max(ns.base, st.state.base)
			if ns.Size() != want || !bytes.Equal(ns.Since(from), st.state.Since(from)) {
				t.Fatalf("state %d does not reconstruct from retained state %d", st.num, src.num)
			}
		}
	}
}

// TestResumedReceiverAppliesAfterRationalization: a journal-restored
// (anyBase) receiver holds an empty, rationalized stream positioned at the
// persisted size. Diffs from source states it never held must still apply
// exactly once whether they overlap what it has, abut it, or — only when
// proven acknowledged — jump a gap.
func TestResumedReceiverAppliesAfterRationalization(t *testing.T) {
	// The surviving client typed 10 events; the dead server had received 6.
	client := statesync.NewUserStream()
	snap := []*statesync.UserStream{client.Clone()} // snap[k] = client state k
	for i := 0; i < 10; i++ {
		client.PushBytes(seq(i, 1))
		snap = append(snap, client.Clone())
	}
	r := newResumedReceiver[*statesync.UserStream](statesync.RestoreUserStream(6), 6)
	delivered := uint64(6)
	var got []byte
	step := func(old, new, throwaway uint64, wantNew bool) {
		t.Helper()
		isNew, err := r.processInstruction(mkInst(old, new, throwaway, snap[new].DiffFrom(snap[old])))
		if err != nil || isNew != wantNew {
			t.Fatalf("%d→%d: isNew=%v err=%v, want isNew=%v", old, new, isNew, err, wantNew)
		}
		for _, ev := range r.Latest().EventsSince(delivered) {
			got = append(got, ev.Data...)
		}
		delivered = r.Latest().Size()
	}
	step(4, 8, 3, true)     // overlaps: events 4,5 skipped, 6,7 applied
	step(8, 9, 4, true)     // source now held: the ordinary path
	step(3, 9, 3, false)    // stale number: idempotent
	step(5, 10, 5, true)    // unknown base again, overlapping everything but one
	step(10, 10, 10, false) // heartbeat retires the rest
	if string(got) != string(seq(6, 4)) {
		t.Fatalf("delivered %q, want %q exactly once", got, seq(6, 4))
	}
	if held := len(r.Latest().EventsSince(0)); held != 0 || r.Latest().Size() != 10 {
		t.Fatalf("fully acknowledged stream retains %d events at size %d", held, r.Latest().Size())
	}

	// An unproven gap is unusable; a proven one (OldNum == ThrowawayNum)
	// jumps, delivering only what lies beyond it.
	client.Subtract(snap[10])
	for i := 10; i < 14; i++ {
		client.PushBytes(seq(i, 1))
		snap = append(snap, client.Clone())
	}
	r = newResumedReceiver[*statesync.UserStream](statesync.RestoreUserStream(6), 6)
	delivered, got = 6, nil
	step(12, 13, 11, false)
	step(12, 14, 12, true)
	if string(got) != string(seq(12, 2)) || r.Latest().Size() != 14 {
		t.Fatalf("after the proven gap: delivered %q at size %d, want %q at 14", got, r.Latest().Size(), seq(12, 2))
	}
}
