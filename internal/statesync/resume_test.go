package statesync

import (
	"testing"
)

// These tests pin the resumption semantics of the two state objects: the
// user stream's index-verified diffs (exactly-once delivery across a
// daemon restart) and the snapshot-pool behavior receiver-side recycling
// relies on.

func streamWith(n int) *UserStream {
	u := NewUserStream()
	for i := 0; i < n; i++ {
		u.PushBytes([]byte{byte('a' + i)})
	}
	return u
}

// TestUserStreamApplySkipsOverlap: a diff that overlaps events the
// receiver already holds applies only the tail — replays across a restart
// deliver each keystroke exactly once.
func TestUserStreamApplySkipsOverlap(t *testing.T) {
	full := streamWith(8)
	src := streamWith(3)
	diff := full.DiffFrom(src) // events 4..8

	dst := streamWith(5) // already holds 1..5
	if err := dst.Apply(diff); err != nil {
		t.Fatal(err)
	}
	if dst.Size() != 8 {
		t.Fatalf("size = %d, want 8", dst.Size())
	}
	evs := dst.EventsSince(5)
	if len(evs) != 3 || string(evs[0].Data) != "f" || string(evs[2].Data) != "h" {
		t.Fatalf("appended tail wrong: %+v", evs)
	}
	// Full replay of the same diff is a no-op.
	if err := dst.Apply(diff); err != nil {
		t.Fatal(err)
	}
	if dst.Size() != 8 {
		t.Fatalf("size after replay = %d, want 8", dst.Size())
	}
}

// TestUserStreamApplyRejectsGap: a regular Apply must refuse a diff that
// starts beyond the stream (a gap can only be bridged by the proven
// unknown-base path).
func TestUserStreamApplyRejectsGap(t *testing.T) {
	full := streamWith(8)
	src := streamWith(5)
	diff := full.DiffFrom(src) // starts at index 5

	dst := streamWith(3)
	if err := dst.Apply(diff); err == nil {
		t.Fatal("gap diff applied without error")
	}
}

// TestUserStreamApplyUnknownBase covers the journal-restored server's
// resynchronization cases.
func TestUserStreamApplyUnknownBase(t *testing.T) {
	full := streamWith(9)
	mkDiff := func(srcLen int) []byte { return full.DiffFrom(streamWith(srcLen)) }

	t.Run("overlap applies", func(t *testing.T) {
		dst := RestoreUserStream(6) // restored: 6 events delivered
		ok, err := dst.ApplyUnknownBase(mkDiff(4), false)
		if err != nil || !ok {
			t.Fatalf("ok=%v err=%v", ok, err)
		}
		if dst.Size() != 9 {
			t.Fatalf("size = %d, want 9", dst.Size())
		}
		evs := dst.EventsSince(6)
		if len(evs) != 3 || string(evs[0].Data) != "g" {
			t.Fatalf("tail wrong: %+v", evs)
		}
	})
	t.Run("acked gap jumps", func(t *testing.T) {
		// The journal is older than the client's acknowledged base: events
		// 4..6 were provably delivered by the dead process; jump them.
		dst := RestoreUserStream(3)
		ok, err := dst.ApplyUnknownBase(mkDiff(6), true)
		if err != nil || !ok {
			t.Fatalf("ok=%v err=%v", ok, err)
		}
		if dst.Size() != 9 {
			t.Fatalf("size = %d, want 9", dst.Size())
		}
		if evs := dst.EventsSince(0); len(evs) != 3 || string(evs[0].Data) != "g" {
			t.Fatalf("jump delivered wrong events: %+v", evs)
		}
	})
	t.Run("unacked gap is unusable", func(t *testing.T) {
		// An optimistically assumed (never acknowledged) base may cover
		// events the dead process never received; jumping would lose
		// keystrokes. Unusable — SSP falls back to the acked base.
		dst := RestoreUserStream(3)
		ok, err := dst.ApplyUnknownBase(mkDiff(6), false)
		if err != nil || ok {
			t.Fatalf("ok=%v err=%v, want unusable", ok, err)
		}
		if dst.Size() != 3 {
			t.Fatalf("unusable diff mutated the stream: size %d", dst.Size())
		}
	})
	t.Run("acked gap onto non-virgin stream jumps", func(t *testing.T) {
		// A delayed pre-crash replay already appended events up to 9; the
		// surviving client's acknowledged base sits at 15 (everything
		// below it was delivered by the dead incarnation, including our
		// 9). Refusing here would livelock the stream — the client has
		// subtracted everything below 15 and can never diff lower.
		dst := RestoreUserStream(3)
		if ok, err := dst.ApplyUnknownBase(mkDiff(3), true); err != nil || !ok {
			t.Fatalf("priming apply: ok=%v err=%v", ok, err)
		}
		big := streamWith(20)
		gapDiff := big.DiffFrom(streamWith(15))
		ok, err := dst.ApplyUnknownBase(gapDiff, true)
		if err != nil || !ok {
			t.Fatalf("acked non-virgin gap: ok=%v err=%v, want jump", ok, err)
		}
		if dst.Size() != 20 {
			t.Fatalf("size = %d, want 20", dst.Size())
		}
		if evs := dst.EventsSince(0); len(evs) != 5 || string(evs[0].Data) != "p" {
			t.Fatalf("jump delivered wrong events: %+v", evs)
		}
		// The unproven version of the same gap stays unusable.
		dst2 := RestoreUserStream(3)
		dst2.ApplyUnknownBase(mkDiff(3), true)
		if ok, _ := dst2.ApplyUnknownBase(gapDiff, false); ok {
			t.Fatal("unacked non-virgin gap applied")
		}
	})
}

// TestCompleteRecycleFeedsClone pins the pool identity the receiver-side
// Recycler wiring relies on: a recycled snapshot's shell is reused by the
// next Clone in the same family.
func TestCompleteRecycleFeedsClone(t *testing.T) {
	live := NewComplete(80, 24)
	snap := live.Clone()
	live.Terminal().Write([]byte("hello"))
	snap.Recycle()
	again := live.Clone()
	if again != snap {
		t.Fatal("recycled snapshot shell was not reused by the next Clone")
	}
	if !again.Equal(live) {
		t.Fatal("reused clone does not equal the live state")
	}
}
