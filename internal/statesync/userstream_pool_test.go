package statesync

import "testing"

// TestUserStreamSteadyStateAllocFree guards the sender-side cycle the
// transport runs per acknowledged keystroke — snapshot the stream, subtract
// the acknowledged prefix in place, recycle the snapshots it drops — at
// zero allocations once the free list is warm (PushBytes' copy of the
// caller's bytes is the one inherent allocation, and is outside it).
func TestUserStreamSteadyStateAllocFree(t *testing.T) {
	u := NewUserStream()
	for i := 0; i < 8; i++ {
		u.PushBytes([]byte{'a'})
	}
	cycle := func() {
		sent := u.Clone()    // addSentState
		base := sent.Clone() // processAcknowledgmentThrough's scratch
		u.Subtract(base)
		sent.Subtract(base)
		base.Recycle()
		sent.Recycle()
		u.PushResize(80, 24) // the next event, payload-free
	}
	cycle()
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("clone/subtract/recycle cycle = %.1f allocs, want 0", allocs)
	}
	if u.Size() != 8+202 || len(u.events) != 1 {
		t.Fatalf("stream at size %d retaining %d events, want 210 and 1", u.Size(), len(u.events))
	}
}

// TestUserStreamCloneSharesPayloadsSafely: clones share event payloads,
// which is sound only because nothing writes to a payload once pushed — not
// a later push, not Subtract's in-place compaction, not a recycled clone's
// reuse. The dropped tail is cleared so a subtracted stream pins nothing.
func TestUserStreamCloneSharesPayloadsSafely(t *testing.T) {
	u := NewUserStream()
	in := []byte("first")
	u.PushBytes(in)
	in[0] = 'X' // the caller's buffer is not the stream's
	u.PushBytes([]byte("second"))
	u.PushBytes([]byte("third"))

	a := u.Clone()
	b := u.Clone()
	b.Subtract(statesyncPrefix(u, 2)) // compacts b in place
	b.Recycle()
	c := u.Clone() // reuses b's storage
	c.PushBytes([]byte("fourth"))
	c.Subtract(statesyncPrefix(u, 1))

	for _, st := range []*UserStream{u, a} {
		evs := st.EventsSince(0)
		if len(evs) != 3 || string(evs[0].Data) != "first" || string(evs[1].Data) != "second" || string(evs[2].Data) != "third" {
			t.Fatalf("stream disturbed by a sibling's subtract/recycle: %q", evs)
		}
	}
	if evs := c.EventsSince(0); len(evs) != 3 || string(evs[0].Data) != "second" || string(evs[2].Data) != "fourth" {
		t.Fatalf("recycled clone holds %q", evs)
	}
	for _, ev := range c.events[len(c.events):cap(c.events)] {
		if ev.Data != nil {
			t.Fatalf("subtracted stream still pins %q beyond its length", ev.Data)
		}
	}
}

// statesyncPrefix returns a stream holding u's first n events.
func statesyncPrefix(u *UserStream, n int) *UserStream {
	return &UserStream{base: u.base, events: u.events[:n:n]}
}

// TestApplyDoesNotRetainDiff: the transport hands Apply a diff that lives
// in reused scratch (the assembly's reassembly and inflate buffers), which
// the next instruction overwrites. Both state objects must copy what they
// keep.
func TestApplyDoesNotRetainDiff(t *testing.T) {
	src := NewUserStream()
	src.PushBytes([]byte("keystrokes"))
	src.PushResize(100, 30)
	diff := src.DiffFrom(NewUserStream())
	got := NewUserStream()
	if err := got.Apply(diff); err != nil {
		t.Fatal(err)
	}
	for i := range diff {
		diff[i] = 0xff
	}
	if !got.Equal(src) {
		t.Fatalf("UserStream.Apply retained its diff buffer: %q", got.EventsSince(0))
	}

	screen := NewComplete(40, 5)
	screen.Terminal().Write([]byte("café \U0001F600 \x1b]0;title\x07wide 世界"))
	sdiff := screen.DiffFrom(NewComplete(40, 5))
	sgot := NewComplete(40, 5)
	if err := sgot.Apply(sdiff); err != nil {
		t.Fatal(err)
	}
	for i := range sdiff {
		sdiff[i] = 0xff
	}
	if !sgot.Equal(screen) {
		t.Fatal("Complete.Apply retained its diff buffer")
	}
	if sgot.Framebuffer().Title != screen.Framebuffer().Title {
		t.Fatalf("title %q after scribbling the diff, want %q", sgot.Framebuffer().Title, screen.Framebuffer().Title)
	}
}
