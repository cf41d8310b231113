package transport

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/simclock"
	"repro/internal/sspcrypto"
	"repro/internal/statesync"
)

// The scratch a frame is built or rebuilt in belongs to the call that builds
// it (see scratch): between calls an endpoint holds none, except the one a
// prepared frame's payload waits in. These tests hold the sender and the
// assembly to that, in bytes of heap where the promise is about memory.

// liveHeap reports the bytes still allocated after a full collection (which
// also empties the scratch pool).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC() // the second cycle frees what the first one's sweep finalized
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// screenRepaint is host output that rewrites every cell of a cols x rows
// screen with text unique to the round and the row: words of random
// letters, which deflate about as well as a real screen's text, where one
// line repeated across the screen would shrink its frame to one datagram.
func screenRepaint(round, cols, rows int) []byte {
	rng := rand.New(rand.NewSource(int64(round)))
	var b strings.Builder
	b.WriteString("\x1b[H")
	for y := 0; y < rows; y++ {
		line := []byte(fmt.Sprintf("round %d row %d", round, y))
		for len(line) < cols-1 {
			line = append(line, ' ')
			for n := 1 + rng.Intn(8); n > 0; n-- {
				line = append(line, byte('a'+rng.Intn(26)))
			}
		}
		b.Write(line[:cols-1])
		if y < rows-1 {
			b.WriteString("\r\n")
		}
	}
	return []byte(b.String())
}

// TestSentRepaintHoldsNoScratch: a 162x64 repaint is diffed, marshalled,
// deflated, split and sealed by the tick that sends it, and what the sender
// holds afterwards is the snapshot it keeps until the client acknowledges it
// — a shell sharing the live screen's rows — and nothing sized by the frame.
// The diff, instruction, payload and fragment buffers used to stay with the
// sender at the size of the largest frame it had sent, and the diff
// renderer's tables with the screen.
func TestSentRepaintHoldsNoScratch(t *testing.T) {
	const cols, rows = 162, 64
	clk := simclock.NewScheduler(t0)
	sent := 0
	tr, err := New(Config[*statesync.Complete, *statesync.UserStream]{
		Direction: sspcrypto.ToClient, Key: sspcrypto.Key{7}, Clock: clk,
		LocalInitial: statesync.NewComplete(cols, rows), RemoteInitial: statesync.NewUserStream(),
		Emit: func([]byte) { sent++ }, RecycleWire: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.Connection().SetRemoteAddr(netem.Addr{Host: 1, Port: 1})
	tr.CurrentState().Terminal().Write(screenRepaint(1, cols, rows))
	tr.TickChangedAt(clk.Now())
	pending := liveHeap() // the repainted screen, its frame not yet built
	clk.RunFor(time.Second)
	tr.Tick()
	if st := tr.Sender().Stats(); st.Instructions != 1 || st.DiffBytes < cols*rows || sent < 2 {
		t.Fatalf("want one full-screen frame of several datagrams: %d datagrams, %+v", sent, st)
	}
	held := liveHeap() - pending
	t.Logf("sending a %d-byte repaint left %d B on the heap", tr.Sender().Stats().DiffBytes, held)
	if tr.sender.frag.lent != nil {
		t.Fatal("the sender kept the scratch its frame was built in")
	}
	// The shell is a few KiB, and the runtime's own bookkeeping moves the
	// figure by a few more; any one buffer sized by this frame (its diff alone
	// is 14 KB) would not fit.
	if held > 16<<10 {
		t.Fatalf("a sent repaint left %d B on the heap, want <= 16 KiB: the snapshot's shell and nothing sized by the frame", held)
	}
}

// TestPreparedFrameHoldsOneScratch: a frame built during its collection
// interval keeps the one scratch its payload waits in — through the ticks
// before its deadline — and gives it back when it is sent or discarded. A
// Prepare with nothing to build borrows and returns.
func TestPreparedFrameHoldsOneScratch(t *testing.T) {
	prepared := func(t *testing.T) *prepRig {
		r := newPrepRig(t)
		if r.server.sender.frag.lent != nil {
			t.Fatal("an idle sender holds a scratch")
		}
		r.write("a", r.clk.Now())
		if r.server.sender.frag.lent != nil {
			t.Fatal("a tick that sent nothing kept a scratch")
		}
		r.prepare(time.Time{})
		sc := r.server.sender.frag.lent
		if sc == nil || !r.server.sender.frag.prepared || r.prepared != 1 {
			t.Fatalf("a prepared frame holds no scratch: %+v", r.stats())
		}
		r.clk.RunFor(time.Millisecond)
		r.server.Tick() // not yet due
		r.prepare(time.Time{})
		if r.server.sender.frag.lent != sc {
			t.Fatal("the prepared frame's scratch changed hands before its deadline")
		}
		return r
	}

	t.Run("until it is sent", func(t *testing.T) {
		r := prepared(t)
		r.serveDeadline()
		if st := r.stats(); st.PreparedSent != 1 || string(r.clientGot) != "a" {
			t.Fatalf("the prepared frame was not sent: client %q, %+v", r.clientGot, st)
		}
		if r.server.sender.frag.lent != nil {
			t.Fatal("the sender kept the scratch of a sent frame")
		}
	})

	t.Run("until it is discarded", func(t *testing.T) {
		r := prepared(t)
		r.write("b", r.clk.Now())
		if _, ok := r.server.Sender().PreparedState(); ok || r.server.sender.frag.lent != nil {
			t.Fatal("a discarded frame kept its scratch")
		}
		r.serveDeadline()
		if string(r.clientGot) != "ab" || r.server.sender.frag.lent != nil {
			t.Fatalf("client has %q; the sender holds scratch: %v", r.clientGot, r.server.sender.frag.lent != nil)
		}
	})

	t.Run("not when there is nothing to build", func(t *testing.T) {
		r := newPrepRig(t)
		if r.server.sender.prepare() || r.server.sender.frag.lent != nil {
			t.Fatal("an empty frame was built, or the scratch its diff was tried in kept")
		}
	})
}

// TestAssemblyRetainsNothingAfterLargeInstruction: an instruction of many
// fragments that inflates to 1 MiB is joined and inflated in a scratch
// borrowed when its last fragment arrives, and once it has been applied and
// released the assembly holds nothing. Kept per endpoint, the joined and
// inflated buffers parked up to 2 MiB in every session a client chose to
// send one large instruction to.
func TestAssemblyRetainsNothingAfterLargeInstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	diff := make([]byte, 1<<20-32)
	for i := range diff {
		diff[i] = 'a' + byte(rng.Intn(16)) // half a byte of entropy a byte: deflates to about 60 %
	}
	in := &Instruction{OldNum: 1, NewNum: 2, Diff: diff}
	var fr fragmenter
	var w seqWire
	frags := w.carry(t, fr.makeFragments(in, DefaultTiming().MTU))
	fr.release()
	if len(frags) < 100 || frags[0].contents[0] != encodingZlib {
		t.Fatalf("want a compressed instruction of many fragments, got %d", len(frags))
	}
	var a assembly
	before := liveHeap()
	var got *Instruction
	for _, f := range frags {
		inst, err := a.add(f)
		if err != nil {
			t.Fatal(err)
		}
		if inst != nil {
			got = inst
		}
	}
	if got == nil || !bytes.Equal(got.Diff, diff) {
		t.Fatal("the instruction did not reassemble")
	}
	a.release()
	held := liveHeap() - before
	t.Logf("after a %d-fragment instruction of %d B, the assembly holds %d B more heap", len(frags), len(diff), held)
	if a.lent != nil || held > 64<<10 {
		t.Fatalf("after a 1 MiB instruction the assembly holds %d B of heap (scratch lent: %v), want nothing", held, a.lent != nil)
	}
	runtime.KeepAlive(&a)   // what it holds is the measurement
	runtime.KeepAlive(diff) // both sides of the measurement hold the input
	runtime.KeepAlive(frags)
}
