package statesync

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/terminal"
)

// TestSnapshotPoolReuse pins the recycle contract: a snapshot handed back
// through Recycle is reissued by the next Clone with its storage reused,
// and the reissued snapshot matches the live state exactly.
func TestSnapshotPoolReuse(t *testing.T) {
	live := NewComplete(40, 10)
	for i := 0; i < 30; i++ {
		live.Terminal().Write([]byte(fmt.Sprintf("line %d of session output\r\n", i)))
	}

	snap := live.Clone()
	if !snap.Equal(live) {
		t.Fatal("clone differs from live state")
	}
	live.Terminal().Write([]byte("more output\r\n"))
	snap.Recycle()

	snap2 := live.Clone()
	if snap2 != snap {
		t.Fatal("Clone did not reuse the recycled snapshot")
	}
	if !snap2.Equal(live) {
		t.Fatal("reissued snapshot differs from live state")
	}

	// Stale content from its previous life must be gone.
	if got := snap2.Framebuffer().Text(9); got != live.Framebuffer().Text(9) {
		t.Fatalf("reissued snapshot shows stale row: %q", got)
	}

	// A resize retires the shell gracefully: Clone falls back to fresh
	// storage instead of reusing mismatched dimensions.
	snap2.Recycle()
	live.Terminal().Resize(60, 20)
	snap3 := live.Clone()
	if fb := snap3.Framebuffer(); fb.W != 60 || fb.H != 20 {
		t.Fatalf("post-resize clone is %dx%d, want 60x20", fb.W, fb.H)
	}
	if !snap3.Equal(live) {
		t.Fatal("post-resize clone differs from live state")
	}
}

// TestSnapshotPoolBounded keeps Recycle from hoarding: beyond the pool cap
// the shells are simply dropped for the garbage collector.
func TestSnapshotPoolBounded(t *testing.T) {
	live := NewComplete(10, 4)
	var snaps []*Complete
	for i := 0; i < 10; i++ {
		snaps = append(snaps, live.Clone())
	}
	for _, s := range snaps {
		s.Recycle()
	}
	if n := len(live.pool.free); n > maxPooledSnapshots {
		t.Fatalf("pool holds %d shells, cap is %d", n, maxPooledSnapshots)
	}
}

// TestSteadyStateTickZeroAllocAfterScrollFlood is the end-to-end guard for
// the sender's per-tick snapshot path on a session that has scrolled
// through a long log: with the snapshot pool warm, clone + recycle costs
// nothing.
func TestSteadyStateTickZeroAllocAfterScrollFlood(t *testing.T) {
	live := NewComplete(80, 24)
	for i := 0; i < 1100; i++ {
		live.Terminal().Write([]byte(fmt.Sprintf("scrolled line %d\r\n", i)))
	}
	// Warm the pool the way the sender does: take snapshots, retire them.
	a, b := live.Clone(), live.Clone()
	a.Recycle()
	b.Recycle()
	prev := live.Clone()
	if avg := testing.AllocsPerRun(200, func() {
		next := live.Clone()
		prev.Recycle()
		prev = next
	}); avg != 0 {
		t.Errorf("steady-state pooled snapshot allocates %v per run, want 0", avg)
	}
}

// liveHeap reports the bytes still allocated after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // the second cycle frees what the first one's sweep finalized
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRetiredSnapshotPinsNothing holds a session to the screens SSP still
// needs: snapshots that were taken, outlived by a full repaint and then
// recycled must not keep the rows they shared alive from the free list. A
// full pool of shells that kept their rows would pin five screens here.
func TestRetiredSnapshotPinsNothing(t *testing.T) {
	const w, h = 162, 64
	repaint := func(c *Complete, round int) {
		c.Terminal().Write([]byte("\x1b[H"))
		for y := 0; y < h; y++ {
			line := fmt.Sprintf("round %d row %02d ", round, y)
			c.Terminal().Write([]byte(strings.Repeat(line, w/len(line)+1)[:w-1]))
			if y < h-1 {
				c.Terminal().Write([]byte("\r\n"))
			}
		}
	}
	before := liveHeap()
	live := NewComplete(w, h)
	repaint(live, 0)
	var snaps []*Complete
	for round := 1; round <= maxPooledSnapshots; round++ {
		snaps = append(snaps, live.Clone())
		repaint(live, round) // every row diverges from the snapshot's copy
	}
	for _, s := range snaps {
		s.Recycle()
	}
	if n := len(live.pool.free); n != maxPooledSnapshots {
		t.Fatalf("pool holds %d shells, want %d", n, maxPooledSnapshots)
	}
	clear(snaps)
	growth := int64(liveHeap() - before)
	screen := int64(w * h * terminal.StoredCellBytes)
	t.Logf("heap growth %d B = %.2f screens of %d B", growth, float64(growth)/float64(screen), screen)
	if growth > screen*5/4 {
		t.Fatalf("live heap grew %d B with %d retired snapshots pooled: %.2f screens, want <= 1.25",
			growth, maxPooledSnapshots, float64(growth)/float64(screen))
	}
	runtime.KeepAlive(live)
	if b := live.AccumulatePooledResident(terminal.ResidentSet{}); b != 0 {
		t.Fatalf("the pooled shells reference %d B of cells, want 0", b)
	}

	// The shells still do their job: the next clone reuses one.
	pooled := live.pool.free[len(live.pool.free)-1]
	if again := live.Clone(); again != pooled || !again.Equal(live) {
		t.Fatal("a released shell was not reused as an exact clone")
	}
}
