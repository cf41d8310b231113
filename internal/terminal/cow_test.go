package terminal

import (
	"fmt"
	"math/rand"
	"testing"
)

// oracleSnapshot is a brute-force deep copy of everything a Framebuffer
// renders: the property tests compare copy-on-write clones against it to
// prove snapshots never alias visible state.
type oracleSnapshot struct {
	w, h      int
	cells     [][]Cell
	ds        DrawState
	title     string
	bellCount uint64
	echoAck   uint64
}

func takeOracle(f *Framebuffer) *oracleSnapshot {
	o := &oracleSnapshot{w: f.W, h: f.H, ds: f.DS, title: f.Title, bellCount: f.BellCount, echoAck: f.EchoAck}
	o.ds.Tabs = append([]bool(nil), f.DS.Tabs...)
	o.cells = make([][]Cell, f.H)
	for r := 0; r < f.H; r++ {
		o.cells[r] = make([]Cell, f.W)
		for c := 0; c < f.W; c++ {
			o.cells[r][c] = f.Cell(r, c)
		}
	}
	return o
}

func (o *oracleSnapshot) verify(t *testing.T, f *Framebuffer, label string) {
	t.Helper()
	if f.W != o.w || f.H != o.h {
		t.Fatalf("%s: dimensions changed: %dx%d != %dx%d", label, f.W, f.H, o.w, o.h)
	}
	if f.Title != o.title || f.BellCount != o.bellCount || f.EchoAck != o.echoAck {
		t.Fatalf("%s: metadata changed", label)
	}
	if f.DS.CursorRow != o.ds.CursorRow || f.DS.CursorCol != o.ds.CursorCol || f.DS.Rend != o.ds.Rend {
		t.Fatalf("%s: draw state changed", label)
	}
	for r := 0; r < o.h; r++ {
		for c := 0; c < o.w; c++ {
			if f.Cell(r, c) != o.cells[r][c] {
				t.Fatalf("%s: cell (%d,%d) changed: %+v != %+v", label, r, c, f.Cell(r, c), o.cells[r][c])
			}
		}
	}
}

// randomOps drives the emulator with a mix of everything that mutates the
// grid: printing (ASCII, wide, combining), control characters, erases,
// scrolls, insert/delete, SGR, cursor motion and region changes.
func randomOps(rng *rand.Rand, emu *Emulator, n int) {
	fb := emu.Framebuffer()
	for i := 0; i < n; i++ {
		switch rng.Intn(14) {
		case 0, 1, 2, 3, 4:
			emu.WriteString(string(rune('a' + rng.Intn(26))))
		case 5:
			emu.WriteString("中") // wide
		case 6:
			emu.WriteString("é") // combining accent
		case 7:
			emu.WriteString("\r\n")
		case 8:
			emu.WriteString(fmt.Sprintf("\x1b[%d;%dH", rng.Intn(30)+1, rng.Intn(90)+1))
		case 9:
			emu.WriteString(fmt.Sprintf("\x1b[%dm", []int{0, 1, 4, 7, 31, 42}[rng.Intn(6)]))
		case 10:
			emu.WriteString([]string{"\x1b[K", "\x1b[1K", "\x1b[2K", "\x1b[J", "\x1b[2J"}[rng.Intn(5)])
		case 11:
			emu.WriteString(fmt.Sprintf("\x1b[%d%c", rng.Intn(3)+1, []byte("SLMP@T")[rng.Intn(6)]))
		case 12:
			emu.WriteString(fmt.Sprintf("\x1b[%d;%dr", rng.Intn(10)+1, rng.Intn(14)+11))
		case 13:
			setContents(fb, rng.Intn(fb.H), rng.Intn(fb.W), "Z")
		}
	}
}

// TestCloneIndependenceProperty proves the copy-on-write invariant: after
// Clone, arbitrary writes to either framebuffer are never visible through
// the other. Each side is checked against a brute-force deep-copy oracle
// taken at clone time.
func TestCloneIndependenceProperty(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		emu := NewEmulator(40, 12)
		randomOps(rng, emu, 200)

		snap := emu.Framebuffer().Clone()
		snapOracle := takeOracle(snap)

		// Mutate the live side; the snapshot must not move.
		randomOps(rng, emu, 200)
		snapOracle.verify(t, snap, fmt.Sprintf("seed %d: snapshot after live writes", seed))

		// Mutate the snapshot side (as the receiver does when applying a
		// diff to a cloned state); the live screen must not move either.
		liveOracle := takeOracle(emu.Framebuffer())
		snapEmu := NewEmulatorWithFramebuffer(snap)
		randomOps(rng, snapEmu, 200)
		liveOracle.verify(t, emu.Framebuffer(), fmt.Sprintf("seed %d: live after snapshot writes", seed))

		// Clone chains: clone of a clone stays independent too.
		chain := snap.Clone()
		chainOracle := takeOracle(chain)
		randomOps(rng, snapEmu, 100)
		chainOracle.verify(t, chain, fmt.Sprintf("seed %d: chained clone", seed))
	}
}

// TestCloneIndependenceBothWays pins the symmetric case with deterministic
// writes: mutations of the original and of the clone each leave the other
// bit-for-bit unchanged.
func TestCloneIndependenceBothWays(t *testing.T) {
	emu := NewEmulator(20, 6)
	emu.WriteString("hello\r\nworld\r\n\x1b[1;31mred")

	clone := emu.Framebuffer().Clone()
	origOracle := takeOracle(emu.Framebuffer())
	cloneOracle := takeOracle(clone)

	// Write through every public mutation surface of the clone.
	setContents(clone, 0, 0, "X")
	setContents(clone, 1, 0, "Y")
	clone.EraseInLine(2)
	clone.Scroll(1)
	origOracle.verify(t, emu.Framebuffer(), "original after clone writes")

	// And the original: the clone's remaining shared rows must not move.
	clone2 := emu.Framebuffer().Clone()
	clone2Oracle := takeOracle(clone2)
	emu.WriteString("\x1b[2;1Hoverwritten entirely")
	emu.Framebuffer().Scroll(2)
	setContents(emu.Framebuffer(), 3, 3, "Q")
	clone2Oracle.verify(t, clone2, "clone after original writes")
	_ = cloneOracle
}

// TestSnapshotDiffZeroAlloc is the regression guard for the zero-allocation
// diff pipeline: with a warm FrameWriter and a reused output buffer, the
// sender's steady-state paths perform no heap allocations.
func TestSnapshotDiffZeroAlloc(t *testing.T) {
	emu := NewEmulator(80, 24)
	for i := 0; i < 23; i++ {
		emu.WriteString(fmt.Sprintf("line %d with some text\r\n", i))
	}
	emu.WriteString("$ ")

	// Idle tick: comparing the live state against an identical snapshot.
	snap := emu.Framebuffer().Clone()
	if avg := testing.AllocsPerRun(100, func() {
		if !emu.Framebuffer().Equal(snap) {
			t.Fatal("states diverged")
		}
	}); avg != 0 {
		t.Errorf("idle-tick Equal allocates %v per run, want 0", avg)
	}

	// Steady-state diff: a changed screen rendered with reused scratch.
	prev := emu.Framebuffer().Clone()
	emu.WriteString("x")
	var fw FrameWriter
	var buf []byte
	buf = fw.AppendFrame(buf[:0], true, prev, emu.Framebuffer()) // warm the scratch
	if avg := testing.AllocsPerRun(100, func() {
		buf = fw.AppendFrame(buf[:0], true, prev, emu.Framebuffer())
	}); avg != 0 {
		t.Errorf("steady-state AppendFrame allocates %v per run, want 0", avg)
	}
	if len(buf) == 0 {
		t.Fatal("diff unexpectedly empty")
	}

	// Keystroke path: once the cursor row has been materialized after a
	// snapshot, further printing into it allocates nothing.
	emu.WriteString("y") // materialize
	keys := []byte("abcdefgh")
	i := 0
	if avg := testing.AllocsPerRun(100, func() {
		emu.Write(keys[i%len(keys) : i%len(keys)+1])
		i++
	}); avg != 0 {
		t.Errorf("keystroke print path allocates %v per run, want 0", avg)
	}

	// Full repaint with reused scratch is allocation-free as well.
	buf = fw.AppendFrame(buf[:0], false, nil, emu.Framebuffer())
	if avg := testing.AllocsPerRun(100, func() {
		buf = fw.AppendFrame(buf[:0], false, nil, emu.Framebuffer())
	}); avg != 0 {
		t.Errorf("full-repaint AppendFrame allocates %v per run, want 0", avg)
	}
}

// TestSnapshotCloneCheapAlloc bounds the copy-on-write snapshot cost: a
// clone plus the single-row materialization of the next keystroke stays
// within a handful of fixed-size allocations, independent of screen size.
func TestSnapshotCloneCheapAlloc(t *testing.T) {
	emu := NewEmulator(200, 60) // large screen: cost must not scale with it
	for i := 0; i < 59; i++ {
		emu.WriteString(fmt.Sprintf("wide screen line %d\r\n", i))
	}
	var sink *Framebuffer
	avg := testing.AllocsPerRun(100, func() {
		sink = emu.Framebuffer().Clone()
		emu.WriteString("k") // materializes exactly one row
	})
	if avg > 6 {
		t.Errorf("clone+keystroke tick allocates %v per run, want <= 6", avg)
	}
	_ = sink
}

// TestCloneIntoMatchesClone proves the storage-reusing clone is
// observationally identical to a fresh Clone, including copy-on-write
// independence afterwards.
func TestCloneIntoMatchesClone(t *testing.T) {
	emu := NewEmulator(30, 6)
	for i := 0; i < 12; i++ {
		emu.WriteString(fmt.Sprintf("pre line %d\r\n", i))
	}
	emu.WriteString("\x1b[1;31mcolored\x1b[0m prompt$ ")
	live := emu.Framebuffer()

	// A retired shell with matching dimensions (arbitrary stale content).
	shell := NewFramebuffer(30, 6)
	NewEmulatorWithFramebuffer(shell).WriteString("stale junk\r\nmore junk")

	got := live.CloneInto(shell)
	if got != shell {
		t.Fatal("CloneInto did not reuse the matching shell")
	}
	if !got.Equal(live) {
		t.Fatal("CloneInto result differs from live state")
	}

	// Independence both ways, exactly like Clone.
	oracle := takeOracle(got)
	emu.WriteString("\r\nnew live output after snapshot")
	oracle.verify(t, got, "CloneInto snapshot after live writes")

	// Dimension mismatch falls back to a fresh clone.
	small := NewFramebuffer(10, 3)
	got2 := live.CloneInto(small)
	if got2 == small {
		t.Fatal("CloneInto reused a mismatched shell")
	}
	if !got2.Equal(live) {
		t.Fatal("fallback clone differs from live state")
	}
}
