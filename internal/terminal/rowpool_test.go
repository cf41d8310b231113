package terminal

import (
	"fmt"
	"testing"
)

// fillRow writes distinguishable junk into row i so reuse bugs surface as
// visible content.
func fillRow(f *Framebuffer, i int, tag byte) {
	c := Cell{Rend: mkRend(0, 0, AttrBold)}
	c.SetRune(rune('A' + tag%26))
	r := f.writableRow(i)
	r.fill(0, f.W, c)
	r.touch()
}

func TestScrollFloodAllocationFreeWithPooledRows(t *testing.T) {
	// Rows leaving the top are recycled into the rows a scroll vacates, so
	// a scroll flood allocates nothing.
	f := NewFramebuffer(80, 24)
	for i := 0; i < 4; i++ {
		f.Scroll(1)
	}
	allocs := testing.AllocsPerRun(200, func() {
		fillRow(f, 23, 7) // dirty the bottom line like a flood does
		f.Scroll(1)
	})
	if allocs > 0 {
		t.Fatalf("scroll flood allocates %.1f per line with pooling, want 0", allocs)
	}
}

// TestDefaultScrollFloodAllocFree drives the whole emulator, as a client
// applying a scrolling frame does: a fresh screen, configured no further,
// scrolls a steady flood of printed lines without allocating.
func TestDefaultScrollFloodAllocFree(t *testing.T) {
	emu := NewEmulator(80, 24)
	line := []byte("steady scroll line: object compiled without warnings\r\n")
	for i := 0; i < 2*emu.Framebuffer().H; i++ {
		emu.Write(line) // warm: every row written once, the free list stocked
	}
	allocs := testing.AllocsPerRun(500, func() {
		emu.Write(line)
	})
	if allocs != 0 {
		t.Fatalf("default scroll flood allocates %.2f per line, want 0", allocs)
	}
}

func TestRegionScrollReusesDiscardedRows(t *testing.T) {
	// A scroll inside a region (editors, pagers) discards the rows leaving
	// the region; vacated lines must reuse them without allocating.
	f := NewFramebuffer(80, 24)
	f.SetScrollingRegion(5, 18)
	for i := 5; i <= 18; i++ {
		fillRow(f, i, byte(i)) // a written row owns its cells
	}
	for i := 0; i < 4; i++ {
		f.Scroll(1)
	}
	allocs := testing.AllocsPerRun(200, func() {
		f.Scroll(1)
		f.Scroll(-1)
	})
	if allocs > 0 {
		t.Fatalf("region scroll allocates %.1f per scroll with pooling, want 0", allocs)
	}
	// Rows nobody wrote alias the shared blank array and own nothing a
	// scroll could reuse: each blank line brought in costs a row header.
	f = NewFramebuffer(80, 24)
	f.SetScrollingRegion(5, 18)
	allocs = testing.AllocsPerRun(200, func() {
		f.Scroll(1)
		f.Scroll(-1)
	})
	if allocs > 2 {
		t.Fatalf("scrolling blank rows allocates %.1f per pair of scrolls, want one row header each", allocs)
	}
}

func TestPooledRowsAreFullyReset(t *testing.T) {
	f := NewFramebuffer(20, 6)
	for i := 0; i < f.H; i++ {
		fillRow(f, i, byte(i))
	}
	f.DS.Rend = mkRend(0, Color(42), 0)
	f.Scroll(3) // discards 3 junk rows, vacates 3 lines from the pool
	f.Scroll(3) // vacated lines now certainly come from the pool
	want := newRow(f.W, mkRend(0, Color(42), 0))
	for i := 3; i < f.H; i++ {
		for c := 0; c < f.W; c++ {
			if got := f.Cell(i, c); got != want.get(c) {
				t.Fatalf("row %d cell %d = %+v, want blank bg=42", i, c, got)
			}
		}
	}
	// Generations must be fresh: no vacated row may claim equality-by-gen
	// with any other row.
	seen := map[uint64]int{}
	for i := 0; i < f.H; i++ {
		g := f.rows[i].gen
		if j, dup := seen[g]; dup {
			t.Fatalf("rows %d and %d share generation %d", j, i, g)
		}
		seen[g] = i
	}
}

func TestPoolingPreservesSnapshots(t *testing.T) {
	// Rows shared with a snapshot must never enter the pool: scrolling
	// after a Clone may not disturb what the snapshot renders.
	f := NewFramebuffer(40, 10)
	for i := 0; i < f.H; i++ {
		fillRow(f, i, byte(i))
	}
	snap := f.Clone()
	var want []string
	for i := 0; i < snap.H; i++ {
		want = append(want, snap.Text(i))
	}
	for round := 0; round < 30; round++ {
		fillRow(f, f.H-1, byte(round))
		f.Scroll(1)
		f.Scroll(-2)
		f.Scroll(1)
	}
	for i := 0; i < snap.H; i++ {
		if got := snap.Text(i); got != want[i] {
			t.Fatalf("snapshot row %d corrupted by pooled scrolls:\n got %q\nwant %q", i, got, want[i])
		}
	}
}

func TestPoolClearedOnResize(t *testing.T) {
	blankArrayStaysBlank(t)
	f := NewFramebuffer(30, 8)
	for i := 0; i < 6; i++ {
		f.Scroll(1) // stock the pool with 30-wide rows
	}
	f.Resize(50, 8)
	f.Scroll(2)
	for i := 0; i < f.H; i++ {
		if got := f.rows[i].width(); got != 50 {
			t.Fatalf("row %d has %d cells after resize, want 50", i, got)
		}
	}
}

func TestScrollContentMatchesUnpooledOracle(t *testing.T) {
	blankArrayStaysBlank(t)
	// Property check: a framebuffer whose pool keeps engaging must stay
	// Equal to a deep-copied oracle driven through identical operations.
	f := NewFramebuffer(25, 9)
	oracle := NewFramebuffer(25, 9)
	ops := []func(fb *Framebuffer, step int){
		func(fb *Framebuffer, step int) { fb.Scroll(1 + step%3) },
		func(fb *Framebuffer, step int) { fb.Scroll(-(1 + step%2)) },
		func(fb *Framebuffer, step int) { fillRow(fb, step%fb.H, byte(step)) },
		func(fb *Framebuffer, step int) { fb.SetScrollingRegion(step%3, fb.H-1-step%2) },
		func(fb *Framebuffer, step int) { fb.DS.Rend = mkRend(0, Color(step%5), 0) },
	}
	for step := 0; step < 500; step++ {
		op := ops[(step*7+step/11)%len(ops)]
		op(f, step)
		op(oracle, step)
		if step%50 == 0 {
			// Clone f occasionally so shared rows mix with pooled ones.
			_ = f.Clone()
		}
		if !f.Equal(oracle) {
			for i := 0; i < f.H; i++ {
				fmt.Printf("row %d: got %q want %q\n", i, f.Text(i), oracle.Text(i))
			}
			t.Fatalf("divergence from oracle at step %d", step)
		}
	}
}
