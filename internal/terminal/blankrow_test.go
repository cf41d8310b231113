package terminal

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// blankArrayStaysBlank checks, when the calling test ends, the invariant
// blank rows rest on: nobody has written the process-wide blank array, so
// every byte of that narrow content plane is still the zero (blank) cell. A
// write that slipped past writableRow or a Row store's ownText shows on
// every blank line of every screen in the process; this is where it fails
// by name.
func blankArrayStaysBlank(t testing.TB) {
	t.Helper()
	t.Cleanup(func() {
		p := blankText.Load()
		if p == nil {
			return
		}
		for i, c := range *p {
			if c != 0 {
				t.Fatalf("shared blank array written: cell %d of %d is %#x", i, len(*p), c)
			}
		}
	})
}

// aliasesBlankArray reports whether row i of f reads the shared blank array.
func aliasesBlankArray(f *Framebuffer, i int) bool {
	r := f.rows[i]
	return len(r.text) > 0 && &r.text[0] == &sharedBlankText(f.W)[0]
}

// TestBlankArrayNeverWritten drives every path that stores cells without
// the emulator in front of it — the ones that fill a fresh row directly
// were the two that scribbled on the array in the prototype (Resize,
// DecodeSnapshot) — over screens whose rows are still born-shared blanks.
func TestBlankArrayNeverWritten(t *testing.T) {
	bold := mkRend(PaletteColor(1), PaletteColor(4), AttrBold)
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"ResizeWider", func(t *testing.T) {
			f := NewFramebuffer(40, 6)
			fillRow(f, 2, 3)
			f.Resize(90, 9)
			fillRow(f, 0, 1) // was blank before the resize
			fillRow(f, 8, 2) // did not exist before it
			if !aliasesBlankArray(f, 7) {
				t.Fatal("a row the resize added owns cells before anything is written to it")
			}
		}},
		{"ResizeNarrower", func(t *testing.T) {
			f := NewFramebuffer(90, 9)
			fillRow(f, 2, 3)
			f.Resize(40, 4)
			fillRow(f, 0, 1)
		}},
		{"DecodeSnapshotThenWrite", func(t *testing.T) {
			e := NewEmulator(60, 8)
			e.WriteString("\x1b[1;44mtwo lines\r\nof colour\x1b[0m")
			enc := e.Framebuffer().AppendSnapshot(nil)
			f, _, err := DecodeSnapshot(enc)
			if err != nil {
				t.Fatal(err)
			}
			if !f.Equal(e.Framebuffer()) {
				t.Fatal("decoded screen differs")
			}
			back := NewEmulatorWithFramebuffer(f)
			back.WriteString("\x1b[5;1Hwritten after the restore\x1b[2K\x1b[7;3H\x1b[4@x")
		}},
		{"ApplyRowSnapshot", func(t *testing.T) {
			src := NewFramebuffer(50, 5)
			fillRow(src, 1, 9)
			enc := src.AppendRowSnapshot(nil, 1)
			f := NewFramebuffer(50, 5)
			if _, err := f.ApplyRowSnapshot(enc, 3); err != nil {
				t.Fatal(err)
			}
			if f.Text(3) != src.Text(1) || aliasesBlankArray(f, 3) {
				t.Fatal("applied row is not a private copy of the encoded one")
			}
			// A blank row decodes to private cells as well, never into the array.
			if _, err := f.ApplyRowSnapshot(src.AppendRowSnapshot(nil, 0), 4); err != nil {
				t.Fatal(err)
			}
			fillRow(f, 4, 2)
		}},
		{"EraseInLine", func(t *testing.T) {
			f := NewFramebuffer(30, 4)
			f.DS.Rend = bold
			f.MoveCursor(1, 7)
			for mode := 0; mode <= 2; mode++ {
				f.EraseInLine(mode)
			}
			f.MoveCursor(2, 0)
			f.EraseInDisplay(0)
			if aliasesBlankArray(f, 1) || aliasesBlankArray(f, 3) {
				t.Fatal("a row erased to a coloured background still reads the blank array")
			}
		}},
		{"InsertDeleteCells", func(t *testing.T) {
			f := NewFramebuffer(30, 4)
			f.DS.Rend = bold
			f.MoveCursor(0, 5)
			f.InsertCells(3)
			f.MoveCursor(1, 5)
			f.DeleteCells(3)
			f.MoveCursor(2, 0)
			f.InsertLines(1)
			f.DeleteLines(1)
		}},
		{"TwoWidthsAlive", func(t *testing.T) {
			narrow, wide := NewEmulator(20, 3), NewEmulator(200, 3)
			narrow.WriteString("\x1b[41mnarrow\x1b[K\r\n\x1b#8")
			wide.WriteString("\x1b[42mwide\x1b[K\r\n\n\n\nscrolled")
			for i := 0; i < 3; i++ {
				if aliasesBlankArray(narrow.Framebuffer(), i) {
					t.Fatalf("DECALN left narrow row %d on the blank array", i)
				}
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			blankArrayStaysBlank(t)
			c.run(t)
		})
	}
}

// TestBlankRowsShareOneArray pins that the sharing is real: a fleet of
// fresh screens holds one blank array between them, and a session costs
// cells only for the lines it has written.
func TestBlankRowsShareOneArray(t *testing.T) {
	blankArrayStaysBlank(t)
	const (
		n        = 50
		w, h     = 80, 24
		rowBytes = w * NarrowCellBytes
	)
	emus := make([]*Emulator, n)
	seen := ResidentSet{}
	total := 0
	for i := range emus {
		emus[i] = NewEmulator(w, h)
		total += emus[i].Framebuffer().AccumulateResident(seen)
	}
	if total != rowBytes {
		t.Fatalf("%d fresh %dx%d screens hold %d bytes of cells, want the one blank row's %d", n, w, h, total, rowBytes)
	}
	// One typed line is one private row; the other 23 stay on the array. A
	// snapshot of the screen shares that row and adds nothing.
	emus[0].WriteString("ls -l")
	fb := emus[0].Framebuffer()
	snap := fb.Clone()
	seen = ResidentSet{}
	if got := fb.AccumulateResident(seen) + snap.AccumulateResident(seen); got != 2*rowBytes {
		t.Fatalf("a session that typed one line holds %d bytes, want %d (its row and the blank array)", got, 2*rowBytes)
	}
	for i := 1; i < h; i++ {
		if !aliasesBlankArray(fb, i) {
			t.Fatalf("row %d owns cells though nothing was written to it", i)
		}
	}
	// A line brought in by a scroll with the default background is born
	// the same way; with a colour it needs cells of its own.
	emus[0].WriteString("\x1b[24;1H\n")
	if !aliasesBlankArray(fb, h-1) {
		t.Fatal("a default-background line scrolled in owns cells")
	}
	emus[0].WriteString("\x1b[44m\n")
	if aliasesBlankArray(fb, h-1) {
		t.Fatal("a coloured line scrolled in reads the blank array")
	}
}

// TestErasedRowsShareOneArray pins that an erase gives cells back: every
// erase form that blanks a whole row to the default background points the
// row at the shared blank array, over rows a snapshot shares and rows the
// screen owns alike, while a partial erase or one to a coloured background
// keeps cells of its own. So a repaint's ED 2 costs a session nothing but
// the lines it then prints.
func TestErasedRowsShareOneArray(t *testing.T) {
	blankArrayStaysBlank(t)
	const w, h = 20, 5
	cases := []struct {
		name, seq string
		whole     []int // rows erased whole; the others keep their own cells
	}{
		{"ED2", "\x1b[3;5H\x1b[2J", []int{0, 1, 2, 3, 4}},
		{"ED2ForegroundOnly", "\x1b[31;1m\x1b[2J", []int{0, 1, 2, 3, 4}},
		{"ED0FromColumn0", "\x1b[3;1H\x1b[J", []int{2, 3, 4}},
		{"ED0MidRow", "\x1b[3;5H\x1b[J", []int{3, 4}},
		{"ED1MidRow", "\x1b[3;5H\x1b[1J", []int{0, 1}},
		{"ED1LastColumn", "\x1b[3;20H\x1b[1J", []int{0, 1, 2}},
		{"EL2", "\x1b[2;7H\x1b[2K", []int{1}},
		{"EL0FromColumn0", "\x1b[2;1H\x1b[K", []int{1}},
		{"EL0MidRow", "\x1b[2;7H\x1b[K", nil},
		{"EL1LastColumn", "\x1b[2;20H\x1b[1K", []int{1}},
		{"EL1MidRow", "\x1b[2;7H\x1b[1K", nil},
		{"ECHAcrossRow", "\x1b[2;1H\x1b[20X\x1b[4;1H\x1b[99X", []int{1, 3}},
		{"ECHPartial", "\x1b[2;2H\x1b[19X", nil},
		{"ED2Blue", "\x1b[44m\x1b[2J", nil},
		{"EL2Blue", "\x1b[44m\x1b[2;1H\x1b[2K", nil},
	}
	for _, c := range cases {
		for _, snapshotted := range []bool{true, false} {
			name := c.name + "/private"
			if snapshotted {
				name = c.name + "/snapshotted"
			}
			t.Run(name, func(t *testing.T) {
				e := NewEmulator(w, h)
				for y := 0; y < h; y++ {
					e.WriteString(fmt.Sprintf("\x1b[%d;1H%s", y+1, strings.Repeat(string(rune('a'+y)), w)))
				}
				fb := e.Framebuffer()
				var snap *Framebuffer
				if snapshotted {
					snap = fb.Clone()
				}
				e.WriteString(c.seq)
				for y := 0; y < h; y++ {
					whole := slices.Contains(c.whole, y)
					if got := aliasesBlankArray(fb, y); got != whole {
						t.Errorf("row %d aliases the blank array: %v, want %v", y, got, whole)
					}
					if whole {
						for x := 0; x < w; x++ {
							if fb.Cell(y, x) != (Cell{}) {
								t.Fatalf("erased row %d cell %d is %+v", y, x, fb.Cell(y, x))
							}
						}
					}
					if snap != nil && snap.Text(y) != strings.Repeat(string(rune('a'+y)), w) {
						t.Fatalf("the erase reached the snapshot's row %d: %q", y, snap.Text(y))
					}
				}
			})
		}
	}

	t.Run("BlankRowKeepsItsGeneration", func(t *testing.T) {
		f := NewFramebuffer(w, h)
		gens := make([]uint64, h)
		for y := range gens {
			gens[y] = f.RowGen(y)
		}
		f.EraseInDisplay(2)
		for y, g := range gens {
			if f.RowGen(y) != g {
				t.Fatalf("erasing blank row %d moved its generation", y)
			}
		}
	})

	t.Run("ClearedScreenResident", func(t *testing.T) {
		const w, h = 80, 24
		e := NewEmulator(w, h)
		for y := 0; y < h; y++ {
			e.WriteString(fmt.Sprintf("\x1b[%d;1H%s", y+1, strings.Repeat("x", w)))
		}
		snap := e.Framebuffer().Clone()
		e.WriteString("\x1b[H\x1b[2J")
		row := w * NarrowCellBytes
		seen := ResidentSet{}
		if got := e.Framebuffer().AccumulateResident(seen); got != row {
			t.Fatalf("a cleared %dx%d screen holds %d B, want the blank array's %d", w, h, got, row)
		}
		// The snapshot it was cleared from still holds its 24 printed rows.
		if got := snap.AccumulateResident(seen); got != h*row {
			t.Fatalf("the snapshot adds %d B, want %d", got, h*row)
		}
	})

	if raceEnabled {
		t.Log("alloc guards skipped under -race")
		return
	}
	const aw, ah, runs = 80, 24, 20
	t.Run("BlankScreenAllocatesNothing", func(t *testing.T) {
		f := NewFramebuffer(aw, ah)
		if avg := testing.AllocsPerRun(runs, func() { f.EraseInDisplay(2) }); avg != 0 {
			t.Fatalf("ED 2 over a blank screen allocates %v times, want 0", avg)
		}
	})
	// printed returns runs+1 fully printed screens (AllocsPerRun makes one
	// warm-up call), each snapshotted or not.
	printed := func(snapshotted bool) (screens, snaps []*Framebuffer) {
		for i := 0; i <= runs; i++ {
			e := NewEmulator(aw, ah)
			for y := 0; y < ah; y++ {
				e.WriteString(fmt.Sprintf("\x1b[%d;1H%s", y+1, strings.Repeat("x", aw)))
			}
			screens = append(screens, e.Framebuffer())
			if snapshotted {
				snaps = append(snaps, e.Framebuffer().Clone())
			}
		}
		return screens, snaps
	}
	t.Run("SnapshottedScreenAllocatesHeaders", func(t *testing.T) {
		screens, snaps := printed(true)
		i := 0
		avg := testing.AllocsPerRun(runs, func() { screens[i].EraseInDisplay(2); i++ })
		if avg > ah {
			t.Fatalf("ED 2 over a snapshotted %d-row screen allocates %v times, want at most one row header a row", ah, avg)
		}
		runtime.KeepAlive(snaps)
	})
	t.Run("PrivateScreenReusesHeaders", func(t *testing.T) {
		screens, _ := printed(false)
		i := 0
		if avg := testing.AllocsPerRun(runs, func() { screens[i].EraseInDisplay(2); i++ }); avg != 0 {
			t.Fatalf("ED 2 over a screen whose rows are private allocates %v times, want 0", avg)
		}
	})
}
