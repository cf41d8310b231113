package terminal

import "testing"

// blankArrayStaysBlank checks, when the calling test ends, the invariant
// born-shared blank rows rest on: nobody has written the process-wide blank
// array, so every cell of it is still the zero stored cell. A write that slipped
// past writableRow shows on every blank line of every screen in the
// process; this is where it fails by name.
func blankArrayStaysBlank(t testing.TB) {
	t.Helper()
	t.Cleanup(func() {
		p := blankCells.Load()
		if p == nil {
			return
		}
		for i, c := range *p {
			if c != (storedCell{}) {
				t.Fatalf("shared blank array written: cell %d of %d is %+v", i, len(*p), c)
			}
		}
	})
}

// aliasesBlankArray reports whether row i of f reads the shared blank array.
func aliasesBlankArray(f *Framebuffer, i int) bool {
	return &f.rows[i].cells[0] == &sharedBlankCells(f.W)[0]
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
		rowBytes = w * StoredCellBytes
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
