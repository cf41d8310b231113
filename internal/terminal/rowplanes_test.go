package terminal

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// rowLayout is what a row's planes look like from outside: which content
// plane it has and whether it has a rendition-index plane.
type rowLayout struct{ wide, rends bool }

func layoutOf(r *Row) rowLayout { return rowLayout{r.wide != nil, r.rends != nil} }

// narrower reports whether a lost a plane width b had.
func (a rowLayout) narrower(b rowLayout) bool { return b.wide && !a.wide || b.rends && !a.rends }

// planeModel is the reference the layout-transition test holds a screen to:
// every cell as a plain Cell, only a row's last cell carrying the soft-wrap
// flag.
type planeModel [][]Cell

func newPlaneModel(w, h int) planeModel {
	m := make(planeModel, h)
	for i := range m {
		m[i] = make([]Cell, w)
	}
	return m
}

func (m planeModel) clone() planeModel {
	c := make(planeModel, len(m))
	for i := range m {
		c[i] = slices.Clone(m[i])
	}
	return c
}

// dropInnerWraps clears the soft-wrap flag of every cell but each row's last.
func (m planeModel) dropInnerWraps() {
	for _, row := range m {
		for x := 0; x < len(row)-1; x++ {
			row[x].content &^= wrapBit
		}
	}
}

// normalize is normalizeWideRange on the model.
func (m planeModel) normalize(y, from, to int) {
	row := m[y]
	w := len(row)
	for col := max(from, 0); col < min(to, w); col++ {
		if !row[col].Wide() {
			continue
		}
		bg := row[col].Rend.background()
		if col == w-1 {
			row[col] = Cell{Rend: bg}
			continue
		}
		row[col+1] = Cell{content: row[col+1].content & wrapBit, Rend: bg}
		col++
	}
}

// erase is eraseCells on the model.
func (m planeModel) erase(y, from, to int, rend Renditions) {
	row := m[y]
	from, to = clamp(from, 0, len(row)), clamp(to, 0, len(row))
	if from >= to {
		return
	}
	for x := from; x < to; x++ {
		row[x] = Cell{Rend: rend.background()}
	}
	m.normalize(y, from-1, to+1)
}

// equal is Framebuffer.Equal's cell comparison on two models.
func (m planeModel) equal(o planeModel) bool {
	for y := range m {
		for x := range m[y] {
			if !m[y][x].Equal(o[y][x]) {
				return false
			}
		}
	}
	return true
}

// randomCell draws a cell from every kind a row stores: blanks, ASCII,
// Latin-1, wide CJK and emoji, combining clusters, in the default
// rendition, a palette colour or truecolour, sometimes soft-wrapped.
func randomCell(rng *rand.Rand) Cell {
	var c Cell
	switch rng.Intn(8) {
	case 0:
	case 1:
		c.SetRune(' ')
	case 2, 3:
		c.SetRune(rune('!' + rng.Intn(94)))
	case 4:
		c.SetRune(rune(0xa0 + rng.Intn(0x60)))
	case 5:
		c.SetRune(rune(0x4e00 + rng.Intn(0x100)))
		c.SetWide(true)
	case 6:
		c.SetContents(string(rune('a'+rng.Intn(26))) + "\u0301")
	case 7:
		c.SetRune(rune(0x1f600 + rng.Intn(0x40)))
		c.SetWide(true)
	}
	if rng.Intn(10) == 0 {
		c.setWrap()
	}
	c.Rend = randomRend(rng)
	return c
}

func randomRend(rng *rand.Rand) Renditions {
	switch rng.Intn(6) {
	case 0:
		return mkRend(PaletteColor(uint8(rng.Intn(256))), 0, 0)
	case 1:
		return mkRend(0, PaletteColor(uint8(rng.Intn(8))), AttrBold)
	case 2:
		return mkRend(RGBColor(uint8(rng.Intn(256)), uint8(rng.Intn(256)), 7), RGBColor(1, 2, uint8(rng.Intn(4))), 0)
	}
	return SGRReset
}

// TestRowLayoutTransitions drives seeded random writes of every kind of
// cell, every erase form, ICH and DCH, scrolls, resizes and soft wraps into
// a small screen at several widths, and after each step holds it to a
// plain []Cell model: every Row.get equals the model's cell; Equal and
// Identical against the step's own clone and every earlier snapshot agree
// with the models; a screen rebuilt from the model is Equal. Snapshots keep
// what they held (copy-on-write shares planes as it shares rows), no row
// narrows a plane except by an erase that returns it to the blank array,
// and the blank array stays blank.
func TestRowLayoutTransitions(t *testing.T) {
	blankArrayStaysBlank(t)
	const h, steps = 3, 400
	for _, w := range []int{1, 2, 3, 8, 80, 133} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("w%d/seed%d", w, seed), func(t *testing.T) {
				checkLayoutTransitions(t, rand.New(rand.NewSource(seed*1000+int64(w))), w, h, steps)
			})
		}
	}
}

type planeSnapshot struct {
	fb    *Framebuffer
	model planeModel
}

func checkLayoutTransitions(t *testing.T, rng *rand.Rand, w, h, steps int) {
	t.Helper()
	f := NewFramebuffer(w, h)
	m := newPlaneModel(w, h)
	layouts := map[*Row]rowLayout{}
	var snaps []planeSnapshot
	for step := 0; step < steps; step++ {
		y := rng.Intn(h)
		erasedWhole := map[*Row]bool{}
		var op string
		switch k := rng.Intn(12); k {
		case 0, 1, 2:
			op = "SetCell"
			x := rng.Intn(w)
			c := randomCell(rng)
			f.SetCell(y, x, c)
			m[y][x] = c
		case 3:
			op = "putASCII"
			col := rng.Intn(w)
			run := make([]byte, 1+rng.Intn(w-col))
			for i := range run {
				run[i] = byte('!' + rng.Intn(94))
			}
			rend := randomRend(rng)
			r := f.writableRow(y)
			r.putASCII(col, run, rend)
			r.touch()
			for i, b := range run {
				m[y][col+i] = Cell{content: uint32(b), Rend: rend}
			}
		case 4:
			op = "combine"
			x := rng.Intn(w)
			c := f.Cell(y, x)
			if c.ContentsEmpty() {
				break
			}
			c.setGlyph(graphemes.appendRune(c.glyph(), 0x0308))
			r := f.writableRow(y)
			r.setContent(x, c.content)
			r.touch()
			m[y][x].content = c.content
		case 5, 6:
			// EL 0/1/2 and ECH at a random column; on the last row ED 0/1
			// reach no other row.
			mode := rng.Intn(4)
			op = fmt.Sprintf("erase mode %d", mode)
			f.DS.Rend = randomRend(rng)
			if rng.Intn(2) == 0 {
				f.DS.Rend = mkRend(PaletteColor(3), 0, AttrInverse) // a foreground only: the row still erases to the default background
			}
			col := rng.Intn(w)
			f.MoveCursor(y, col)
			from, to := col, w
			switch mode {
			case 1:
				from, to = 0, col+1
			case 2:
				from, to = 0, w
			case 3:
				to = col + rng.Intn(w+1)
			}
			whole := from == 0 && to >= w && f.DS.Rend.bg == 0
			if whole {
				erasedWhole[f.rows[y]] = true
			}
			if mode == 3 {
				f.eraseCells(y, from, to)
			} else {
				f.EraseInLine(mode)
			}
			m.erase(y, from, to, f.DS.Rend)
		case 7:
			n := 1 + rng.Intn(w)
			insert := rng.Intn(2) == 0
			op = fmt.Sprintf("ICH/DCH %d insert=%v", n, insert)
			f.DS.Rend = randomRend(rng)
			col := rng.Intn(w)
			f.MoveCursor(y, col)
			row := m[y]
			n = min(n, w-col)
			bg := Cell{Rend: f.DS.Rend.background()}
			if insert {
				f.InsertCells(n)
				copy(row[col+n:], slices.Clone(row[col:w-n]))
				for x := col; x < col+n; x++ {
					row[x] = bg
				}
			} else {
				f.DeleteCells(n)
				copy(row[col:], slices.Clone(row[col+n:]))
				for x := w - n; x < w; x++ {
					row[x] = bg
				}
			}
			m.dropInnerWraps()
			m.normalize(y, 0, w)
		case 8:
			n := 1 + rng.Intn(h)
			if rng.Intn(2) == 0 {
				n = -n
			}
			op = fmt.Sprintf("scroll %d", n)
			f.DS.Rend = randomRend(rng)
			f.Scroll(n)
			bg := Cell{Rend: f.DS.Rend.background()}
			fresh := func() []Cell {
				r := make([]Cell, w)
				for x := range r {
					r[x] = bg
				}
				return r
			}
			k := min(abs(n), h)
			if n > 0 {
				m = append(m[k:], make(planeModel, k)...)
				for i := h - k; i < h; i++ {
					m[i] = fresh()
				}
			} else {
				m = append(make(planeModel, k), m[:h-k]...)
				for i := 0; i < k; i++ {
					m[i] = fresh()
				}
			}
		case 9:
			nw := []int{1, 2, 3, 8, 80, 133}[rng.Intn(6)]
			op = fmt.Sprintf("resize %d→%d", w, nw)
			if nw == w {
				break // Resize leaves an unchanged size alone
			}
			f.Resize(nw, h)
			nm := newPlaneModel(nw, h)
			for yy := range nm {
				n := copy(nm[yy], m[yy])
				if n == nw && nm[yy][n-1].Wide() {
					nm[yy][n-1] = Cell{}
				}
			}
			m, w = nm, nw
			// Resize copies into fresh rows, which no earlier row can
			// narrow into.
		case 10:
			op = "soft wrap"
			c := randomCell(rng)
			c.setWrap()
			f.SetCell(y, w-1, c)
			m[y][w-1] = c
		case 11:
			op = "snapshot"
			snaps = append(snaps, planeSnapshot{f.Clone(), m.clone()})
			if len(snaps) > 4 {
				snaps = snaps[1:]
			}
		}
		f.DS.Rend = SGRReset
		f.MoveCursor(0, 0)
		m.dropInnerWraps()

		for yy, r := range f.rows {
			for x := 0; x < w; x++ {
				if got := r.get(x); got != m[yy][x] {
					t.Fatalf("step %d (%s): cell (%d,%d) reads %+v, the model holds %+v", step, op, yy, x, got, m[yy][x])
				}
			}
			checkPalette(t, r)
			if r.blank != aliasesBlankArray(f, yy) {
				t.Fatalf("step %d (%s): row %d's blank flag is %v, its plane says otherwise", step, op, yy, r.blank)
			}
			if r.blank && (r.wide != nil || r.rends != nil || len(r.pal) > 0) {
				t.Fatalf("step %d (%s): row %d is on the blank array with planes %+v", step, op, yy, layoutOf(r))
			}
		}
		// No row narrows a plane but by an erase that returns it whole to
		// the blank array.
		for _, r := range f.rows {
			before, seen := layouts[r]
			now := layoutOf(r)
			if seen && now.narrower(before) && !(erasedWhole[r] && r.blank) {
				t.Fatalf("step %d (%s): a row narrowed from %+v to %+v", step, op, before, now)
			}
			layouts[r] = now
		}

		clone := f.Clone()
		if !f.Identical(clone) || !f.Equal(clone) {
			t.Fatalf("step %d (%s): the screen is not Identical to its own clone", step, op)
		}
		for i, s := range snaps {
			for yy := range s.model {
				for x := range s.model[yy] {
					if got := s.fb.Cell(yy, x); got != s.model[yy][x] {
						t.Fatalf("step %d (%s): snapshot %d cell (%d,%d) changed to %+v from %+v", step, op, i, yy, x, got, s.model[yy][x])
					}
				}
			}
			want := s.fb.W == f.W && m.equal(s.model)
			if got := f.Equal(s.fb); got != want {
				t.Fatalf("step %d (%s): Equal against snapshot %d is %v, the models say %v", step, op, i, got, want)
			}
			if f.Identical(s.fb) && !want {
				t.Fatalf("step %d (%s): Identical to snapshot %d, whose model differs", step, op, i)
			}
		}
		rebuilt := NewFramebuffer(w, h)
		for yy := range m {
			for x, c := range m[yy] {
				rebuilt.SetCell(yy, x, c)
			}
		}
		if !rebuilt.Equal(f) || !f.Equal(rebuilt) {
			t.Fatalf("step %d (%s): a screen rebuilt from the model is not Equal", step, op)
		}
	}
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}

// TestResidentChargesPlanes pins what the resident gauge charges a row of
// each layout, on any host: one byte a cell for ASCII and Latin-1 in the
// default rendition, four once a cell holds a wide or clustered character,
// two more a cell once any cell has a rendition other than the default,
// plus the palette's capacity. The screen's two blank rows add the blank
// array, once.
func TestResidentChargesPlanes(t *testing.T) {
	const w = 132
	if got := NewFramebuffer(w, 3).AccumulateResident(ResidentSet{}); got != w {
		t.Errorf("a blank screen is charged %d B, want the blank array's %d", got, w)
	}
	for _, c := range []struct {
		name, host string
		row        int
	}{
		{"ascii", "ls -l", w},
		{"latin-1", "fa\u00e7ade", w},
		{"coloured ascii", "\x1b[7m--More--\x1b[0m", w*(NarrowCellBytes+RendIndexBytes) + 4*rendBytes},
		{"cjk", "\u5b57", w * WideCellBytes},
		{"combining", "e\u0301", w * WideCellBytes},
		{"coloured cjk", "\x1b[31m\u5b57", w*(WideCellBytes+RendIndexBytes) + 4*rendBytes},
	} {
		e := NewEmulator(w, 3)
		e.WriteString(c.host)
		if got := e.Framebuffer().AccumulateResident(ResidentSet{}); got != c.row+w {
			t.Errorf("%s: a screen holding one written row is charged %d B, want %d for the row and %d for the blank array",
				c.name, got, c.row, w)
		}
	}
	// A clone shares every plane; the first write to it copies the row's.
	e := NewEmulator(w, 2)
	e.WriteString("\x1b[31mred\x1b[0m " + strings.Repeat("x", 40))
	snap := e.Framebuffer().Clone()
	seen := ResidentSet{}
	row := w*(NarrowCellBytes+RendIndexBytes) + 4*rendBytes
	if got := e.Framebuffer().AccumulateResident(seen) + snap.AccumulateResident(seen); got != row+w {
		t.Fatalf("a screen and its clone are charged %d B, want %d", got, row+w)
	}
	e.WriteString("y")
	seen = ResidentSet{}
	// The palette stays shared; the two planes are copied.
	if got := e.Framebuffer().AccumulateResident(seen) + snap.AccumulateResident(seen); got != 2*row-4*rendBytes+w {
		t.Fatalf("after a write the screen and its clone are charged %d B, want %d", got, 2*row-4*rendBytes+w)
	}
}

// TestBlankRowStoresOwnTheirPlanes runs each of Row's stores as the first
// to touch a row on the blank array, directly and on a clone of a shared
// one, and checks that it gave the row a plane of its own and left the
// array blank; and that a soft wrap set on a row no store has touched does
// not survive an erase that keeps the row on the array.
func TestBlankRowStoresOwnTheirPlanes(t *testing.T) {
	blankArrayStaysBlank(t)
	bold := mkRend(PaletteColor(1), PaletteColor(4), AttrBold)
	stores := []func(r *Row){
		func(r *Row) { r.set(3, Cell{content: 'a'}) },
		func(r *Row) { r.set(3, Cell{Rend: bold}) },
		func(r *Row) { r.fill(0, 5, Cell{content: ' '}) },
		func(r *Row) { r.setContent(7, 'z') },
		func(r *Row) { r.setContent(7, packRune('\u5b57')|wideBit) },
		func(r *Row) { r.putASCII(1, []byte("xyz"), SGRReset) },
		func(r *Row) { r.move(0, 2, 6) },
	}
	for i, store := range stores {
		f := NewFramebuffer(12, 2)
		store(f.writableRow(0))
		if aliasesBlankArray(f, 0) || f.rows[0].blank {
			t.Fatalf("store %d left the row it wrote on the blank array", i)
		}
		f.Clone()
		r := f.writableRow(1)
		if !r.blank || !aliasesBlankArray(f, 1) {
			t.Fatalf("store %d: a clone of a blank row does not alias the array", i)
		}
		store(r)
		if aliasesBlankArray(f, 1) || r.blank {
			t.Fatalf("store %d left a clone of a blank row on the array", i)
		}
	}
	f := NewFramebuffer(12, 2)
	f.writableRow(0).wrapped = true
	f.rows[0].touch()
	f.EraseInLine(2)
	if !aliasesBlankArray(f, 0) || f.rows[0].wrapped {
		t.Fatal("an erase left a soft wrap on a row of the blank array")
	}
}
