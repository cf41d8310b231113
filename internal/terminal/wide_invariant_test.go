package terminal

import (
	"fmt"
	"math/rand"
	"testing"
)

// checkWideInvariant scans every cell of every row and asserts the
// invariant normalizeWide exists to maintain: a wide leader never sits in
// the last column, and the cell to its right is exactly the blank
// continuation carrying the leader's background. The windowed
// normalization (normalizeWideRange) repairs only a few columns around
// each localized edit, so this is the regression net proving the window
// bounds are right — a too-narrow window would leave a stale continuation
// or an orphaned leader somewhere outside it.
func checkWideInvariant(t *testing.T, f *Framebuffer, step int, op string) {
	t.Helper()
	for row := 0; row < f.H; row++ {
		r := f.rows[row]
		for col := 0; col < f.W; col++ {
			c := r.get(col)
			if !c.Wide() {
				continue
			}
			if col == f.W-1 {
				t.Fatalf("step %d (%s): row %d col %d: wide leader in last column", step, op, row, col)
			}
			want := Cell{Rend: c.Rend.background()}
			got := r.get(col + 1)
			got.content &^= wrapBit // soft-wrap is line metadata, not content (see Cell.Equal)
			if got != want {
				t.Fatalf("step %d (%s): row %d col %d: wide leader without blank continuation (next=%+v)",
					step, op, row, col+1, r.get(col+1))
			}
			col++
		}
	}
}

// TestWideInvariantUnderRandomEdits hammers an emulator with a
// deterministic random mix of narrow prints, wide (CJK) prints, colored
// prints, cursor jumps, erases, and insert/delete edits — every shape of
// localized and structural mutation — verifying the wide-cell invariant
// after each operation. An odd width forces wide runes to straddle the
// wrap column regularly.
func TestWideInvariantUnderRandomEdits(t *testing.T) {
	const w, h = 11, 6
	e := emu(w, h)
	f := e.Framebuffer()
	rng := rand.New(rand.NewSource(41))

	wide := []rune("世界漢字テスト한글")
	narrow := []rune("abcXYZ019.")

	for step := 0; step < 4000; step++ {
		var op string
		switch rng.Intn(12) {
		case 0, 1, 2: // wide print, sometimes on a colored background
			if rng.Intn(3) == 0 {
				e.WriteString(fmt.Sprintf("\x1b[4%dm", 1+rng.Intn(6)))
			}
			e.WriteString(string(wide[rng.Intn(len(wide))]))
			op = "print-wide"
		case 3, 4, 5: // narrow print — overwriting a leader or continuation
			e.WriteString(string(narrow[rng.Intn(len(narrow))]))
			op = "print-narrow"
		case 6: // cursor jump anywhere, including the last column
			e.WriteString(fmt.Sprintf("\x1b[%d;%dH", 1+rng.Intn(h), 1+rng.Intn(w)))
			op = "cup"
		case 7: // erase in line (all three modes)
			e.WriteString(fmt.Sprintf("\x1b[%dK", rng.Intn(3)))
			op = "el"
		case 8: // erase characters at the cursor
			e.WriteString(fmt.Sprintf("\x1b[%dX", 1+rng.Intn(4)))
			op = "ech"
		case 9: // insert blanks, shifting the tail right through leaders
			e.WriteString(fmt.Sprintf("\x1b[%d@", 1+rng.Intn(3)))
			op = "ich"
		case 10: // delete cells, pulling the tail left through leaders
			e.WriteString(fmt.Sprintf("\x1b[%dP", 1+rng.Intn(3)))
			op = "dch"
		default: // newline / scroll pressure
			e.WriteString("\r\n")
			op = "crlf"
		}
		checkWideInvariant(t, f, step, op)
	}

	// Reset rendition so the emulator ends in a clean state, then one
	// final full sweep.
	e.WriteString("\x1b[0m")
	checkWideInvariant(t, f, 4000, "final")
}
