package terminal

import (
	"strconv"
	"sync/atomic"
	"unicode/utf8"
)

// NewFrame computes the byte string that, when interpreted by a terminal
// currently displaying last, makes it display f. This is the server→client
// "logical diff" of the paper: only what changed is sent, and intermediate
// states are never represented. When initialized is false, last is ignored
// and a full repaint is produced.
//
// The output is interpretable both by real terminals (the client's actual
// display) and by this package's own Emulator (the client's synchronized
// copy of the server screen): round-tripping a frame through Emulator
// reproduces f exactly, which the test suite checks by property.
//
// NewFrame allocates a fresh output buffer and scratch state per call; the
// steady-state senders use a reusable FrameWriter via AppendFrame instead,
// which produces identical bytes with zero heap allocations.
func NewFrame(initialized bool, last, f *Framebuffer) []byte {
	var w FrameWriter
	return w.AppendFrame(nil, initialized, last, f)
}

// FrameWriter renders screen diffs. It owns the scratch state the diff
// pipeline needs (the scroll-detection tables), so a long-lived writer —
// one per SSP sender — reaches zero heap allocations per frame once warm.
// The zero value is ready to use. A FrameWriter is not safe for concurrent
// use.
type FrameWriter struct {
	// genIdx maps a row generation in `last` to its row index, turning
	// scroll detection into one O(height) pass. Generations are unique
	// within a framebuffer, so the map is exact.
	genIdx map[uint64]int
	// votes[k] counts rows supporting an upward scroll of k lines.
	votes []int
	// blank is the all-blank baseline row used for full repaints and for
	// lines a scroll brought on screen. Its generation is 0, which no
	// real row ever carries (the generation counter starts at 1), so it
	// never falsely matches. It is read-only by construction, so its
	// content plane is the process-wide blankText, not a private array per
	// writer.
	blank Row
}

// blankText is the one run of zero bytes — blank cells of a narrow content
// plane — behind every writer's baseline row and every blank screen row
// (newBlankRow, eraseRow), as long as the widest screen seen so far. Nobody
// writes to it; a racing pair of growers both publish all-blank arrays, and
// the loser's lives only as long as the rows and writers that took it.
var blankText atomic.Pointer[[]byte]

func sharedBlankText(width int) []byte {
	if p := blankText.Load(); p != nil && len(*p) >= width {
		return (*p)[:width:width]
	}
	text := make([]byte, max(width, 256))
	blankText.Store(&text)
	return text[:width:width]
}

// frameState tracks the remote terminal's cursor and rendition as our
// emitted bytes move it.
type frameState struct {
	row, col int
	// colInvalid is true when the remote cursor's column is unknown (after
	// printing into the last column) or must not be trusted (before a cell
	// that has to start a new print stream). Its row is always known.
	colInvalid bool
	// relative is set for incremental frames: their moves may be relative
	// (see seek). A repaint's moves are all absolute, and its bytes pinned.
	relative bool
	rend     Renditions
}

// blankRow returns the width-w blank baseline row.
func (w *FrameWriter) blankRow(width int) *Row {
	if len(w.blank.text) != width {
		w.blank.text = sharedBlankText(width)
	}
	return &w.blank
}

// AppendFrame appends the frame bytes transforming last into f (see
// NewFrame) to buf and returns the extended buffer. Passing a buffer with
// spare capacity — typically the previous frame's, truncated to zero —
// makes the whole diff pipeline allocation-free in steady state.
func (w *FrameWriter) AppendFrame(buf []byte, initialized bool, last, f *Framebuffer) []byte {
	var cur frameState

	repaint := !initialized || last == nil || last.W != f.W || last.H != f.H
	blank := w.blankRow(f.W)

	// Synchronized metadata of the baseline screen: zero values when
	// repainting from scratch (a pristine terminal has no title, no
	// rung bells and all modes reset).
	var lastTitle string
	var lastBell uint64
	var lastReverse, lastAppCursor, lastBracketed bool
	lastVisible := true

	if repaint {
		// Full repaint from a pristine screen.
		buf = append(buf, "\x1b[0m\x1b[r\x1b[2J\x1b[H"...)
		cur = frameState{row: 0, col: 0, rend: SGRReset}
	} else {
		lastTitle = last.Title
		lastBell = last.BellCount
		lastReverse = last.DS.ReverseVideo
		lastAppCursor = last.DS.ApplicationCursorKeys
		lastBracketed = last.DS.BracketedPaste
		lastVisible = last.DS.CursorVisible
		// The remote terminal is where the frame that produced last left
		// it: at last's cursor, in last's rendition, with no wrap pending
		// (a frame that prints into the last column ends with a move).
		cur = frameState{row: last.DS.CursorRow, col: last.DS.CursorCol, relative: true, rend: last.DS.Rend}
	}

	// Window title.
	if f.Title != lastTitle {
		buf = append(buf, "\x1b]2;"...)
		buf = append(buf, f.Title...)
		buf = append(buf, '\a')
	}

	// Bell: ring once per increment.
	if f.BellCount > lastBell {
		for i := lastBell; i < f.BellCount; i++ {
			buf = append(buf, 0x07)
		}
	}

	// Synchronized modes that affect the client's input handling or the
	// whole display.
	buf = diffMode(buf, lastReverse, f.DS.ReverseVideo, 5)
	buf = diffMode(buf, lastAppCursor, f.DS.ApplicationCursorKeys, 1)
	buf = diffMode(buf, lastBracketed, f.DS.BracketedPaste, 2004)

	// A repaint hides the cursor while painting, to avoid flicker on real
	// terminals; an incremental frame carries only a change of visibility
	// (mosh-client hides the cursor around the frames it paints itself).
	if repaint || (lastVisible && !f.DS.CursorVisible) {
		buf = append(buf, "\x1b[?25l"...)
		lastVisible = false
	}

	// Scroll optimization: if the screen content moved up by k lines
	// (the common "host printed at the bottom" case), scroll first so
	// the surviving lines need no repainting.
	k := 0
	if !repaint {
		if k = w.detectScroll(last, f); k > 0 {
			// SU fills the lines it brings in with the current background,
			// and the rows below take them for blank: scroll under the
			// default rendition. DECSTBM homes the cursor.
			buf = setRend(buf, &cur, SGRReset)
			buf = append(buf, "\x1b[r\x1b["...)
			buf = strconv.AppendUint(buf, uint64(k), 10)
			buf = append(buf, 'S')
			cur.row, cur.col, cur.colInvalid = 0, 0, false
		}
	}

	for y := 0; y < f.H; y++ {
		// The baseline for row y after scrolling by k: last's row y+k
		// while it exists, blank for the lines the scroll brought in
		// (and for every row of a full repaint).
		lastRow := blank
		if !repaint && y+k < f.H {
			lastRow = last.rows[y+k]
		}
		buf = paintRow(buf, &cur, y, lastRow, f.rows[y], f.W)
	}

	// Final cursor position, rendition and visibility. A repaint restates
	// the first two whatever its painting left them at: its bytes are
	// pinned (the golden corpus, the benchmark's final-frame digests).
	if repaint {
		buf = appendMove(buf, f.DS.CursorRow, f.DS.CursorCol)
		buf = f.DS.Rend.appendANSI(buf)
	} else {
		buf = seek(buf, &cur, f.DS.CursorRow, f.DS.CursorCol, nil, nil)
		buf = setRend(buf, &cur, f.DS.Rend)
	}
	if !lastVisible && f.DS.CursorVisible {
		buf = append(buf, "\x1b[?25h"...)
	}
	return buf
}

func diffMode(buf []byte, was, is bool, mode int) []byte {
	if was == is {
		return buf
	}
	ch := byte('l')
	if is {
		ch = 'h'
	}
	buf = append(buf, "\x1b[?"...)
	buf = strconv.AppendUint(buf, uint64(mode), 10)
	return append(buf, ch)
}

// detectScroll looks for a uniform upward shift: f's row i matching last's
// row i+k by generation. Returns the shift k (0 when none is worthwhile).
// One pass builds a generation→index table for last, a second tallies a
// vote for each matching pair, so the cost is O(height) rather than the
// O(height²) of comparing every (row, shift) combination.
func (w *FrameWriter) detectScroll(last, f *Framebuffer) int {
	h := f.H
	if w.genIdx == nil {
		w.genIdx = make(map[uint64]int, h)
	} else {
		clear(w.genIdx)
	}
	if cap(w.votes) < h {
		w.votes = make([]int, h)
	} else {
		w.votes = w.votes[:h]
		clear(w.votes)
	}
	for i, r := range last.rows {
		w.genIdx[r.gen] = i
	}
	for i, r := range f.rows {
		if j, ok := w.genIdx[r.gen]; ok && j > i {
			w.votes[j-i]++
		}
	}
	bestK, bestMatches := 0, 0
	for k := 1; k < h; k++ {
		if w.votes[k] > bestMatches {
			bestMatches, bestK = w.votes[k], k
		}
	}
	// A scroll is worthwhile when at least half the surviving lines move
	// with it. bestK > 0 already implies bestMatches ≥ 1 (a shift is only
	// recorded on a strict improvement over zero votes).
	if bestK > 0 && bestMatches >= (f.H-bestK+1)/2 {
		return bestK
	}
	return 0
}

// paintRow emits the minimal update turning lastRow into row.
func paintRow(buf []byte, cur *frameState, y int, lastRow, row *Row, width int) []byte {
	if row == lastRow || row.gen == lastRow.gen {
		return buf
	}
	if row.text != nil && lastRow.text != nil {
		return paintText(buf, cur, y, lastRow, row, width)
	}
	// Find the extent of trailing blankness for the erase optimization.
	blankFrom := row.blankFrom()
	samePal := row.samePalette(lastRow)
	for x := row.nextChange(lastRow, 0, samePal); x < width; x = row.nextChange(lastRow, x, samePal) {
		// Erase-to-end shortcut: everything from here on is blank in the
		// target row.
		if x >= blankFrom {
			buf = seek(buf, cur, y, x, lastRow, row)
			buf = setRend(buf, cur, SGRReset)
			return append(buf, "\x1b[K"...)
		}
		// A differing continuation cell of a wide character cannot be
		// painted directly; repaint its leader, which regenerates it.
		if row.glyph(x) == 0 && x > 0 && row.isWide(x-1) {
			x--
		}
		cell := row.get(x)
		// Printed straight after its neighbour, the cell could join that
		// neighbour's emoji sequence; a move breaks the stream. Only a
		// blank (a wide cell's continuation) or multi-rune neighbour can
		// end in a joiner, and that test is inline: it runs for every cell
		// a frame paints.
		if x > 0 {
			if g := row.glyph(x - 1); (g == 0 || g&graphemeBit != 0) && joinsLeft(row, x) {
				cur.colInvalid = true
			}
		}
		buf = seek(buf, cur, y, x, lastRow, row)
		buf = setRend(buf, cur, cell.Rend)
		if g := cell.glyph(); g&graphemeBit != 0 && !cell.Wide() && x+1 < width && isPictographic(cell.leadRune()) {
			buf = appendKeepingNarrow(buf, graphemes.lookup(g), cell.Rend)
		} else {
			buf = cell.appendContents(buf)
		}
		w := 1
		if cell.Wide() {
			w = 2
		}
		if x+w >= width {
			// Wrote into the last column: remote pending-wrap state is
			// ambiguous, so the next move must not trust the column.
			cur.colInvalid = true
			x = width
		} else {
			cur.col = x + w
			x += w
		}
	}
	return buf
}

// paintText is paintRow for two rows that each hold one byte a cell: it
// compares the bytes themselves, one at a time where neither row has a
// rendition plane (a changed line is usually changed throughout) and
// otherwise a run at a time (nextChange). Such a row holds no wide cell and
// no cluster, so each changed cell is a move, its rendition and its byte,
// as paintRow's general loop would emit them.
func paintText(buf []byte, cur *frameState, y int, lastRow, row *Row, width int) []byte {
	t, lt := row.text, lastRow.text[:len(row.text)]
	plain := row.rends == nil && lastRow.rends == nil
	samePal := plain || row.samePalette(lastRow)
	blankFrom := row.blankFrom()
	for x := 0; x < len(t); x++ {
		if !plain {
			if x = row.nextChange(lastRow, x, samePal); x == len(t) {
				break
			}
		} else if a, b := t[x], lt[x]; a == b || foldSpace(a) == foldSpace(b) {
			continue
		}
		if cur.colInvalid || cur.row != y || cur.col != x {
			buf = seek(buf, cur, y, x, lastRow, row)
		}
		if x >= blankFrom {
			buf = setRend(buf, cur, SGRReset)
			return append(buf, "\x1b[K"...)
		}
		if !plain {
			buf = setRend(buf, cur, row.rendAt(x))
		} else if cur.rend != SGRReset {
			buf = setRend(buf, cur, SGRReset)
		}
		if a := t[x]; a != 0 && a < utf8.RuneSelf {
			buf = append(buf, a)
		} else {
			buf = appendContent(buf, uint32(a))
		}
		if x+1 >= width {
			cur.colInvalid = true
		} else {
			cur.col = x + 1
		}
	}
	return buf
}

// joinsLeft reports whether the cell at x > 0, printed right after the cell to
// its left, would be absorbed into it rather than start a cell of its own:
// the emulator, like a real terminal, joins a pictographic rune printed
// straight after a pictographic cluster ending in a zero-width joiner. The
// server may hold the two as separate cells when its application broke the
// print stream between them.
func joinsLeft(row *Row, x int) bool {
	p := x - 1
	if p > 0 && row.glyph(p) == 0 && row.isWide(p-1) {
		p--
	}
	prev := row.get(p)
	return endsWithZWJ(prev.glyph()) && isPictographic(prev.leadRune()) &&
		isPictographic(row.get(x).leadRune())
}

// appendKeepingNarrow appends the grapheme s of a narrow cell, not in the
// last column, whose base is an emoji. A VS16 printed in an unbroken stream
// widens such a cell, so any VS16 it holds arrived after its application
// broke the stream; each goes out after a restatement of the rendition,
// which breaks the stream again.
func appendKeepingNarrow(buf []byte, s string, rend Renditions) []byte {
	for _, r := range s {
		if r == vs16 {
			buf = rend.appendANSI(buf)
		}
		buf = utf8.AppendRune(buf, r)
	}
	return buf
}

// appendMove emits an absolute cursor move to (row, col), 0-based.
func appendMove(buf []byte, row, col int) []byte {
	buf = append(buf, "\x1b["...)
	buf = strconv.AppendUint(buf, uint64(row+1), 10)
	buf = append(buf, ';')
	buf = strconv.AppendUint(buf, uint64(col+1), 10)
	return append(buf, 'H')
}

func moveTo(buf []byte, cur *frameState, row, col int) []byte {
	if !cur.colInvalid && cur.row == row && cur.col == col {
		return buf
	}
	cur.row, cur.col, cur.colInvalid = row, col, false
	return appendMove(buf, row, col)
}

// maxLF is the most rows a relative move goes down by line feeds, the
// reference's limit (FrameState::append_move in terminaldisplay.cc).
const maxLF = 4

// seek moves the remote cursor to (row, col) for an incremental frame by
// the shortest of three motions, ties going to the CUP:
//
//   - an absolute CUP, as a repaint always uses (moveTo);
//   - a CUF, going right along the cursor's row from a known column;
//   - a CR, then row − cur.row ≤ maxLF LFs, then a CUF to col if col > 0.
//     The CR also clears a pending wrap, so this motion starts from an
//     unknown column too.
//
// An LF here never scrolls: the target row is on screen, and the remote
// scrolling region is always the whole screen. Frames never set one, only
// reset it (\x1b[r), and they are all the client's emulator and
// mosh-client's terminal are ever fed. A change of that invariant must
// bound the LFs by the region's bottom margin.
//
// When the move goes right along the row from a known column and row is
// the screen row being painted (next; lastRow is its baseline, what the
// client shows), the cells in between may instead be printed again if that
// is shorter (see reprints). The final cursor placement passes nil rows.
func seek(buf []byte, cur *frameState, row, col int, lastRow, next *Row) []byte {
	if !cur.relative {
		return moveTo(buf, cur, row, col)
	}
	sameRow := !cur.colInvalid && cur.row == row
	if sameRow && cur.col == col {
		return buf
	}
	from, down := cur.col, row-cur.row
	cur.row, cur.col, cur.colInvalid = row, col, false
	cup := len("\x1b[;H") + decLen(row+1) + decLen(col+1)
	if sameRow && col > from {
		// Right along the row, a CUF is always shorter than a CR + CUF.
		n := cufLen(col - from)
		if next != nil && col-from < min(n, cup) && reprints(lastRow, next, from, col, cur.rend) {
			for x := from; x < col; x++ {
				buf = append(buf, byte(next.word(x)))
			}
			return buf
		}
		if n < cup {
			return appendCUF(buf, col-from)
		}
	} else if down >= 0 && down <= maxLF {
		n := 1 + down
		if col > 0 {
			n += cufLen(col)
		}
		if n < cup {
			buf = append(buf, '\r')
			for ; down > 0; down-- {
				buf = append(buf, '\n')
			}
			if col > 0 {
				buf = appendCUF(buf, col)
			}
			return buf
		}
	}
	return appendMove(buf, row, col)
}

// reprints reports whether the cells [from, to) of row, all unchanged from
// its baseline lastRow, can be printed again in the rendition rend instead
// of stepped over, leaving every cell of the client's as it was. Each must
// hold one printable ASCII character other than space, with the identical
// content word in both rows, in rend. A blank and a space look alike, so
// the client may hold either where the server holds one (a repaint prints
// neither), and printing would turn its blank into a space. A wide
// character's continuation is blank, so a cursor parked on one never starts
// a reprint, which would destroy the character.
func reprints(lastRow, row *Row, from, to int, rend Renditions) bool {
	for x := from; x < to; x++ {
		c := row.word(x)
		if c != lastRow.word(x) || c-'!' > '~'-'!' || row.rendAt(x) != rend {
			return false
		}
	}
	return true
}

// decLen returns the number of decimal digits of n ≥ 0.
func decLen(n int) int {
	d := 1
	for ; n >= 10; n /= 10 {
		d++
	}
	return d
}

// cufLen returns the length of a CUF by n ≥ 1 columns.
func cufLen(n int) int {
	if n == 1 {
		return len("\x1b[C")
	}
	return len("\x1b[C") + decLen(n)
}

// appendCUF moves the cursor n ≥ 1 columns right.
func appendCUF(buf []byte, n int) []byte {
	buf = append(buf, "\x1b["...)
	if n > 1 {
		buf = strconv.AppendUint(buf, uint64(n), 10)
	}
	return append(buf, 'C')
}

func setRend(buf []byte, cur *frameState, r Renditions) []byte {
	if cur.rend == r {
		return buf
	}
	cur.rend = r
	return r.appendANSI(buf)
}
