package terminal

import (
	"strconv"
	"sync/atomic"
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
	// never falsely matches. It is read-only by construction, so its cells
	// are the process-wide blankCells, not a private array per writer.
	blank Row
}

// blankCells is the one run of zero-value cells behind every writer's
// baseline row and every blank screen row (newBlankRow), as long as the
// widest screen seen so far. Nobody writes to it; a racing pair of growers
// both publish all-blank arrays, and the loser's lives only as long as the
// rows and writers that took it.
var blankCells atomic.Pointer[[]Cell]

func sharedBlankCells(width int) []Cell {
	if p := blankCells.Load(); p != nil && len(*p) >= width {
		return (*p)[:width:width]
	}
	cells := make([]Cell, max(width, 256))
	blankCells.Store(&cells)
	return cells[:width:width]
}

// frameState tracks the remote terminal's cursor and rendition as our
// emitted bytes move it.
type frameState struct {
	row, col int
	// colValid is false when the remote cursor position is unknown
	// (e.g. after printing into the last column).
	colInvalid bool
	rend       Renditions
}

// blankRow returns the width-w blank baseline row.
func (w *FrameWriter) blankRow(width int) *Row {
	if len(w.blank.Cells) != width {
		w.blank.Cells = sharedBlankCells(width)
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
		cur = frameState{row: last.DS.CursorRow, col: last.DS.CursorCol, rend: SGRReset}
		// Establish a known rendition before painting.
		buf = append(buf, "\x1b[0m"...)
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

	// Hide the cursor while painting to avoid flicker on real terminals.
	buf = append(buf, "\x1b[?25l"...)

	// Scroll optimization: if the screen content moved up by k lines
	// (the common "host printed at the bottom" case), scroll first so
	// the surviving lines need no repainting.
	k := 0
	if !repaint {
		if k = w.detectScroll(last, f); k > 0 {
			buf = append(buf, "\x1b[r\x1b["...)
			buf = strconv.AppendUint(buf, uint64(k), 10)
			buf = append(buf, 'S')
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

	// Final cursor position, rendition and visibility.
	buf = appendMove(buf, f.DS.CursorRow, f.DS.CursorCol)
	buf = f.DS.Rend.appendANSI(buf)
	if f.DS.CursorVisible {
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
	// Find the extent of trailing blankness for the erase optimization.
	blankFrom := width
	for blankFrom > 0 {
		c := &row.Cells[blankFrom-1]
		if !c.IsBlank() {
			break
		}
		blankFrom--
	}

	x := 0
	for x < width {
		cell := &row.Cells[x]
		lastCell := &lastRow.Cells[x]
		if cell.Equal(lastCell) {
			x++
			continue
		}
		// Erase-to-end shortcut: everything from here on is blank in the
		// target row.
		if x >= blankFrom {
			buf = moveTo(buf, cur, y, x)
			buf = setRend(buf, cur, SGRReset)
			return append(buf, "\x1b[K"...)
		}
		// A differing continuation cell of a wide character cannot be
		// painted directly; repaint its leader, which regenerates it.
		if cell.ContentsEmpty() && x > 0 && row.Cells[x-1].Wide() {
			x--
			cell = &row.Cells[x]
		}
		buf = moveTo(buf, cur, y, x)
		buf = setRend(buf, cur, cell.Rend)
		buf = cell.appendContents(buf)
		w := 1
		if cell.Wide() {
			w = 2
		}
		if x+w >= width {
			// Wrote into the last column: remote pending-wrap state is
			// ambiguous, so force an absolute move next time.
			cur.colInvalid = true
			x = width
		} else {
			cur.col = x + w
			x += w
		}
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

func setRend(buf []byte, cur *frameState, r Renditions) []byte {
	if cur.rend == r {
		return buf
	}
	cur.rend = r
	return r.appendANSI(buf)
}
