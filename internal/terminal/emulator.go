package terminal

import (
	"bytes"
	"fmt"
)

// Emulator interprets the host application's output byte stream onto a
// Framebuffer. The server runs one as the authoritative screen; the client
// runs another to apply SSP diffs; and the prediction engine consults the
// same cell semantics to guess echo effects.
type Emulator struct {
	fb     *Framebuffer
	parser Parser
	// answerback accumulates terminal→host reports (cursor position,
	// device attributes) for the server to feed back to the application.
	answerback bytes.Buffer
	// joinArmed marks an uninterrupted print stream: set by every printed
	// rune, cleared by any control or escape dispatch. Emoji ZWJ joining
	// and VS16 widening apply only within such a stream — a cell that
	// merely *ends* with a dangling joiner must not swallow a rune the
	// application prints after repositioning the cursor (grapheme
	// clusters break on cursor motion).
	joinArmed bool
}

// NewEmulator returns an emulator with a blank w×h screen.
func NewEmulator(w, h int) *Emulator {
	return &Emulator{fb: NewFramebuffer(w, h)}
}

// NewEmulatorWithFramebuffer returns an emulator interpreting onto an
// existing screen state, without allocating a blank one first. State-sync
// clones use it so a snapshot costs no full-screen allocation.
func NewEmulatorWithFramebuffer(fb *Framebuffer) *Emulator {
	return &Emulator{fb: fb}
}

// Framebuffer exposes the live screen state.
func (e *Emulator) Framebuffer() *Framebuffer { return e.fb }

// SetFramebuffer replaces the live screen state (used when applying a
// resize that arrives via state sync). Like any cursor disruption it
// breaks the print stream for emoji joining.
func (e *Emulator) SetFramebuffer(fb *Framebuffer) {
	e.fb = fb
	e.joinArmed = false
}

// Write interprets host output, implementing io.Writer. It never fails;
// unknown sequences are ignored like real terminals do.
func (e *Emulator) Write(data []byte) (int, error) {
	e.parser.Feed(data, e)
	return len(data), nil
}

// Resize changes the screen dimensions (user resized their window). The
// cursor may be clamped, so the print stream is broken for emoji joining.
func (e *Emulator) Resize(w, h int) {
	e.fb.Resize(w, h)
	e.joinArmed = false
}

// TakeAnswerback drains pending terminal→host responses.
func (e *Emulator) TakeAnswerback() []byte {
	if e.answerback.Len() == 0 {
		return nil
	}
	out := bytes.Clone(e.answerback.Bytes())
	e.answerback.Reset()
	return out
}

// --- dispatcher implementation ---

func (e *Emulator) print(r rune) {
	fb := e.fb
	ds := &fb.DS
	width := RuneWidth(r)
	joinable := e.joinArmed
	e.joinArmed = true

	if width == 0 {
		// Combining character: attach to the previously printed cell. The
		// append goes through the grapheme intern table's combine cache, so
		// the steady state allocates nothing.
		row, col := e.prevGraphicCell()
		if c := fb.Cell(row, col); !c.ContentsEmpty() {
			c.setGlyph(graphemes.appendRune(c.glyph(), r))
			wr := fb.writableRow(row)
			wr.setContent(col, c.content)
			wr.touch()
			// VS16 requests emoji presentation: the cell renders at double
			// width even when its base character alone is narrow (✈ vs ✈️).
			// Only emoji-capable bases widen, and only in an uninterrupted
			// print stream — a stray selector on a plain letter, or one
			// arriving after cursor motion, is zero-width noise in every
			// wcwidth implementation, and widening would desync column
			// positions with the application's layout.
			if r == vs16 && joinable && !c.Wide() && isPictographic(c.leadRune()) {
				e.widenCell(row, col)
			}
		}
		return
	}

	// A grapheme whose cluster ends in ZWJ is awaiting a joiner: a
	// pictographic rune printed IMMEDIATELY after it belongs to that
	// cell's emoji sequence (UAX #29 GB11), not to a new cell, and the
	// joined cell takes the width of its widest member (👩 + ZWJ + 💻 is
	// one two-column cell, not two). GB11 requires pictographic runes on
	// BOTH sides of the joiner — letter+ZWJ (Arabic shaping, Indic
	// half-forms) followed by an emoji is two cells — and clusters break
	// on cursor motion, so a stale dangling joiner on the screen never
	// swallows a rune printed after the application repositions.
	if row, col := e.prevGraphicCell(); joinable && isPictographic(r) {
		if c := fb.Cell(row, col); endsWithZWJ(c.glyph()) && isPictographic(c.leadRune()) {
			c.setGlyph(graphemes.appendRune(c.glyph(), r))
			wr := fb.writableRow(row)
			wr.setContent(col, c.content)
			wr.touch()
			if width == 2 && !c.Wide() {
				e.widenCell(row, col)
			}
			return
		}
	}

	// Deferred autowrap.
	if ds.NextPrintWraps && ds.AutoWrapMode {
		wr := fb.writableRow(ds.CursorRow)
		wr.setContent(fb.W-1, wr.cells[fb.W-1].content()|wrapBit)
		wr.touch()
		ds.CursorCol = 0
		ds.NextPrintWraps = false
		e.lineFeed()
	}

	// A wide character that cannot fit in the last column wraps early.
	if width == 2 && ds.CursorCol == fb.W-1 {
		if ds.AutoWrapMode {
			wr := fb.writableRow(ds.CursorRow)
			wr.setContent(fb.W-1, wr.cells[fb.W-1].content()|wrapBit)
			wr.touch()
			ds.CursorCol = 0
			e.lineFeed()
		} else {
			ds.CursorCol = fb.W - 2
			if ds.CursorCol < 0 {
				ds.CursorCol = 0
			}
		}
	}

	if ds.InsertMode {
		fb.InsertCells(width)
	}

	row, col := ds.CursorRow, ds.CursorCol
	wr := fb.writableRow(row)
	// Overwriting the continuation half of a wide character destroys the
	// leader too.
	if col > 0 && wr.cells[col-1].wide() {
		wr.set(col-1, Cell{Rend: wr.rendOf(wr.cells[col-1].rend).background()})
	}
	c := Cell{content: packRune(r), Rend: ds.Rend}
	c.SetWide(width == 2)
	wr.set(col, c)
	if width == 2 && col+1 < fb.W {
		wr.set(col+1, Cell{Rend: ds.Rend.background()})
	}
	// One print perturbs at most cols col-1..col+1; normalizing that
	// window (instead of the whole row, per character) keeps bulk text
	// output linear in the row width.
	fb.normalizeWideRange(row, col-2, col+3)
	wr.touch()

	if col+width >= fb.W {
		ds.CursorCol = fb.W - 1
		ds.NextPrintWraps = true
	} else {
		ds.CursorCol = col + width
		ds.NextPrintWraps = false
	}
}

// printRun draws a run of printable ASCII a row segment at a time: one
// writableRow, one touch and a plain cell-store loop per segment, where
// print pays a width lookup, the ZWJ test, a window normalization and a
// generation bump per character. A segment qualifies (plainSegment) only
// when none of print's special cases can arise in it; everything else goes
// through print a rune at a time, which stays the one implementation of
// wrapping, insert mode and wide-cell repair. ASCII is never combining,
// pictographic or wide, so print's first three branches never apply here.
func (e *Emulator) printRun(run []byte) {
	e.joinArmed = true
	fb := e.fb
	ds := &fb.DS
	for len(run) > 0 {
		n := e.plainSegment(len(run))
		if n == 0 {
			e.print(rune(run[0]))
			run = run[1:]
			continue
		}
		row := fb.writableRow(ds.CursorRow)
		col := ds.CursorCol
		k := row.index(ds.Rend, col, col+n)
		cells := row.cells[col : col+n]
		for i := range cells {
			cells[i] = storedCell{lo: uint16(run[i]), rend: k}
		}
		row.touch()
		if ds.CursorCol+n >= fb.W {
			ds.CursorCol = fb.W - 1
			ds.NextPrintWraps = true
		} else {
			ds.CursorCol += n
		}
		run = run[n:]
	}
}

// plainSegment reports how many of the next max narrow characters can be
// stored straight into the cursor's row: none in insert mode or with a
// deferred wrap pending, otherwise as many as fit before the right margin
// and before the first wide cell — the stored span and one cell either side
// must hold no wide cell, so there is no leader to destroy and nothing for
// normalizeWideRange to repair.
func (e *Emulator) plainSegment(max int) int {
	fb := e.fb
	ds := &fb.DS
	if ds.InsertMode || ds.NextPrintWraps {
		return 0
	}
	col := ds.CursorCol
	n := fb.W - col
	if max < n {
		n = max
	}
	cells := fb.rows[ds.CursorRow].cells
	lo, hi := col-1, col+n // inclusive: one cell either side of the span
	if lo < 0 {
		lo = 0
	}
	if hi >= fb.W {
		hi = fb.W - 1
	}
	for i := lo; i <= hi; i++ {
		if cells[i].wide() {
			if n = i - col - 1; n < 0 {
				n = 0
			}
			break
		}
	}
	return n
}

// prevGraphicCell locates the cell holding the most recently printed
// grapheme — the attachment target for combining characters and ZWJ
// joins: the cell left of the cursor (or under it while an autowrap is
// pending), stepping over a wide character's continuation half.
func (e *Emulator) prevGraphicCell() (row, col int) {
	fb := e.fb
	ds := &fb.DS
	row, col = ds.CursorRow, ds.CursorCol
	if !ds.NextPrintWraps && col > 0 {
		col--
	}
	if cells := fb.rows[row].cells; col > 0 && cells[col].glyph() == 0 && cells[col-1].wide() {
		col--
	}
	return row, col
}

// widenCell grows a single-width cell into a double-width one after its
// grapheme gained emoji presentation (VS16) or a wide ZWJ-joined member:
// the continuation half is blanked and the cursor, when it sat
// immediately after the cell, moves past the continuation exactly as if
// the cell had been printed wide. A cell in the last column stays narrow
// — there is no room for a continuation, and the wide-cell invariant
// (normalizeWide) would otherwise destroy it.
func (e *Emulator) widenCell(row, col int) {
	fb := e.fb
	if col >= fb.W-1 {
		return
	}
	wr := fb.writableRow(row)
	wr.setContent(col, wr.cells[col].content()|wideBit)
	wr.set(col+1, Cell{Rend: wr.rendOf(wr.cells[col].rend).background()})
	fb.normalizeWideRange(row, col-2, col+3)
	wr.touch()
	ds := &fb.DS
	if ds.CursorRow == row && ds.CursorCol == col+1 && !ds.NextPrintWraps {
		if col+2 >= fb.W {
			ds.CursorCol = fb.W - 1
			ds.NextPrintWraps = true
		} else {
			ds.CursorCol = col + 2
		}
	}
}

func (e *Emulator) lineFeed() {
	fb := e.fb
	if fb.DS.CursorRow == fb.DS.ScrollBottom {
		fb.Scroll(1)
	} else if fb.DS.CursorRow < fb.H-1 {
		fb.DS.CursorRow++
	}
}

func (e *Emulator) reverseLineFeed() {
	fb := e.fb
	if fb.DS.CursorRow == fb.DS.ScrollTop {
		fb.Scroll(-1)
	} else if fb.DS.CursorRow > 0 {
		fb.DS.CursorRow--
	}
}

func (e *Emulator) execute(b byte) {
	e.joinArmed = false
	fb := e.fb
	switch b {
	case 0x07: // BEL
		fb.Ring()
	case 0x08: // BS
		if fb.DS.CursorCol > 0 {
			fb.DS.CursorCol--
		}
		fb.DS.NextPrintWraps = false
	case 0x09: // HT
		fb.DS.CursorCol = fb.NextTab(fb.DS.CursorCol)
		fb.DS.NextPrintWraps = false
	case 0x0a, 0x0b, 0x0c: // LF VT FF
		e.lineFeed()
		fb.DS.NextPrintWraps = false
	case 0x0d: // CR
		fb.DS.CursorCol = 0
		fb.DS.NextPrintWraps = false
	case 0x0e, 0x0f: // SO/SI charset shifts: unsupported, ignored
	}
}

func (e *Emulator) escDispatch(inter []byte, final byte) {
	e.joinArmed = false
	fb := e.fb
	if len(inter) == 1 && inter[0] == '#' {
		if final == '8' { // DECALN
			for r := 0; r < fb.H; r++ {
				row := fb.writableRow(r)
				for c := 0; c < fb.W; c++ {
					// The soft-wrap flag survives: it is line metadata.
					row.set(c, Cell{content: row.cells[c].content()&wrapBit | 'E'})
				}
				row.touch()
			}
			fb.MoveCursor(0, 0)
		}
		return
	}
	if len(inter) == 1 && (inter[0] == '(' || inter[0] == ')') {
		return // charset designation: only ASCII supported
	}
	switch final {
	case '7':
		fb.SaveCursor()
	case '8':
		fb.RestoreCursor()
	case 'c':
		fb.Reset()
	case 'D': // IND
		e.lineFeed()
	case 'E': // NEL
		fb.DS.CursorCol = 0
		e.lineFeed()
	case 'H': // HTS
		fb.SetTab()
	case 'M': // RI
		e.reverseLineFeed()
	case '=':
		fb.DS.ApplicationKeypad = true
	case '>':
		fb.DS.ApplicationKeypad = false
	}
}

// param fetches params[i], substituting def for missing or default (-1)
// entries.
func param(params []int, i, def int) int {
	if i >= len(params) || params[i] < 0 {
		return def
	}
	return params[i]
}

func (e *Emulator) csiDispatch(private byte, params []int, inter []byte, final byte) {
	e.joinArmed = false
	if private == '?' {
		switch final {
		case 'h':
			e.decMode(params, true)
		case 'l':
			e.decMode(params, false)
		}
		return
	}
	if private != 0 || len(inter) > 0 {
		return // unsupported private/intermediate sequences
	}
	fb := e.fb
	ds := &fb.DS
	n := param(params, 0, 1)
	if n < 1 {
		n = 1
	}
	switch final {
	case '@': // ICH
		fb.InsertCells(n)
	case 'A': // CUU
		fb.MoveCursor(ds.CursorRow-n, ds.CursorCol)
	case 'B', 'e': // CUD, VPR
		fb.MoveCursor(ds.CursorRow+n, ds.CursorCol)
	case 'C', 'a': // CUF, HPR
		fb.MoveCursor(ds.CursorRow, ds.CursorCol+n)
	case 'D': // CUB
		fb.MoveCursor(ds.CursorRow, ds.CursorCol-n)
	case 'E': // CNL
		fb.MoveCursor(ds.CursorRow+n, 0)
	case 'F': // CPL
		fb.MoveCursor(ds.CursorRow-n, 0)
	case 'G', '`': // CHA, HPA
		fb.MoveCursor(ds.CursorRow, param(params, 0, 1)-1)
	case 'H', 'f': // CUP, HVP
		e.cursorPosition(param(params, 0, 1), param(params, 1, 1))
	case 'I': // CHT
		for i := 0; i < n; i++ {
			ds.CursorCol = fb.NextTab(ds.CursorCol)
		}
		ds.NextPrintWraps = false
	case 'J': // ED
		fb.EraseInDisplay(param(params, 0, 0))
	case 'K': // EL
		fb.EraseInLine(param(params, 0, 0))
	case 'L': // IL
		fb.InsertLines(n)
	case 'M': // DL
		fb.DeleteLines(n)
	case 'P': // DCH
		fb.DeleteCells(n)
	case 'S': // SU
		fb.Scroll(n)
	case 'T': // SD
		fb.Scroll(-n)
	case 'X': // ECH
		fb.eraseCells(ds.CursorRow, ds.CursorCol, ds.CursorCol+n)
	case 'Z': // CBT
		for i := 0; i < n; i++ {
			ds.CursorCol = fb.PrevTab(ds.CursorCol)
		}
		ds.NextPrintWraps = false
	case 'b': // REP: repeat preceding graphic character
		e.repeatLast(n)
	case 'c': // DA
		e.answerback.WriteString("\x1b[?62c")
	case 'd': // VPA
		fb.MoveCursor(param(params, 0, 1)-1, ds.CursorCol)
	case 'g': // TBC
		switch param(params, 0, 0) {
		case 0:
			fb.ClearTab()
		case 3:
			fb.ClearAllTabs()
		}
	case 'h':
		e.ansiMode(params, true)
	case 'l':
		e.ansiMode(params, false)
	case 'm':
		e.selectGraphicRendition(params)
	case 'n': // DSR
		switch param(params, 0, 0) {
		case 5:
			e.answerback.WriteString("\x1b[0n")
		case 6:
			row, col := ds.CursorRow+1, ds.CursorCol+1
			if ds.OriginMode {
				row -= ds.ScrollTop
			}
			fmt.Fprintf(&e.answerback, "\x1b[%d;%dR", row, col)
		}
	case 'r': // DECSTBM
		top := param(params, 0, 1) - 1
		bottom := param(params, 1, fb.H) - 1
		fb.SetScrollingRegion(top, bottom)
		e.cursorPosition(1, 1)
	case 's': // SCOSC
		fb.SaveCursor()
	case 'u': // SCORC
		fb.RestoreCursor()
	}
}

// cursorPosition implements CUP with origin-mode translation (1-based
// parameters).
func (e *Emulator) cursorPosition(row, col int) {
	fb := e.fb
	r := row - 1
	if fb.DS.OriginMode {
		r += fb.DS.ScrollTop
		r = clamp(r, fb.DS.ScrollTop, fb.DS.ScrollBottom)
	}
	fb.MoveCursor(r, col-1)
}

// repeatLast implements REP by reprinting the cell left of the cursor.
func (e *Emulator) repeatLast(n int) {
	fb := e.fb
	col := fb.DS.CursorCol
	if fb.DS.NextPrintWraps {
		col = fb.W - 1
	} else if col > 0 {
		col--
	} else {
		return
	}
	r := fb.Cell(fb.DS.CursorRow, col).leadRune()
	if r == 0 {
		return
	}
	if n > fb.W {
		n = fb.W
	}
	for i := 0; i < n; i++ {
		e.print(r)
	}
}

func (e *Emulator) ansiMode(params []int, set bool) {
	for i := range params {
		switch param(params, i, -1) {
		case 4: // IRM
			e.fb.DS.InsertMode = set
		}
	}
}

func (e *Emulator) decMode(params []int, set bool) {
	fb := e.fb
	for i := range params {
		switch param(params, i, -1) {
		case 1: // DECCKM
			fb.DS.ApplicationCursorKeys = set
		case 3: // DECCOLM: column-mode switch clears the screen
			fb.EraseInDisplay(2)
			fb.MoveCursor(0, 0)
		case 5: // DECSCNM
			fb.DS.ReverseVideo = set
		case 6: // DECOM
			fb.DS.OriginMode = set
			e.cursorPosition(1, 1)
		case 7: // DECAWM
			fb.DS.AutoWrapMode = set
		case 25: // DECTCEM
			fb.DS.CursorVisible = set
		case 47, 1047, 1049:
			// Alternate screen: SSP synchronizes a single screen, so
			// (like the reference implementation) we approximate with
			// save/clear on entry and clear/restore on exit.
			if set {
				fb.SaveCursor()
				fb.EraseInDisplay(2)
			} else {
				fb.EraseInDisplay(2)
				fb.RestoreCursor()
			}
		case 2004:
			fb.DS.BracketedPaste = set
		}
	}
}

func (e *Emulator) selectGraphicRendition(params []int) {
	ds := &e.fb.DS
	if len(params) == 0 {
		ds.Rend = SGRReset
		return
	}
	for i := 0; i < len(params); i++ {
		p := param(params, i, 0)
		switch {
		case p == 0:
			ds.Rend = SGRReset
		case p == 1:
			ds.Rend.Set(AttrBold, true)
		case p == 2:
			ds.Rend.Set(AttrFaint, true)
		case p == 3:
			ds.Rend.Set(AttrItalic, true)
		case p == 4:
			ds.Rend.Set(AttrUnderline, true)
		case p == 5 || p == 6:
			ds.Rend.Set(AttrBlink, true)
		case p == 7:
			ds.Rend.Set(AttrInverse, true)
		case p == 8:
			ds.Rend.Set(AttrInvisible, true)
		case p == 21 || p == 22:
			ds.Rend.Set(AttrBold|AttrFaint, false)
		case p == 23:
			ds.Rend.Set(AttrItalic, false)
		case p == 24:
			ds.Rend.Set(AttrUnderline, false)
		case p == 25:
			ds.Rend.Set(AttrBlink, false)
		case p == 27:
			ds.Rend.Set(AttrInverse, false)
		case p == 28:
			ds.Rend.Set(AttrInvisible, false)
		case p >= 30 && p <= 37:
			ds.Rend.SetFg(PaletteColor(uint8(p - 30)))
		case p == 38:
			if c, skip, ok := extendedColor(params, i); ok {
				ds.Rend.SetFg(c)
				i += skip
			} else {
				return
			}
		case p == 39:
			ds.Rend.SetFg(ColorDefault)
		case p >= 40 && p <= 47:
			ds.Rend.SetBg(PaletteColor(uint8(p - 40)))
		case p == 48:
			if c, skip, ok := extendedColor(params, i); ok {
				ds.Rend.SetBg(c)
				i += skip
			} else {
				return
			}
		case p == 49:
			ds.Rend.SetBg(ColorDefault)
		case p >= 90 && p <= 97:
			ds.Rend.SetFg(PaletteColor(uint8(p - 90 + 8)))
		case p >= 100 && p <= 107:
			ds.Rend.SetBg(PaletteColor(uint8(p - 100 + 8)))
		}
	}
}

// extendedColor parses the 38/48 extended color forms: ;5;n (palette) and
// ;2;r;g;b (truecolor). It returns the color, how many params to skip, and
// whether parsing succeeded.
func extendedColor(params []int, i int) (Color, int, bool) {
	switch param(params, i+1, -1) {
	case 5:
		n := param(params, i+2, 0)
		return PaletteColor(uint8(clamp(n, 0, 255))), 2, true
	case 2:
		r := clamp(param(params, i+2, 0), 0, 255)
		g := clamp(param(params, i+3, 0), 0, 255)
		b := clamp(param(params, i+4, 0), 0, 255)
		return RGBColor(uint8(r), uint8(g), uint8(b)), 4, true
	}
	return ColorDefault, 0, false
}

func (e *Emulator) oscDispatch(data []byte) {
	e.joinArmed = false
	// OSC 0/1/2 set the window title.
	if len(data) >= 2 && (data[0] == '0' || data[0] == '1' || data[0] == '2') && data[1] == ';' {
		e.fb.Title = string(data[2:])
	}
}
