// Package overlay implements Mosh's speculative local echo (paper §3):
// the client predicts the screen effect of each keystroke, displays
// confident predictions immediately, verifies them against the
// authoritative state arriving from the server, and repairs mistakes
// within an RTT.
//
// Predictions are grouped into epochs: an epoch begins tentatively, with
// its predictions kept in the background; once the server confirms any
// prediction of the epoch, the whole epoch (including future predictions)
// is displayed. Keystrokes that tend to change the host's echo behavior —
// control characters, arrow keys, ESC sequences — end the current epoch,
// returning the engine to the background state (§3.2).
//
// Correctness is judged with the server-side "echo ack" carried in the
// synchronized terminal state: a prediction is evaluated only once the
// server reports that the corresponding input has been presented to the
// application for at least 50 ms, which eliminates the false-negative
// flicker the paper describes.
package overlay

import (
	"time"
	"unicode/utf8"

	"repro/internal/simclock"
	"repro/internal/terminal"
)

// DisplayPreference selects when predictions are shown.
type DisplayPreference int

const (
	// Adaptive shows predictions only when the connection is slow enough
	// for them to help (the default, as in the reference implementation).
	Adaptive DisplayPreference = iota
	// Always shows confirmed-epoch predictions regardless of latency.
	Always
	// Never disables the prediction engine.
	Never
)

func (p DisplayPreference) String() string {
	return [...]string{"adaptive", "always", "never"}[p]
}

// Timing and confidence constants from the reference implementation.
const (
	// srttTriggerLow/High turn prediction display off/on (hysteresis) as
	// the estimated frame interval crosses them.
	srttTriggerLow  = 20 * time.Millisecond
	srttTriggerHigh = 30 * time.Millisecond
	// flagTriggerLow/High turn the "underline unconfirmed predictions"
	// display off/on (§3: underlines on high-delay connections).
	flagTriggerLow  = 50 * time.Millisecond
	flagTriggerHigh = 80 * time.Millisecond
	// glitchThreshold: a prediction outstanding this long counts as a
	// glitch and raises the flagging trigger.
	glitchThreshold = 250 * time.Millisecond
	// glitchRepairCount quick confirmations are needed to clear flagging.
	glitchRepairCount       = 10
	glitchRepairMinInterval = 150 * time.Millisecond
	// pendingExpiry: predictions unresolved this long are abandoned (the
	// connection is effectively down). It must comfortably exceed the
	// worst round trip prediction verification can survive — a
	// bufferbloated LTE path runs 5-8 s (§4).
	pendingExpiry = 20 * time.Second
)

// Outcome is the eventual fate of one predicted keystroke.
type Outcome int

const (
	// OutcomePending: not yet judged against the authoritative state.
	OutcomePending Outcome = iota
	// OutcomeCorrect: the server's screen confirmed the prediction.
	OutcomeCorrect
	// OutcomeIncorrect: the prediction was wrong and was repaired.
	OutcomeIncorrect
	// OutcomeNone: no prediction was possible for this input.
	OutcomeNone
)

// Stats aggregates engine activity for the evaluation harness.
type Stats struct {
	InputEvents      int // keystrokes observed
	Predicted        int // cell predictions made
	ShownImmediately int
	Correct          int
	Incorrect        int
	EpochsKilled     int
}

// InputRecord traces one keystroke through the engine for latency
// measurement (paper Figure 2).
type InputRecord struct {
	Epoch       int64
	DisplayedAt time.Time
	Displayed   bool
	Outcome     Outcome
}

type cellPrediction struct {
	active              bool
	tentativeUntilEpoch int64
	expirationFrame     uint64
	predictionTime      time.Time
	col                 int
	replacement         terminal.Cell
	original            terminal.Cell
	inputSeq            uint64
}

type rowPrediction struct {
	rowNum int
	cells  []cellPrediction
}

type cursorPrediction struct {
	active              bool
	tentativeUntilEpoch int64
	expirationFrame     uint64
	row, col            int
}

// Engine is the prediction engine. It is a single-owner state machine
// (the client endpoint); not safe for concurrent use.
type Engine struct {
	clock      simclock.Clock
	preference DisplayPreference

	rows   []rowPrediction
	cursor cursorPrediction

	// Epochs.
	predictionEpoch int64
	confirmedEpoch  int64

	// Frame bookkeeping: user-stream state numbers.
	localFrameSent      uint64
	localFrameAcked     uint64
	localFrameLateAcked uint64 // the server's echo ack

	// Confidence triggers.
	sendInterval          time.Duration
	srttTrigger           bool
	glitchTrigger         int
	flagging              bool
	lastQuickConfirmation time.Time

	lastW, lastH int

	// UTF-8 assembly for multi-byte keystrokes.
	u8buf []byte

	records map[uint64]*InputRecord
	stats   Stats
}

// NewEngine returns an engine with the given display preference.
func NewEngine(clock simclock.Clock, pref DisplayPreference) *Engine {
	return &Engine{
		clock:           clock,
		preference:      pref,
		predictionEpoch: 1,
		confirmedEpoch:  0,
		sendInterval:    250 * time.Millisecond,
		records:         make(map[uint64]*InputRecord),
	}
}

// Stats returns a snapshot of engine counters.
func (e *Engine) Stats() Stats { return e.stats }

// SetSendInterval feeds the transport's frame interval (≈SRTT/2) into the
// adaptive display triggers.
func (e *Engine) SetSendInterval(d time.Duration) { e.sendInterval = d }

// SetLocalFrameSent records the newest user-stream state number handed to
// the network.
func (e *Engine) SetLocalFrameSent(n uint64) {
	if n > e.localFrameSent {
		e.localFrameSent = n
	}
}

// SetLocalFrameAcked records the newest user-stream state number the
// server acknowledged receiving.
func (e *Engine) SetLocalFrameAcked(n uint64) {
	if n > e.localFrameAcked {
		e.localFrameAcked = n
	}
}

// SetLocalFrameLateAcked records the server's echo ack: the newest
// user-stream state whose effects ought to be visible in the current
// screen state (§3.2).
func (e *Engine) SetLocalFrameLateAcked(n uint64) {
	if n > e.localFrameLateAcked {
		e.localFrameLateAcked = n
	}
}

// TakeInputRecord removes and returns the trace for input seq.
func (e *Engine) TakeInputRecord(seq uint64) (InputRecord, bool) {
	r, ok := e.records[seq]
	if !ok {
		return InputRecord{}, false
	}
	delete(e.records, seq)
	return *r, true
}

// showPredictions reports whether predictions are displayed at all.
func (e *Engine) showPredictions() bool {
	switch e.preference {
	case Never:
		return false
	case Always:
		return true
	default:
		return e.srttTrigger || e.glitchTrigger > 0
	}
}

func (e *Engine) becomeTentative() { e.predictionEpoch++ }

// Reset abandons every outstanding prediction and starts a fresh
// tentative epoch.
func (e *Engine) Reset() {
	e.rows = nil
	e.cursor = cursorPrediction{}
	e.becomeTentative()
}

func (e *Engine) rowFor(rowNum, width int) *rowPrediction {
	for i := range e.rows {
		if e.rows[i].rowNum == rowNum {
			return &e.rows[i]
		}
	}
	e.rows = append(e.rows, rowPrediction{rowNum: rowNum, cells: make([]cellPrediction, width)})
	return &e.rows[len(e.rows)-1]
}

// NewUserInput observes one keystroke (already encoded as host bytes) that
// is about to be added to user-stream state number seq, and makes echo
// predictions against fb, the client's current view of the server screen.
func (e *Engine) NewUserInput(seq uint64, data []byte, fb *terminal.Framebuffer) {
	if e.preference == Never {
		return
	}
	now := e.clock.Now()
	e.stats.InputEvents++
	rec := &InputRecord{Epoch: e.predictionEpoch, Outcome: OutcomeNone}
	e.records[seq] = rec
	if len(e.records) > 4096 {
		// Forget the oldest half if the harness never drains us.
		for k := range e.records {
			delete(e.records, k)
			if len(e.records) <= 2048 {
				break
			}
		}
	}

	e.cull(fb)

	// A keystroke that is not a single printable grapheme or backspace is
	// "hard to predict" (arrows, control characters, escape sequences):
	// it ends the epoch so future predictions start in the background.
	r, kind := classify(e, data)
	switch kind {
	case inputPrintable:
		e.predictEcho(seq, rec, r, fb, now)
	case inputBackspace:
		e.predictBackspace(rec, fb, now)
	case inputIncompleteUTF8:
		// Wait for the rest of the rune; no epoch change.
	default:
		// Control characters and escape sequences may move the host's
		// cursor in ways we cannot model: end the epoch and drop the
		// cursor chain so later predictions re-anchor on the
		// authoritative state.
		e.becomeTentative()
		e.cursor.active = false
	}
}

type inputKind int

const (
	inputPrintable inputKind = iota
	inputBackspace
	inputControl
	inputIncompleteUTF8
)

// classify decides how a keystroke affects prediction, assembling UTF-8
// sequences split across events.
func classify(e *Engine, data []byte) (rune, inputKind) {
	if len(e.u8buf) > 0 {
		e.u8buf = append(e.u8buf, data...)
		if !utf8.FullRune(e.u8buf) { // never at utf8.UTFMax bytes or more
			return 0, inputIncompleteUTF8
		}
		r, _ := utf8.DecodeRune(e.u8buf)
		e.u8buf = nil
		if r == utf8.RuneError {
			return 0, inputControl
		}
		return r, inputPrintable
	}
	if len(data) == 1 {
		b := data[0]
		switch {
		case b == 0x7f || b == 0x08:
			return 0, inputBackspace
		case b >= 0x20 && b < 0x7f:
			return rune(b), inputPrintable
		case b >= 0x80:
			e.u8buf = append(e.u8buf[:0], b)
			if utf8.FullRune(e.u8buf) {
				e.u8buf = nil
				return 0, inputControl
			}
			return 0, inputIncompleteUTF8
		default:
			return 0, inputControl
		}
	}
	// Multi-byte event: a whole UTF-8 rune, or an escape sequence.
	if r, size := utf8.DecodeRune(data); r != utf8.RuneError && size == len(data) && terminal.RuneWidth(r) > 0 {
		return r, inputPrintable
	}
	return 0, inputControl
}

// cursorPos returns the engine's working cursor: the active prediction if
// any, else the framebuffer's cursor.
func (e *Engine) cursorPos(fb *terminal.Framebuffer) (int, int) {
	if e.cursor.active {
		return e.cursor.row, e.cursor.col
	}
	return fb.DS.CursorRow, fb.DS.CursorCol
}

// predictEcho speculates that the host will echo r at the cursor.
func (e *Engine) predictEcho(seq uint64, rec *InputRecord, r rune, fb *terminal.Framebuffer, now time.Time) {
	crow, ccol := e.cursorPos(fb)
	width := terminal.RuneWidth(r)

	// A wide character that cannot fit on this line wraps in a way that
	// depends on the application; skip the cell prediction but keep the
	// cursor moving so later predictions stay aligned.
	if ccol+width > fb.W {
		e.becomeTentative()
		e.wrapCursorPrediction(crow, fb)
		return
	}

	row := e.rowFor(crow, fb.W)
	cell := &row.cells[ccol]
	if !cell.active {
		cell.original = fb.Cell(crow, ccol)
	}
	cell.active = true
	cell.col = ccol
	cell.tentativeUntilEpoch = e.predictionEpoch
	cell.expirationFrame = e.localFrameSent + 1
	cell.predictionTime = now
	cell.inputSeq = seq
	repl := terminal.Cell{Rend: fb.DS.Rend}
	repl.SetRune(r)
	repl.SetWide(width == 2)
	cell.replacement = repl
	e.stats.Predicted++
	rec.Outcome = OutcomePending

	shown := e.showPredictions() && e.predictionEpoch <= e.confirmedEpoch

	if ccol+width >= fb.W {
		// The echo landed in (or reached) the last column: the next
		// character's position depends on the host's wrap behavior —
		// the paper's main source of mispredictions. Predict the wrap,
		// but start a fresh tentative epoch for what follows.
		e.becomeTentative()
		e.wrapCursorPrediction(crow, fb)
	} else {
		e.cursor = cursorPrediction{
			active:              true,
			tentativeUntilEpoch: e.predictionEpoch,
			expirationFrame:     e.localFrameSent + 1,
			row:                 crow,
			col:                 ccol + width,
		}
	}

	if shown {
		rec.Displayed = true
		rec.DisplayedAt = now
		e.stats.ShownImmediately++
	}
}

// wrapCursorPrediction speculates that the cursor continues at the start
// of the next line (tentative: it belongs to the fresh epoch).
func (e *Engine) wrapCursorPrediction(crow int, fb *terminal.Framebuffer) {
	nrow := crow
	if nrow < fb.H-1 {
		nrow++
	}
	e.cursor = cursorPrediction{
		active:              true,
		tentativeUntilEpoch: e.predictionEpoch,
		expirationFrame:     e.localFrameSent + 1,
		row:                 nrow,
		col:                 0,
	}
}

// predictBackspace speculates that the host will erase leftward.
func (e *Engine) predictBackspace(rec *InputRecord, fb *terminal.Framebuffer, now time.Time) {
	crow, ccol := e.cursorPos(fb)
	if ccol == 0 {
		e.becomeTentative()
		return
	}
	ccol--
	row := e.rowFor(crow, fb.W)
	cell := &row.cells[ccol]
	if !cell.active {
		cell.original = fb.Cell(crow, ccol)
	}
	cell.active = true
	cell.col = ccol
	cell.tentativeUntilEpoch = e.predictionEpoch
	cell.expirationFrame = e.localFrameSent + 1
	cell.predictionTime = now
	cell.replacement = terminal.Cell{}
	rec.Outcome = OutcomePending
	e.stats.Predicted++

	e.cursor = cursorPrediction{
		active:              true,
		tentativeUntilEpoch: e.predictionEpoch,
		expirationFrame:     e.localFrameSent + 1,
		row:                 crow,
		col:                 ccol,
	}

	if e.showPredictions() && e.predictionEpoch <= e.confirmedEpoch {
		rec.Displayed = true
		rec.DisplayedAt = now
	}
}

// Cull verifies outstanding predictions against the newest authoritative
// screen state, adjusts the confidence triggers, and discards resolved or
// expired predictions. Call it whenever a new state arrives.
func (e *Engine) Cull(fb *terminal.Framebuffer) { e.cull(fb) }

func (e *Engine) cull(fb *terminal.Framebuffer) {
	now := e.clock.Now()

	if fb.W != e.lastW || fb.H != e.lastH {
		if e.lastW != 0 {
			e.Reset()
		}
		e.lastW, e.lastH = fb.W, fb.H
	}

	e.updateTriggers()

	// Judge cell predictions.
	for ri := range e.rows {
		row := &e.rows[ri]
		if row.rowNum >= fb.H {
			for ci := range row.cells {
				row.cells[ci].active = false
			}
			continue
		}
		for ci := range row.cells {
			cell := &row.cells[ci]
			if !cell.active {
				continue
			}
			switch e.judgeCell(cell, row.rowNum, fb, now) {
			case judgeCorrect:
				if cell.tentativeUntilEpoch > e.confirmedEpoch {
					e.confirmEpoch(cell.tentativeUntilEpoch, now)
				}
				if now.Sub(cell.predictionTime) < glitchThreshold {
					if e.glitchTrigger > 0 && now.Sub(e.lastQuickConfirmation) >= glitchRepairMinInterval {
						e.glitchTrigger--
						e.lastQuickConfirmation = now
					}
				} else {
					e.glitchTrigger = glitchRepairCount
					e.flagging = true
				}
				e.resolve(cell, OutcomeCorrect)
				e.stats.Correct++
				cell.active = false
			case judgeNoCredit:
				e.resolve(cell, OutcomeCorrect)
				cell.active = false
			case judgeWrong:
				e.stats.Incorrect++
				e.resolve(cell, OutcomeIncorrect)
				if cell.tentativeUntilEpoch > e.confirmedEpoch {
					// Never displayed: quietly kill its epoch.
					e.killEpoch(cell.tentativeUntilEpoch)
					e.stats.EpochsKilled++
				} else {
					// The user saw it: repair everything and lose
					// confidence.
					e.glitchTrigger = glitchRepairCount
					e.flagging = true
					e.Reset()
					return
				}
			case judgePending:
				if now.Sub(cell.predictionTime) > pendingExpiry {
					e.Reset()
					return
				}
			}
		}
	}

	// Judge the cursor prediction.
	if e.cursor.active && e.localFrameLateAcked >= e.cursor.expirationFrame {
		if fb.DS.CursorRow == e.cursor.row && fb.DS.CursorCol == e.cursor.col {
			if e.cursor.tentativeUntilEpoch > e.confirmedEpoch {
				e.confirmEpoch(e.cursor.tentativeUntilEpoch, now)
			}
			e.cursor.active = false
		} else {
			// Wrong cursor: stop overriding it; if it was visible to the
			// user, repair.
			shown := e.cursor.tentativeUntilEpoch <= e.confirmedEpoch
			e.cursor.active = false
			if shown {
				e.Reset()
				return
			}
			e.becomeTentative()
		}
	}

	// Compact: drop rows with no active predictions.
	live := e.rows[:0]
	for _, row := range e.rows {
		for ci := range row.cells {
			if row.cells[ci].active {
				live = append(live, row)
				break
			}
		}
	}
	e.rows = live

	// Judgements may have repaired (or destroyed) confidence.
	e.updateTriggers()
}

// updateTriggers applies the adaptive display hysteresis.
func (e *Engine) updateTriggers() {
	if e.sendInterval > srttTriggerHigh {
		e.srttTrigger = true
	} else if e.srttTrigger && e.sendInterval < srttTriggerLow && !e.anyActive() {
		e.srttTrigger = false
	}
	if e.sendInterval > flagTriggerHigh || e.glitchTrigger > 0 {
		e.flagging = true
	} else if e.sendInterval < flagTriggerLow && e.glitchTrigger == 0 {
		e.flagging = false
	}
}

type judgement int

const (
	judgePending judgement = iota
	judgeCorrect
	judgeNoCredit
	judgeWrong
)

func (e *Engine) judgeCell(cell *cellPrediction, rowNum int, fb *terminal.Framebuffer, now time.Time) judgement {
	if cell.col >= fb.W || rowNum >= fb.H {
		return judgeWrong
	}
	if e.localFrameLateAcked < cell.expirationFrame {
		return judgePending
	}
	current := fb.Cell(rowNum, cell.col)
	if current.Equal(cell.replacement) {
		// A blank predicted over a blank, or contents that were already
		// there, earn no confidence credit.
		if cell.replacement.IsBlank() || current.Equal(cell.original) {
			return judgeNoCredit
		}
		return judgeCorrect
	}
	return judgeWrong
}

// confirmEpoch displays epoch and everything before it, stamping display
// times on records that were waiting in the background.
func (e *Engine) confirmEpoch(epoch int64, now time.Time) {
	e.confirmedEpoch = epoch
	for _, rec := range e.records {
		if !rec.Displayed && rec.Epoch <= epoch && rec.Outcome == OutcomePending {
			rec.Displayed = true
			rec.DisplayedAt = now
		}
	}
}

// killEpoch removes all predictions belonging to tentative epoch.
func (e *Engine) killEpoch(epoch int64) {
	for ri := range e.rows {
		for ci := range e.rows[ri].cells {
			c := &e.rows[ri].cells[ci]
			if c.active && c.tentativeUntilEpoch >= epoch {
				c.active = false
			}
		}
	}
	if e.cursor.active && e.cursor.tentativeUntilEpoch >= epoch {
		e.cursor.active = false
	}
	e.becomeTentative()
}

func (e *Engine) resolve(cell *cellPrediction, outcome Outcome) {
	if rec, ok := e.records[cell.inputSeq]; ok {
		if rec.Outcome == OutcomePending {
			rec.Outcome = outcome
		}
	}
}

func (e *Engine) anyActive() bool {
	for ri := range e.rows {
		for ci := range e.rows[ri].cells {
			if e.rows[ri].cells[ci].active {
				return true
			}
		}
	}
	return e.cursor.active
}

// Apply overlays displayable predictions onto fb (the client's copy of the
// server screen), producing what the user actually sees. Unconfirmed
// predictions are underlined when flagging, per §3.
func (e *Engine) Apply(fb *terminal.Framebuffer) {
	if !e.showPredictions() {
		return
	}
	for ri := range e.rows {
		row := &e.rows[ri]
		if row.rowNum >= fb.H {
			continue
		}
		for ci := range row.cells {
			cell := &row.cells[ci]
			if !cell.active || cell.tentativeUntilEpoch > e.confirmedEpoch {
				continue
			}
			if cell.col >= fb.W {
				continue
			}
			target := cell.replacement
			if e.flagging {
				target.Rend.Set(terminal.AttrUnderline, true)
			}
			fb.SetCell(row.rowNum, cell.col, target)
		}
	}
	if e.cursor.active && e.cursor.tentativeUntilEpoch <= e.confirmedEpoch &&
		e.cursor.row < fb.H && e.cursor.col < fb.W {
		fb.DS.CursorRow = e.cursor.row
		fb.DS.CursorCol = e.cursor.col
	}
}
