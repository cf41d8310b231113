package terminal

import "sync/atomic"

// Row is one screen line. Its generation number changes on every
// modification and is preserved across clones, so two rows with equal gen
// are guaranteed identical — the renderer uses this to detect scrolls and
// skip unchanged lines without comparing cells.
//
// Rows are copy-on-write: Framebuffer.Clone shares *Row pointers between
// the original and the snapshot, marking each row shared. A shared row is
// immutable from then on — every mutation path first materializes a
// private copy via Framebuffer.writableRow — so snapshots are O(height)
// pointer copies instead of O(width×height) cell copies, which is what
// makes the SSP sender's per-send state history cheap.
type Row struct {
	Cells []Cell
	gen   uint64
	// shared marks a row reachable from more than one framebuffer, or one
	// whose Cells alias the process-wide blank array (newBlankRow). Once
	// set it is never cleared on this Row: a framebuffer that wants to
	// write replaces its pointer with a private copy instead.
	shared bool
}

// rowGenCounter is global so generations stay unique across every
// framebuffer in the process; atomic because independent sessions (and
// parallel tests/benchmarks) emulate concurrently.
var rowGenCounter atomic.Uint64

func nextGen() uint64 {
	return rowGenCounter.Add(1)
}

// newRow returns a private row of blanks with background bg.
func newRow(width int, bg Renditions) *Row {
	r := &Row{Cells: make([]Cell, width), gen: nextGen()}
	for i := range r.Cells {
		r.Cells[i].Reset(bg)
	}
	return r
}

// newBlankRow returns a blank row with the default background that owns no
// cells: it aliases the process-wide blank array every session's blank lines
// share and is born shared, so the first write to it materializes a private
// row through writableRow exactly as a write to a snapshotted row does.
// Nobody ever writes the blank array; code that fills a fresh row's cells
// directly takes newRow.
func newBlankRow(width int) *Row {
	return &Row{Cells: sharedBlankCells(width), gen: nextGen(), shared: true}
}

// Touch marks the row modified, invalidating generation-based equality.
// Overlay code uses it after writing cells directly.
func (r *Row) Touch() { r.touch() }

// touch marks the row modified.
func (r *Row) touch() { r.gen = nextGen() }

// clone deep-copies the row; the copy is private (not shared).
func (r *Row) clone() *Row {
	nr := &Row{Cells: make([]Cell, len(r.Cells)), gen: r.gen}
	copy(nr.Cells, r.Cells)
	return nr
}

func (r *Row) equal(o *Row) bool {
	if r == o || r.gen == o.gen {
		return true
	}
	if len(r.Cells) != len(o.Cells) {
		return false
	}
	for i := range r.Cells {
		if !r.Cells[i].Equal(&o.Cells[i]) {
			return false
		}
	}
	return true
}

// DrawState is the non-grid portion of terminal state: cursor, modes,
// scrolling region, tab stops and the active rendition.
type DrawState struct {
	CursorRow, CursorCol int
	// NextPrintWraps is the deferred-autowrap flag: set when a character
	// lands in the last column, so the *next* printed character wraps.
	NextPrintWraps bool

	Tabs []bool

	// ScrollTop/ScrollBottom delimit the scrolling region, inclusive.
	ScrollTop, ScrollBottom int

	Rend Renditions

	savedCursorSet        bool
	SavedCursorRow        int
	SavedCursorCol        int
	SavedRend             Renditions
	SavedOriginMode       bool
	InsertMode            bool
	OriginMode            bool
	AutoWrapMode          bool
	CursorVisible         bool
	ReverseVideo          bool
	ApplicationCursorKeys bool
	ApplicationKeypad     bool
	BracketedPaste        bool
}

func defaultTabs(width int) []bool {
	t := make([]bool, width)
	for i := 8; i < width; i += 8 {
		t[i] = true
	}
	return t
}

// Framebuffer is the complete screen state synchronized between server and
// client: the cell grid, draw state, window title, bell count and the
// "echo ack" the prediction engine relies on (§3.2). It keeps no history:
// the paper lists scrollback browsing as future work, so a row scrolling off
// the screen is discarded like one leaving any other scroll region.
type Framebuffer struct {
	W, H int
	rows []*Row
	DS   DrawState

	Title string
	// BellCount increments on BEL so the client can ring locally.
	BellCount uint64
	// EchoAck is the count of user-input bytes that have been presented
	// to the host application for at least the server's echo timeout
	// (50 ms), so their effects ought to be visible in this frame.
	EchoAck uint64

	// freeRows is a free list of discarded rows available for reuse when a
	// scroll vacates lines. Only rows this framebuffer exclusively owns
	// enter it, never shared rows (a snapshot may still read them). It is
	// deliberately not carried over by Clone. See recycleRow.
	freeRows []*Row
}

// NewFramebuffer returns a blank w×h screen.
func NewFramebuffer(w, h int) *Framebuffer {
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	f := &Framebuffer{W: w, H: h}
	f.rows = make([]*Row, h)
	for i := range f.rows {
		f.rows[i] = newBlankRow(w)
	}
	f.DS = DrawState{
		Tabs:          defaultTabs(w),
		ScrollBottom:  h - 1,
		AutoWrapMode:  true,
		CursorVisible: true,
	}
	return f
}

// Clone snapshots the framebuffer in O(height): the grid is shared
// copy-on-write (both copies' rows become immutable-once-shared, and
// either side materializes a private row before writing), so the SSP
// sender's per-send snapshot costs pointer copies, not cell copies. Row
// generations are preserved, which keeps generation-based scroll
// detection and row skipping working across snapshots.
func (f *Framebuffer) Clone() *Framebuffer {
	nf := &Framebuffer{}
	nf.rows = make([]*Row, len(f.rows))
	nf.DS.Tabs = make([]bool, len(f.DS.Tabs))
	return f.CloneInto(nf)
}

// CloneInto is Clone reusing dst's storage (its rows slice and tab table)
// when the dimensions still match, falling back to a fresh Clone when they
// do not. The statesync layer feeds retired snapshots back through it, so
// the sender's steady-state snapshot performs no allocations at all. dst
// must not be the receiver of any outstanding references the caller still
// cares about; it returns the clone (dst itself, or a fresh framebuffer
// after a size change).
func (f *Framebuffer) CloneInto(dst *Framebuffer) *Framebuffer {
	if dst == nil || dst == f || len(dst.rows) != len(f.rows) || len(dst.DS.Tabs) != len(f.DS.Tabs) {
		return f.Clone()
	}
	rows, tabs := dst.rows, dst.DS.Tabs
	*dst = Framebuffer{
		W: f.W, H: f.H, DS: f.DS, Title: f.Title, BellCount: f.BellCount, EchoAck: f.EchoAck,
	}
	copy(tabs, f.DS.Tabs)
	dst.DS.Tabs = tabs
	for i, r := range f.rows {
		r.shared = true
		rows[i] = r
	}
	dst.rows = rows
	return dst
}

// Release drops everything this framebuffer keeps reachable — every row,
// the row free list, the title — and keeps only the capacity CloneInto
// reuses (the rows slice and the tab table). A retired snapshot waiting on
// a free list calls it so that a dead screen pins no cell storage; the
// framebuffer must not be read again until CloneInto has refilled it.
func (f *Framebuffer) Release() {
	clear(f.rows)
	f.freeRows = nil
	f.Title = ""
}

// Equal reports whether two framebuffers render identically and carry the
// same synchronized metadata.
func (f *Framebuffer) Equal(o *Framebuffer) bool {
	if f.W != o.W || f.H != o.H || f.Title != o.Title ||
		f.BellCount != o.BellCount || f.EchoAck != o.EchoAck {
		return false
	}
	if f.DS.CursorRow != o.DS.CursorRow || f.DS.CursorCol != o.DS.CursorCol ||
		f.DS.CursorVisible != o.DS.CursorVisible ||
		f.DS.ReverseVideo != o.DS.ReverseVideo ||
		f.DS.ApplicationCursorKeys != o.DS.ApplicationCursorKeys ||
		f.DS.BracketedPaste != o.DS.BracketedPaste {
		return false
	}
	for i := range f.rows {
		if !f.rows[i].equal(o.rows[i]) {
			return false
		}
	}
	return true
}

// Identical reports whether f and o yield byte-identical frames from any
// baseline, which is more than Equal promises: a frame ends by restoring the
// active rendition, which is not synchronized state and Equal skips, and
// AppendFrame detects scrolls and skips rows by generation, so every row
// must be the same generation and not merely the same content. A snapshot
// and the screen it was cloned from are identical until the screen is next
// written to.
func (f *Framebuffer) Identical(o *Framebuffer) bool {
	if f.DS.Rend != o.DS.Rend || !f.Equal(o) {
		return false
	}
	for i, r := range f.rows {
		if r.gen != o.rows[i].gen {
			return false
		}
	}
	return true
}

// writableRow returns row i, first materializing a private copy if the
// row is shared with a snapshot or aliases the blank array. Every mutation
// of row contents must go through it (directly or via Row/Cell) to preserve
// the copy-on-write invariant that shared rows are immutable.
func (f *Framebuffer) writableRow(i int) *Row {
	r := f.rows[i]
	if r.shared {
		r = r.clone()
		f.rows[i] = r
	}
	return r
}

// Row returns row i (0-based), materialized for writing: callers (the
// overlay engine, for instance) mutate cells through it and then Touch it.
// Read-only callers use Peek instead to avoid the copy.
func (f *Framebuffer) Row(i int) *Row { return f.writableRow(i) }

// Cell returns the cell at (row, col), materialized for writing.
func (f *Framebuffer) Cell(row, col int) *Cell {
	return &f.writableRow(row).Cells[col]
}

// Peek returns the cell at (row, col) for reading only: it never
// materializes a shared row, so it is cheap and must not be written
// through.
func (f *Framebuffer) Peek(row, col int) *Cell {
	return &f.rows[row].Cells[col]
}

// Text returns the visible contents of row i as a string (for tests and
// examples).
func (f *Framebuffer) Text(i int) string {
	var s []byte
	for c := range f.rows[i].Cells {
		s = f.rows[i].Cells[c].appendContents(s)
	}
	return string(s)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// MoveCursor positions the cursor, clamping to the screen (and to the
// scrolling region when origin mode is on). Coordinates are 0-based and
// absolute; origin-mode translation happens in the emulator.
func (f *Framebuffer) MoveCursor(row, col int) {
	f.DS.CursorRow = clamp(row, 0, f.H-1)
	f.DS.CursorCol = clamp(col, 0, f.W-1)
	f.DS.NextPrintWraps = false
}

// eraseCells blanks cols [from, to) of row with the current background.
func (f *Framebuffer) eraseCells(row, from, to int) {
	from = clamp(from, 0, f.W)
	to = clamp(to, 0, f.W)
	if from >= to {
		return
	}
	r := f.writableRow(row)
	for i := from; i < to; i++ {
		r.Cells[i].Reset(f.DS.Rend)
	}
	// A leader just left of the blanked span may have lost its
	// continuation; nothing further out can have changed.
	f.normalizeWideRange(row, from-1, to+1)
	r.touch()
}

// normalizeWide repairs the wide-character invariant on a row after any
// cell-level mutation: a wide leader never sits in the last column, and
// its continuation cell is always a blank carrying the leader's
// background. The display renderer relies on this invariant — it lets a
// repaint of the leader deterministically regenerate the continuation, so
// screen diffs always converge.
func (f *Framebuffer) normalizeWide(row int) { f.normalizeWideRange(row, 0, f.W) }

// normalizeWideRange repairs the invariant over cols [from, to) only. A
// mutation that touches a bounded span of cells can only perturb leaders
// inside or immediately left of that span (the invariant is pairwise
// between a leader and its right neighbor), so localized edits — above
// all print, which writes one cell per call — normalize a small window
// instead of paying a full-row scan per character. Structural edits that
// shift whole row tails (insert/delete/scroll/resize) still scan the row.
func (f *Framebuffer) normalizeWideRange(row, from, to int) {
	r := f.writableRow(row)
	if from < 0 {
		from = 0
	}
	if to > f.W {
		to = f.W
	}
	for col := from; col < to; col++ {
		c := &r.Cells[col]
		if !c.Wide() {
			continue
		}
		if col == f.W-1 {
			c.Reset(c.Rend)
			continue
		}
		// The continuation keeps the row's soft-wrap flag: it is line
		// metadata, not content the leader dictates.
		want := Cell{content: r.Cells[col+1].content & wrapBit, Rend: c.Rend.background()}
		if r.Cells[col+1] != want {
			r.Cells[col+1] = want
		}
		col++ // skip the continuation we just fixed
	}
}

// EraseInLine implements EL: mode 0 erases cursor→end, 1 start→cursor
// (inclusive), 2 the whole line.
func (f *Framebuffer) EraseInLine(mode int) {
	row, col := f.DS.CursorRow, f.DS.CursorCol
	switch mode {
	case 0:
		f.eraseCells(row, col, f.W)
	case 1:
		f.eraseCells(row, 0, col+1)
	case 2:
		f.eraseCells(row, 0, f.W)
	}
}

// EraseInDisplay implements ED: mode 0 erases cursor→end of screen, 1
// start→cursor, 2 whole screen.
func (f *Framebuffer) EraseInDisplay(mode int) {
	row := f.DS.CursorRow
	switch mode {
	case 0:
		f.EraseInLine(0)
		for i := row + 1; i < f.H; i++ {
			f.eraseCells(i, 0, f.W)
		}
	case 1:
		for i := 0; i < row; i++ {
			f.eraseCells(i, 0, f.W)
		}
		f.EraseInLine(1)
	case 2:
		for i := 0; i < f.H; i++ {
			f.eraseCells(i, 0, f.W)
		}
	}
}

// Scroll moves the scrolling region up by n lines (down when n < 0),
// filling vacated lines with the current background. Vacated lines reuse
// rows from the free list when the scroll discarded any this framebuffer
// exclusively owns, so scroll floods stop allocating per line.
func (f *Framebuffer) Scroll(n int) {
	top, bot := f.DS.ScrollTop, f.DS.ScrollBottom
	height := bot - top + 1
	if n > height {
		n = height
	}
	if -n > height {
		n = -height
	}
	switch {
	case n > 0:
		for i := top; i < top+n; i++ {
			f.recycleRow(f.rows[i])
		}
		copy(f.rows[top:], f.rows[top+n:bot+1])
		for i := bot - n + 1; i <= bot; i++ {
			f.rows[i] = f.newRowPooled(f.DS.Rend)
		}
	case n < 0:
		n = -n
		for i := bot - n + 1; i <= bot; i++ {
			f.recycleRow(f.rows[i])
		}
		copy(f.rows[top+n:bot+1], f.rows[top:])
		for i := top; i < top+n; i++ {
			f.rows[i] = f.newRowPooled(f.DS.Rend)
		}
	}
}

// recycleRow offers a discarded row to the free list. Shared rows are
// refused (a snapshot still reads them), as are rows of the wrong width;
// the list is bounded by the screen height.
func (f *Framebuffer) recycleRow(r *Row) {
	if r.shared || len(r.Cells) != f.W || len(f.freeRows) >= f.H {
		return
	}
	f.freeRows = append(f.freeRows, r)
}

// newRowPooled returns a blank row with background bg, reusing a recycled
// row when one is available. With none, a default-background row is a
// header over the shared blank array and costs cells only once written.
func (f *Framebuffer) newRowPooled(bg Renditions) *Row {
	n := len(f.freeRows)
	if n == 0 {
		if bg.bg == 0 {
			return newBlankRow(f.W)
		}
		return newRow(f.W, bg)
	}
	r := f.freeRows[n-1]
	f.freeRows[n-1] = nil
	f.freeRows = f.freeRows[:n-1]
	for i := range r.Cells {
		r.Cells[i].Reset(bg)
	}
	r.gen = nextGen()
	return r
}

// InsertLines implements IL at the cursor row (within the scroll region).
func (f *Framebuffer) InsertLines(n int) {
	row := f.DS.CursorRow
	if row < f.DS.ScrollTop || row > f.DS.ScrollBottom {
		return
	}
	savedTop := f.DS.ScrollTop
	f.DS.ScrollTop = row
	f.Scroll(-n)
	f.DS.ScrollTop = savedTop
}

// DeleteLines implements DL at the cursor row (within the scroll region).
func (f *Framebuffer) DeleteLines(n int) {
	row := f.DS.CursorRow
	if row < f.DS.ScrollTop || row > f.DS.ScrollBottom {
		return
	}
	savedTop := f.DS.ScrollTop
	f.DS.ScrollTop = row
	f.Scroll(n)
	f.DS.ScrollTop = savedTop
}

// InsertCells implements ICH: shift cells right from the cursor, dropping
// overflow, blanking the gap.
func (f *Framebuffer) InsertCells(n int) {
	row, col := f.DS.CursorRow, f.DS.CursorCol
	if n > f.W-col {
		n = f.W - col
	}
	if n <= 0 {
		return
	}
	r := f.writableRow(row)
	copy(r.Cells[col+n:], r.Cells[col:f.W-n])
	for i := col; i < col+n; i++ {
		r.Cells[i].Reset(f.DS.Rend)
	}
	f.normalizeWide(row)
	r.touch()
}

// DeleteCells implements DCH: shift cells left into the cursor, blanking
// the tail.
func (f *Framebuffer) DeleteCells(n int) {
	row, col := f.DS.CursorRow, f.DS.CursorCol
	if n > f.W-col {
		n = f.W - col
	}
	if n <= 0 {
		return
	}
	r := f.writableRow(row)
	copy(r.Cells[col:], r.Cells[col+n:])
	for i := f.W - n; i < f.W; i++ {
		r.Cells[i].Reset(f.DS.Rend)
	}
	f.normalizeWide(row)
	r.touch()
}

// Resize changes the screen size, preserving as much content as possible
// (top-left anchored, like the reference implementation).
func (f *Framebuffer) Resize(w, h int) {
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	if w == f.W && h == f.H {
		return
	}
	rows := make([]*Row, h)
	for i := 0; i < h; i++ {
		if i >= f.H {
			rows[i] = newBlankRow(w)
			continue
		}
		// Copied into, so a private row: a blank one aliases the array
		// every other blank row reads.
		r := newRow(w, SGRReset)
		n := copy(r.Cells, f.rows[i].Cells)
		// A surviving wide cell split at the boundary becomes blank.
		if n > 0 && r.Cells[n-1].Wide() && n == w {
			r.Cells[n-1].Reset(SGRReset)
		}
		rows[i] = r
	}
	f.rows = rows
	f.freeRows = nil // pooled rows have the old width
	f.W, f.H = w, h
	f.DS.Tabs = defaultTabs(w)
	f.DS.ScrollTop = 0
	f.DS.ScrollBottom = h - 1
	f.DS.CursorRow = clamp(f.DS.CursorRow, 0, h-1)
	f.DS.CursorCol = clamp(f.DS.CursorCol, 0, w-1)
	f.DS.NextPrintWraps = false
}

// SetScrollingRegion implements DECSTBM with 0-based inclusive bounds.
func (f *Framebuffer) SetScrollingRegion(top, bottom int) {
	top = clamp(top, 0, f.H-1)
	bottom = clamp(bottom, 0, f.H-1)
	if top >= bottom {
		// Invalid region resets to full screen, per DEC behavior.
		top, bottom = 0, f.H-1
	}
	f.DS.ScrollTop, f.DS.ScrollBottom = top, bottom
}

// SaveCursor implements DECSC.
func (f *Framebuffer) SaveCursor() {
	f.DS.savedCursorSet = true
	f.DS.SavedCursorRow = f.DS.CursorRow
	f.DS.SavedCursorCol = f.DS.CursorCol
	f.DS.SavedRend = f.DS.Rend
	f.DS.SavedOriginMode = f.DS.OriginMode
}

// RestoreCursor implements DECRC.
func (f *Framebuffer) RestoreCursor() {
	if !f.DS.savedCursorSet {
		f.MoveCursor(0, 0)
		f.DS.Rend = SGRReset
		return
	}
	f.DS.Rend = f.DS.SavedRend
	f.DS.OriginMode = f.DS.SavedOriginMode
	f.MoveCursor(f.DS.SavedCursorRow, f.DS.SavedCursorCol)
}

// Reset implements RIS: back to the power-on state at the current size.
// The bell count and the echo ack survive: they count the session's events
// rather than describe the screen, and a frame rings the bells a count
// gained but cannot take one back.
func (f *Framebuffer) Reset() {
	bells, ack := f.BellCount, f.EchoAck
	*f = *NewFramebuffer(f.W, f.H)
	f.BellCount, f.EchoAck = bells, ack
}

// SetTab sets a tab stop at the cursor column.
func (f *Framebuffer) SetTab() { f.DS.Tabs[f.DS.CursorCol] = true }

// ClearTab clears a tab stop at the cursor column.
func (f *Framebuffer) ClearTab() { f.DS.Tabs[f.DS.CursorCol] = false }

// ClearAllTabs removes every tab stop.
func (f *Framebuffer) ClearAllTabs() {
	for i := range f.DS.Tabs {
		f.DS.Tabs[i] = false
	}
}

// NextTab returns the next tab stop strictly after col (or the last
// column).
func (f *Framebuffer) NextTab(col int) int {
	for i := col + 1; i < f.W; i++ {
		if f.DS.Tabs[i] {
			return i
		}
	}
	return f.W - 1
}

// PrevTab returns the previous tab stop strictly before col (or 0).
func (f *Framebuffer) PrevTab(col int) int {
	for i := col - 1; i > 0; i-- {
		if f.DS.Tabs[i] {
			return i
		}
	}
	return 0
}

// Ring increments the synchronized bell counter.
func (f *Framebuffer) Ring() { f.BellCount++ }

// SetScrollbackLimit does nothing: a framebuffer keeps no history. It
// remains only because the benchmark harness still calls it.
func (f *Framebuffer) SetScrollbackLimit(int) {}

// MemStats reports this framebuffer's resident screen-state footprint for
// observability (sessiond exports the aggregate over all sessions).
type MemStats struct {
	// ScreenRows is the grid height; SharedScreenRows counts grid rows
	// currently shared copy-on-write with a snapshot.
	ScreenRows, SharedScreenRows int
	// PooledRows counts recycled rows waiting on the free list.
	PooledRows int
}

// MemStats returns the current footprint counters.
func (f *Framebuffer) MemStats() MemStats {
	m := MemStats{
		ScreenRows: len(f.rows),
		PooledRows: len(f.freeRows),
	}
	for _, r := range f.rows {
		if r.shared {
			m.SharedScreenRows++
		}
	}
	return m
}

// AccumulateResident tallies the cell storage this framebuffer keeps
// resident, deduplicated against every backing array already counted in
// seen — so storage shared copy-on-write, and the blank array every blank
// row aliases, is charged once fleet-wide, no matter how many screens
// reference it. sessiond drives it across every screen of every session
// (the live one, the sender's unacknowledged snapshots, released shells) to
// compute resident_bytes_per_session.
func (f *Framebuffer) AccumulateResident(seen map[*Cell]struct{}) (bytes int) {
	count := func(cells []Cell) {
		if len(cells) == 0 {
			return
		}
		key := &cells[0]
		if _, ok := seen[key]; ok {
			return
		}
		seen[key] = struct{}{}
		bytes += len(cells) * cellBytes
	}
	for _, r := range f.rows {
		if r == nil {
			continue // a released shell (see Release)
		}
		count(r.Cells)
	}
	for _, r := range f.freeRows {
		count(r.Cells)
	}
	return bytes
}
