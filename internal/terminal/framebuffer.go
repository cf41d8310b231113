package terminal

import (
	"sync/atomic"
	"unsafe"
)

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
//
// A row stores its cells in two planes, each as narrow as its cells allow
// (see the package comment): the content plane holds one byte a cell
// (text) until a cell needs the full content word (wide), and the
// rendition-index plane (rends) is absent until a cell needs a rendition
// other than the default. A write that does not fit a plane widens it once,
// in place; only eraseRow narrows a row, by pointing it back at the shared
// blank array. Every decision about a plane's width is made by Row's
// methods; get and set translate to and from Cell.
type Row struct {
	// text is the narrow content plane: a cell's content word as one byte
	// (see narrowLimit). nil once the row is wide.
	text []byte
	// wide is the wide content plane: a cell's content word, its wide flag
	// included. nil while the row is narrow.
	wide []uint32
	// rends holds each cell's palette index, 0 for the default rendition;
	// nil while no cell has needed another.
	rends []uint16
	// pal holds the distinct non-default renditions the cells index, never
	// more entries than there are cells. Only the one private row that
	// allocated the array writes to it (ownPal): a clone takes it capped at
	// its length, so its first append copies, and compact always starts a
	// new array.
	pal []Renditions
	gen uint64
	// wrapped marks that the line soft-wrapped after its last cell: the one
	// cell that can carry the flag, so the row carries it for that cell.
	wrapped bool
	// shared marks a row reachable from more than one framebuffer. Once set
	// it is never cleared on this Row: a framebuffer that wants to write
	// replaces its pointer with a private copy instead.
	shared bool
	// blank marks text as a view of the process-wide blank array
	// (newBlankRow, eraseRow), which nobody writes: the first store gives
	// the row a content plane of its own, narrow or wide as it needs.
	blank bool
	// ownPal marks pal as an array this row allocated. No other row reads
	// such an array while this one is private (a row is cloned only once
	// shared, and a shared row is never written), so index may overwrite
	// an entry nothing uses and newRowPooled may reuse the array.
	ownPal bool
}

// RowHeaderBytes is the footprint of a Row header: its four slice headers,
// the generation and the four flags. The resident gauge charges planes and
// palettes only (AccumulateResident), so a row costs the heap this much
// more.
const RowHeaderBytes = 112

var _ [RowHeaderBytes - unsafe.Sizeof(Row{})]struct{}
var _ [unsafe.Sizeof(Row{}) - RowHeaderBytes]struct{}

// rowGenCounter is global so generations stay unique across every
// framebuffer in the process; atomic because independent sessions (and
// parallel tests/benchmarks) emulate concurrently.
var rowGenCounter atomic.Uint64

func nextGen() uint64 {
	return rowGenCounter.Add(1)
}

// newRow returns a private row of blanks with background bg.
func newRow(width int, bg Renditions) *Row {
	r := &Row{text: make([]byte, width), gen: nextGen()}
	r.fill(0, width, Cell{Rend: bg.background()})
	return r
}

// newBlankRow returns a blank row with the default background that owns no
// cells: it aliases the process-wide blank array every session's blank lines
// share, so the first store to it gives it a content plane of its own.
// Nobody ever writes the blank array.
func newBlankRow(width int) *Row {
	return &Row{text: sharedBlankText(width), gen: nextGen(), blank: true}
}

// touch marks the row modified.
func (r *Row) touch() { r.gen = nextGen() }

// width returns the number of cells: exactly one content plane is set.
func (r *Row) width() int { return len(r.text) + len(r.wide) }

// clone deep-copies the row's planes; the copy is private (not shared) and
// shares the palette, capped so that its appends never reach the source's.
// A row on the blank array has nothing to copy: the clone aliases it too.
func (r *Row) clone() *Row {
	nr := &Row{pal: r.pal[:len(r.pal):len(r.pal)], gen: r.gen, wrapped: r.wrapped}
	switch {
	case r.blank:
		nr.text, nr.blank = r.text, true
	case r.wide != nil:
		nr.wide = make([]uint32, len(r.wide))
		copy(nr.wide, r.wide)
	default:
		nr.text = make([]byte, len(r.text))
		copy(nr.text, r.text)
	}
	if r.rends != nil {
		nr.rends = make([]uint16, len(r.rends))
		copy(nr.rends, r.rends)
	}
	return nr
}

// widen moves the content plane from one byte a cell to the full word.
func (r *Row) widen() {
	w := make([]uint32, len(r.text))
	for i, b := range r.text {
		w[i] = uint32(b)
	}
	r.text, r.wide, r.blank = nil, w, false
}

// ownText gives a row on the blank array a narrow content plane of its
// own; every store to the narrow plane calls it first.
func (r *Row) ownText() {
	if r.blank {
		r.text, r.blank = make([]byte, len(r.text)), false
	}
}

// word returns cell i's content word without the soft-wrap flag.
func (r *Row) word(i int) uint32 {
	if r.text != nil {
		return uint32(r.text[i])
	}
	return r.wide[i]
}

// glyph returns cell i's grapheme word, without the cell flags.
func (r *Row) glyph(i int) uint32 { return r.word(i) &^ flagBits }

// isWide reports whether cell i is the leading half of a double-width
// character; a narrow row holds none.
func (r *Row) isWide(i int) bool { return r.text == nil && r.wide[i]&wideBit != 0 }

// rendIndex returns cell i's palette index.
func (r *Row) rendIndex(i int) uint16 {
	if r.rends == nil {
		return 0
	}
	return r.rends[i]
}

// rendOf returns the rendition palette index k stands for.
func (r *Row) rendOf(k uint16) Renditions {
	if k == 0 {
		return Renditions{}
	}
	return r.pal[k-1]
}

// rendAt returns cell i's rendition.
func (r *Row) rendAt(i int) Renditions { return r.rendOf(r.rendIndex(i)) }

// isBlank is Cell.IsBlank for cell i: index 0 is the default rendition,
// and a palette never holds it.
func (r *Row) isBlank(i int) bool {
	w := r.word(i)
	return (w == 0 || w == packedSpace) && r.rendIndex(i) == 0
}

// get returns cell i.
func (r *Row) get(i int) Cell {
	c := Cell{content: r.word(i), Rend: r.rendAt(i)}
	if r.wrapped && i == r.width()-1 {
		c.content |= wrapBit
	}
	return c
}

// set stores c as cell i.
func (r *Row) set(i int, c Cell) {
	r.setContent(i, c.content)
	if k := r.index(c.Rend, i, i+1); r.rends != nil {
		r.rends[i] = k
	}
}

// fill stores c in cells [from, to). Only the last cell keeps c's soft-wrap
// flag.
func (r *Row) fill(from, to int, c Cell) {
	w := r.storeWrap(to-1, c.content)
	if r.text != nil && w < narrowLimit {
		r.ownText()
		t := r.text[from:to]
		for i := range t {
			t[i] = byte(w)
		}
	} else {
		if r.text != nil {
			r.widen()
		}
		t := r.wide[from:to]
		for i := range t {
			t[i] = w
		}
	}
	if k := r.index(c.Rend, from, to); r.rends != nil {
		t := r.rends[from:to]
		for i := range t {
			t[i] = k
		}
	}
}

// setContent replaces cell i's content word, keeping its rendition.
func (r *Row) setContent(i int, content uint32) {
	w := r.storeWrap(i, content)
	if r.text != nil {
		if w < narrowLimit {
			r.ownText()
			r.text[i] = byte(w)
			return
		}
		r.widen()
	}
	r.wide[i] = w
}

// storeWrap takes the soft-wrap flag of content stored as cell i: the row's
// flag when i is the last cell, dropped anywhere else. It returns content
// without it.
func (r *Row) storeWrap(i int, content uint32) uint32 {
	if i == r.width()-1 {
		r.wrapped = content&wrapBit != 0
	}
	return content &^ wrapBit
}

// putASCII stores run, printable ASCII, as cells [col, col+len(run)) in
// rendition rend: the emulator's bulk print path.
func (r *Row) putASCII(col int, run []byte, rend Renditions) {
	end := col + len(run)
	if r.text != nil {
		r.ownText()
		copy(r.text[col:end], run)
	} else {
		t := r.wide[col:end]
		for i := range t {
			t[i] = uint32(run[i])
		}
	}
	if k := r.index(rend, col, end); r.rends != nil {
		t := r.rends[col:end]
		for i := range t {
			t[i] = k
		}
	}
	if end == r.width() {
		r.wrapped = false
	}
}

// move copies the n cells from src to dst, as ICH and DCH shift a row's
// tail. The last cell then holds a cell that was not last, so a move that
// reaches it clears the soft-wrap flag.
func (r *Row) move(dst, src, n int) {
	if r.text != nil {
		r.ownText()
		copy(r.text[dst:dst+n], r.text[src:])
	} else {
		copy(r.wide[dst:dst+n], r.wide[src:])
	}
	if r.rends != nil {
		copy(r.rends[dst:dst+n], r.rends[src:])
	}
	if dst+n == r.width() {
		r.wrapped = false
	}
}

// index returns rend's palette index, for storing into cells [from, to):
// the caller overwrites them next, so the renditions they hold now do not
// count as in use. The first non-default rendition gives the row its
// rendition-index plane. A rendition the palette lacks is appended. A full
// palette takes it in place of the entry the span's first cell leaves
// unused, when the row owns the array (nothing else reads it); otherwise
// it is first rebuilt from the renditions still in use, which with the span
// left out number fewer than the row's columns.
func (r *Row) index(rend Renditions, from, to int) uint16 {
	if rend == (Renditions{}) {
		return 0
	}
	for i, p := range r.pal {
		if p == rend {
			return uint16(i + 1)
		}
	}
	width := r.width()
	if r.rends == nil {
		r.rends = make([]uint16, width)
	} else if len(r.pal) == width {
		if k := r.rends[from]; k != 0 && r.ownPal && r.unusedOutside(k, from, to) {
			r.pal[k-1] = rend
			return k
		}
		clear(r.rends[from:to])
		r.compact()
	}
	if len(r.pal) == cap(r.pal) {
		// Grown by hand, never past the row's width.
		pal := make([]Renditions, len(r.pal), min(width, max(4, 2*len(r.pal))))
		copy(pal, r.pal)
		r.pal, r.ownPal = pal, true
	}
	r.pal = append(r.pal, rend)
	return uint16(len(r.pal))
}

// unusedOutside reports whether no cell outside [from, to) indexes k.
func (r *Row) unusedOutside(k uint16, from, to int) bool {
	for i, c := range r.rends {
		if c == k && (i < from || i >= to) {
			return false
		}
	}
	return true
}

// compact rebuilds the palette from the renditions the cells use, in the
// order the row first uses them, into a new array with room for the one
// entry the caller appends next: the old array may be shared with a clone.
func (r *Row) compact() {
	remap := make([]uint16, len(r.pal)+1)
	n := uint16(0)
	for i, k := range r.rends {
		if k != 0 && remap[k] == 0 {
			n++
			remap[k] = n
		}
		r.rends[i] = remap[k]
	}
	pal := make([]Renditions, n, min(int(n)+1, r.width()))
	for k, to := range remap[1:] {
		if to != 0 {
			pal[to-1] = r.pal[k]
		}
	}
	r.pal, r.ownPal = pal, true
}

// samePalette reports whether equal indices in r and o stand for equal
// renditions: one palette is a prefix of the other. A row and its clone
// share one array; rows that first used the same renditions in the same
// order (a repainted line, a row against the blank baseline) list them
// alike. Both palettes hold distinct entries, so an index past the shorter
// one's end names a rendition the other row has nowhere.
func (r *Row) samePalette(o *Row) bool {
	a, b := r.pal, o.pal
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 || unsafe.SliceData(a) == unsafe.SliceData(b) {
		return true
	}
	for i, p := range a {
		if b[i] != p {
			return false
		}
	}
	return true
}

// equal reports whether r and o render identically (Cell.Equal, cell by
// cell).
func (r *Row) equal(o *Row) bool {
	if r == o || r.gen == o.gen {
		return true
	}
	n := r.width()
	return n == o.width() && r.nextChange(o, 0, r.samePalette(o)) == n
}

// nextChange returns the first cell at or after x that does not look alike
// in r and o (Cell.Equal), or r's width; samePal is r.samePalette(o), under
// which equal indices are equal renditions. Otherwise renditions are looked
// up cell by cell.
func (r *Row) nextChange(o *Row, x int, samePal bool) int {
	if !samePal {
		n := r.width()
		for ; x < n; x++ {
			if visible(r.word(x)) != visible(o.word(x)) || r.rendAt(x) != o.rendAt(x) {
				return x
			}
		}
		return n
	}
	return indexChange(r.rends, o.rends, x, r.contentChange(o, x))
}

// contentChange returns the first cell at or after x whose content does not
// look alike in r and o, or r's width. Two content planes of one width
// compare their elements.
func (r *Row) contentChange(o *Row, x int) int {
	switch {
	case r.text != nil && o.text != nil:
		a, b := r.text, o.text[:len(r.text)]
		for ; x < len(a); x++ {
			if a[x] != b[x] && foldSpace(a[x]) != foldSpace(b[x]) {
				return x
			}
		}
		return len(a)
	case r.wide != nil && o.wide != nil:
		a, b := r.wide, o.wide[:len(r.wide)]
		for ; x < len(a); x++ {
			if visible(a[x]) != visible(b[x]) {
				return x
			}
		}
		return len(a)
	}
	n := r.width()
	for ; x < n; x++ {
		if visible(r.word(x)) != visible(o.word(x)) {
			return x
		}
	}
	return n
}

// indexChange returns the first cell in [x, end) whose rendition index
// differs between the planes a and b, either of which may be absent (every
// index 0), or end.
func indexChange(a, b []uint16, x, end int) int {
	switch {
	case a == nil && b == nil:
		return end
	case a == nil:
		a, b = b, a
		fallthrough
	case b == nil:
		for a := a[:end]; x < end; x++ {
			if a[x] != 0 {
				return x
			}
		}
		return end
	}
	a, b = a[:end], b[:end]
	for ; x < end; x++ {
		if a[x] != b[x] {
			return x
		}
	}
	return end
}

// blankFrom returns where the run of blank cells that ends the row starts.
func (r *Row) blankFrom() int {
	n := r.width()
	if t := r.text; t != nil {
		if rs := r.rends; rs != nil {
			for n > 0 && foldSpace(t[n-1]) == 0 && rs[n-1] == 0 {
				n--
			}
			return n
		}
		for n > 0 && foldSpace(t[n-1]) == 0 {
			n--
		}
		return n
	}
	for n > 0 && r.isBlank(n-1) {
		n--
	}
	return n
}

// foldSpace is visible for a narrow cell: a printed space looks blank.
func foldSpace(b byte) byte {
	if b == ' ' {
		return 0
	}
	return b
}

// residentBytes charges r's planes and its palette's capacity, less what
// seen already holds of them. A clone sees its source's palette capped at
// the length it took, so the largest view of an array is what counts.
func (r *Row) residentBytes(seen ResidentSet) (bytes int) {
	if len(r.text) > 0 {
		bytes += seen.add(unsafe.Pointer(unsafe.SliceData(r.text)), len(r.text)*NarrowCellBytes)
	}
	if len(r.wide) > 0 {
		bytes += seen.add(unsafe.Pointer(unsafe.SliceData(r.wide)), len(r.wide)*WideCellBytes)
	}
	if len(r.rends) > 0 {
		bytes += seen.add(unsafe.Pointer(unsafe.SliceData(r.rends)), len(r.rends)*RendIndexBytes)
	}
	if cap(r.pal) > 0 {
		bytes += seen.add(unsafe.Pointer(unsafe.SliceData(r.pal)), cap(r.pal)*rendBytes)
	}
	return bytes
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

// NewFramebuffer returns a blank w×h screen, each dimension clamped to
// [1, MaxDim].
func NewFramebuffer(w, h int) *Framebuffer {
	w, h = clamp(w, 1, MaxDim), clamp(h, 1, MaxDim)
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
// row is shared with a snapshot. Every mutation of row contents must go
// through it (directly or via SetCell) to preserve the copy-on-write
// invariant that shared rows are immutable. A row on the blank array needs
// no copy: its stores give it planes of its own (Row.ownText, Row.widen).
func (f *Framebuffer) writableRow(i int) *Row {
	r := f.rows[i]
	if r.shared {
		r = r.clone()
		f.rows[i] = r
	}
	return r
}

// Cell returns the cell at (row, col). It only reads: a row shared with a
// snapshot stays shared.
func (f *Framebuffer) Cell(row, col int) Cell { return f.rows[row].get(col) }

// SetCell stores c at (row, col), first materializing a private copy of a
// shared row, and marks the row modified. The overlay engines paint
// through it; it repairs nothing, so what they store must keep the
// wide-character invariant themselves.
func (f *Framebuffer) SetCell(row, col int, c Cell) {
	r := f.writableRow(row)
	r.set(col, c)
	r.touch()
}

// Text returns the visible contents of row i as a string (for tests and
// examples).
func (f *Framebuffer) Text(i int) string {
	var s []byte
	r := f.rows[i]
	for x := 0; x < f.W; x++ {
		s = appendContent(s, r.glyph(x))
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
// A whole row erased to the default background goes back to the shared
// blank array (eraseRow) instead of filling cells of its own.
func (f *Framebuffer) eraseCells(row, from, to int) {
	from = clamp(from, 0, f.W)
	to = clamp(to, 0, f.W)
	if from >= to {
		return
	}
	if from == 0 && to == f.W && f.DS.Rend.bg == 0 {
		f.eraseRow(row)
		return
	}
	r := f.writableRow(row)
	r.fill(from, to, Cell{Rend: f.DS.Rend.background()})
	// A leader just left of the blanked span may have lost its
	// continuation; nothing further out can have changed.
	f.normalizeWideRange(row, from-1, to+1)
	r.touch()
}

// eraseRow blanks row i to the default background by pointing it at the
// shared blank array, so an erased line owns no cells: the one way a row's
// planes narrow. A row already on the array is left as it is, generation
// and all: its contents do not change. A private row keeps its header, now
// aliasing the array like any newBlankRow, so writing it again costs a
// content plane and no header; a shared one is replaced, since a snapshot
// still reads it. The planes and palette a private row drops go to the
// collector, not the free list, which would keep them resident.
func (f *Framebuffer) eraseRow(i int) {
	r := f.rows[i]
	switch {
	case r.blank && !r.wrapped:
	case r.shared:
		f.rows[i] = newBlankRow(f.W)
	default:
		*r = Row{text: sharedBlankText(f.W), gen: nextGen(), blank: true}
	}
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
	words := r.wide
	if words == nil {
		return // a narrow row holds no wide cell
	}
	to = min(to, f.W)
	for col := max(from, 0); col < to; col++ {
		if words[col]&wideBit == 0 {
			continue
		}
		bg := r.rendAt(col).background()
		if col == f.W-1 {
			r.set(col, Cell{Rend: bg})
			continue
		}
		if words[col+1] != 0 || r.rendAt(col+1) != bg {
			// The continuation keeps the row's soft-wrap flag: it is line
			// metadata, not content the leader dictates.
			r.set(col+1, Cell{content: r.get(col+1).content & wrapBit, Rend: bg})
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
// refused (a snapshot still reads them), as are rows on the blank array
// (nobody writes it) and rows of the wrong width; the list is bounded by
// the screen height. A recycled row keeps its planes as wide as they grew.
func (f *Framebuffer) recycleRow(r *Row) {
	if r.shared || r.blank || r.width() != f.W || len(f.freeRows) >= f.H {
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
	if r.ownPal {
		r.pal = r.pal[:0]
	} else {
		r.pal = nil // a snapshot's row may read it
	}
	r.fill(0, f.W, Cell{Rend: bg.background()})
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
	r.move(col+n, col, f.W-n-col)
	r.fill(col, col+n, Cell{Rend: f.DS.Rend.background()})
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
	r.move(col, col+n, f.W-n-col)
	r.fill(f.W-n, f.W, Cell{Rend: f.DS.Rend.background()})
	f.normalizeWide(row)
	r.touch()
}

// Resize changes the screen size, preserving as much content as possible
// (top-left anchored, like the reference implementation). Each dimension
// is clamped to [1, MaxDim], which keeps a row's palette index in 16 bits.
func (f *Framebuffer) Resize(w, h int) {
	w, h = clamp(w, 1, MaxDim), clamp(h, 1, MaxDim)
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
		// every other blank row reads. Its palette is built afresh, so it
		// holds no more entries than the new width.
		r := newRow(w, SGRReset)
		n := min(w, f.W)
		for x := 0; x < n; x++ {
			r.set(x, f.rows[i].get(x))
		}
		// A surviving wide cell split at the boundary becomes blank.
		if n > 0 && r.isWide(n-1) && n == w {
			r.set(n-1, Cell{})
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
	// currently shared copy-on-write with a snapshot or with the blank
	// array.
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
		if r.shared || r.blank {
			m.SharedScreenRows++
		}
	}
	return m
}

// ResidentSet holds the backing arrays AccumulateResident has counted and
// the bytes charged for each. Make one per tally with make(ResidentSet).
type ResidentSet map[unsafe.Pointer]int

// add records that the array at p holds at least n bytes and returns how
// many of them were not yet charged.
func (s ResidentSet) add(p unsafe.Pointer, n int) int {
	prev := s[p]
	if n <= prev {
		return 0
	}
	s[p] = n
	return n - prev
}

// AccumulateResident tallies the cell storage this framebuffer keeps
// resident — each row's planes at their cells' width (NarrowCellBytes or
// WideCellBytes a cell of content, RendIndexBytes a cell of rendition
// indices when the row has that plane), and each palette's capacity at 8
// bytes an entry — deduplicated against every backing array
// already counted in seen. So storage shared copy-on-write (a row and its
// snapshot, a clone and the palette it took from its source), and the blank
// array every blank row aliases, is charged once fleet-wide, no matter how
// many screens reference it. sessiond drives it across every screen of
// every session (the live one, the sender's unacknowledged snapshots,
// released shells) to compute resident_bytes_per_session.
func (f *Framebuffer) AccumulateResident(seen ResidentSet) (bytes int) {
	for _, r := range f.rows {
		if r == nil {
			continue // a released shell (see Release)
		}
		bytes += r.residentBytes(seen)
	}
	for _, r := range f.freeRows {
		bytes += r.residentBytes(seen)
	}
	return bytes
}
