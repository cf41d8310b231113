package terminal

import (
	"encoding/binary"
	"errors"
	"unicode/utf8"

	"repro/internal/binio"
)

// This file implements the compact binary serialization of a Framebuffer —
// the screen grid and draw state — used by internal/sessiond to persist
// sessions across a daemon restart.
//
// The format is versioned and self-delimiting. Cells are run-length encoded
// (screens are overwhelmingly runs of identical blanks), and cell contents
// are written as raw grapheme bytes and re-interned on load (an intern-table
// index is process-local and meaningless in the next incarnation), so the
// serialized form shares storage with nothing. The format still carries a
// history limit and a trailing history window from when screens kept
// scrollback; the encoder writes -1 and an empty window, and the decoder
// refuses a non-empty one.
//
// Encoding is append-only into a caller-owned buffer and performs no heap
// allocations with a warmed buffer (the journal writer's steady state).
// Decoding validates every length against the remaining input and hard
// bounds, so corrupted or truncated input returns ErrBadSnapshot — never a
// panic or an attacker-sized allocation.

// snapshotVersion identifies the framebuffer serialization format.
const snapshotVersion = 1

// ErrBadSnapshot reports a corrupted, truncated, or version-skewed
// framebuffer serialization.
var ErrBadSnapshot = errors.New("terminal: malformed framebuffer snapshot")

// MaxDim is the most columns or rows a screen may have: what a snapshot
// decodes, so a screen inside it is one a journal can restore. A width or
// height from the wire is checked against it (and against 1) where it is
// decoded, before anything is sized by it.
const MaxDim = 1 << 12

// Defensive bounds on decode: anything beyond these is corruption, not a
// screen this codebase can produce.
const (
	snapMaxTitle   = 1 << 13
	snapMaxContent = 1 << 9 // bytes per cell grapheme
)

// DrawState flag bit assignments (order is part of the format).
const (
	snapNextPrintWraps = 1 << iota
	snapSavedCursorSet
	snapSavedOriginMode
	snapInsertMode
	snapOriginMode
	snapAutoWrapMode
	snapCursorVisible
	snapReverseVideo
	snapAppCursorKeys
	snapAppKeypad
	snapBracketedPaste
)

// Cell flag bits.
const (
	snapCellWide = 1 << iota
	snapCellWrap
)

// A rendition is written as its two Color values and one flag byte: bit 0
// bold, then faint, italic, underline, blink, inverse, invisible — the
// order of the Attr bits, which is part of the format.
func appendRenditions(buf []byte, r Renditions) []byte {
	buf = binary.AppendUvarint(buf, uint64(r.Fg()))
	buf = binary.AppendUvarint(buf, uint64(r.Bg()))
	return append(buf, byte(r.fg>>attrShift))
}

// contentByteLen reports how many bytes appendContentBytes will write for a
// packed content word (0 for blank).
func contentByteLen(content uint32) int {
	switch {
	case content == 0:
		return 0
	case content&graphemeBit == 0:
		return utf8.RuneLen(rune(content))
	default:
		return len(graphemes.lookup(content))
	}
}

// appendContentBytes appends the raw grapheme bytes of a content word
// (nothing for blank — unlike appendContent, which substitutes a space for
// rendering).
func appendContentBytes(buf []byte, content uint32) []byte {
	switch {
	case content == 0:
		return buf
	case content&graphemeBit == 0:
		return utf8.AppendRune(buf, rune(content))
	default:
		return append(buf, graphemes.lookup(content)...)
	}
}

func appendCell(buf []byte, c Cell) []byte {
	var fl byte
	if c.Wide() {
		fl |= snapCellWide
	}
	if c.Wrapped() {
		fl |= snapCellWrap
	}
	buf = append(buf, fl)
	buf = binary.AppendUvarint(buf, uint64(contentByteLen(c.glyph())))
	buf = appendContentBytes(buf, c.glyph())
	return appendRenditions(buf, c.Rend)
}

// appendRow run-length encodes one row of cells. A run is cells identical
// in every bit, wrap flag included; within one row that is identical
// stored cells, its palette's entries being distinct.
func appendRow(buf []byte, r *Row) []byte {
	cells := r.cells
	for i := 0; i < len(cells); {
		j := i + 1
		for j < len(cells) && cells[j] == cells[i] {
			j++
		}
		buf = binary.AppendUvarint(buf, uint64(j-i))
		buf = appendCell(buf, r.get(i))
		i = j
	}
	return buf
}

// AppendSnapshot appends a versioned binary serialization of the complete
// screen state — grid, draw state, title and synchronized counters — to buf
// and returns the extended buffer. The
// result aliases no framebuffer storage; rows shared copy-on-write with
// snapshots are only read. With a warmed buffer the encode performs no heap
// allocations.
func (f *Framebuffer) AppendSnapshot(buf []byte) []byte {
	buf = f.appendSnapshotMeta(buf)

	for _, r := range f.rows {
		buf = appendRow(buf, r)
	}

	// The format's history window, always empty: a screen keeps no history.
	return append(buf, 0)
}

// appendSnapshotMeta appends the non-grid prefix of the snapshot format:
// version, dimensions, draw state, title, synchronized counters and the
// format's history limit, always -1 — everything up to (but excluding) the
// cell rows. The
// journal's delta records reuse it to persist screen metadata without
// re-encoding the grid.
func (f *Framebuffer) appendSnapshotMeta(buf []byte) []byte {
	buf = append(buf, snapshotVersion)
	buf = binary.AppendUvarint(buf, uint64(f.W))
	buf = binary.AppendUvarint(buf, uint64(f.H))

	ds := &f.DS
	var fl uint64
	if ds.NextPrintWraps {
		fl |= snapNextPrintWraps
	}
	if ds.savedCursorSet {
		fl |= snapSavedCursorSet
	}
	if ds.SavedOriginMode {
		fl |= snapSavedOriginMode
	}
	if ds.InsertMode {
		fl |= snapInsertMode
	}
	if ds.OriginMode {
		fl |= snapOriginMode
	}
	if ds.AutoWrapMode {
		fl |= snapAutoWrapMode
	}
	if ds.CursorVisible {
		fl |= snapCursorVisible
	}
	if ds.ReverseVideo {
		fl |= snapReverseVideo
	}
	if ds.ApplicationCursorKeys {
		fl |= snapAppCursorKeys
	}
	if ds.ApplicationKeypad {
		fl |= snapAppKeypad
	}
	if ds.BracketedPaste {
		fl |= snapBracketedPaste
	}
	buf = binary.AppendUvarint(buf, fl)
	buf = binary.AppendUvarint(buf, uint64(ds.CursorRow))
	buf = binary.AppendUvarint(buf, uint64(ds.CursorCol))
	buf = binary.AppendUvarint(buf, uint64(ds.ScrollTop))
	buf = binary.AppendUvarint(buf, uint64(ds.ScrollBottom))
	buf = binary.AppendUvarint(buf, uint64(ds.SavedCursorRow))
	buf = binary.AppendUvarint(buf, uint64(ds.SavedCursorCol))
	buf = appendRenditions(buf, ds.Rend)
	buf = appendRenditions(buf, ds.SavedRend)
	// Tab stops as a bitset.
	for i := 0; i < len(ds.Tabs); i += 8 {
		var b byte
		for j := 0; j < 8 && i+j < len(ds.Tabs); j++ {
			if ds.Tabs[i+j] {
				b |= 1 << j
			}
		}
		buf = append(buf, b)
	}

	buf = binary.AppendUvarint(buf, uint64(len(f.Title)))
	buf = append(buf, f.Title...)
	buf = binary.AppendUvarint(buf, f.BellCount)
	buf = binary.AppendUvarint(buf, f.EchoAck)
	return binary.AppendVarint(buf, -1)
}

// decodeColor reads one Color, refusing values no Color constructor makes
// (they would not survive the 25-bit packing).
func decodeColor(r *binio.Reader) (Color, bool) {
	v, ok := r.Uvarint()
	if !ok || v > uint64(^uint32(0)) || unpackColor(packColor(Color(v))) != Color(v) {
		return 0, false
	}
	return Color(v), true
}

func decodeRenditions(r *binio.Reader) (Renditions, bool) {
	var rd Renditions
	fg, ok := decodeColor(r)
	if !ok {
		return rd, false
	}
	bg, ok := decodeColor(r)
	if !ok {
		return rd, false
	}
	fl, ok := r.Byte()
	if !ok {
		return rd, false
	}
	rd.SetFg(fg)
	rd.SetBg(bg)
	rd.Set(Attr(fl)<<attrShift, true)
	return rd, true
}

// decodeRow fills row's cells from RLE runs, re-interning grapheme
// contents.
func decodeRow(r *binio.Reader, row *Row) bool {
	width := len(row.cells)
	for filled := 0; filled < width; {
		run, ok := r.BoundedUvarint(uint64(width - filled))
		if !ok || run == 0 {
			return false
		}
		fl, ok := r.Byte()
		if !ok {
			return false
		}
		clen, ok := r.BoundedUvarint(snapMaxContent)
		if !ok {
			return false
		}
		raw, ok := r.Bytes(int(clen))
		if !ok {
			return false
		}
		rend, ok := decodeRenditions(r)
		if !ok {
			return false
		}
		// Re-intern: the packed word from the previous process is
		// meaningless here; internContents canonicalizes the raw grapheme
		// bytes against this process's table.
		c := Cell{content: internContents(string(raw)), Rend: rend}
		c.SetWide(fl&snapCellWide != 0)
		if fl&snapCellWrap != 0 {
			c.setWrap()
		}
		row.fill(filled, filled+int(run), c)
		filled += int(run)
	}
	return true
}

// decodeNewRow decodes one RLE row into a fresh private row at a new
// generation. Decoding fills cells in place, so it never takes a blank row:
// that one aliases the array every other blank row reads.
func decodeNewRow(r *binio.Reader, width int) (*Row, bool) {
	row := &Row{cells: make([]storedCell, width), gen: nextGen()}
	return row, decodeRow(r, row)
}

// DecodeSnapshot decodes a serialization produced by AppendSnapshot,
// returning the restored framebuffer and the unconsumed remainder of data.
// All storage is freshly allocated; grapheme contents are re-interned into
// this process's table. Any structural inconsistency returns ErrBadSnapshot.
func DecodeSnapshot(data []byte) (*Framebuffer, []byte, error) {
	r := binio.NewReader(data)
	fail := func() (*Framebuffer, []byte, error) { return nil, nil, ErrBadSnapshot }

	ver, ok := r.Byte()
	if !ok || ver != snapshotVersion {
		return fail()
	}
	w, ok := r.BoundedUvarint(MaxDim)
	if !ok || w < 1 {
		return fail()
	}
	h, ok := r.BoundedUvarint(MaxDim)
	if !ok || h < 1 {
		return fail()
	}
	f := NewFramebuffer(int(w), int(h))
	if !decodeSnapshotMeta(&r, f) {
		return fail()
	}

	for i := range f.rows {
		if f.rows[i], ok = decodeNewRow(&r, f.W); !ok {
			return fail()
		}
	}

	// A history window has nothing to restore into.
	if n, ok := r.Uvarint(); !ok || n != 0 {
		return fail()
	}
	return f, r.Rest(), nil
}

// decodeSnapshotMeta decodes the draw-state/title/counter section of the
// snapshot format (everything appendSnapshotMeta wrote after the W and H
// fields) into f, whose dimensions must already be set.
func decodeSnapshotMeta(r *binio.Reader, f *Framebuffer) bool {
	ds := &f.DS

	fl, ok := r.Uvarint()
	if !ok {
		return false
	}
	ds.NextPrintWraps = fl&snapNextPrintWraps != 0
	ds.savedCursorSet = fl&snapSavedCursorSet != 0
	ds.SavedOriginMode = fl&snapSavedOriginMode != 0
	ds.InsertMode = fl&snapInsertMode != 0
	ds.OriginMode = fl&snapOriginMode != 0
	ds.AutoWrapMode = fl&snapAutoWrapMode != 0
	ds.CursorVisible = fl&snapCursorVisible != 0
	ds.ReverseVideo = fl&snapReverseVideo != 0
	ds.ApplicationCursorKeys = fl&snapAppCursorKeys != 0
	ds.ApplicationKeypad = fl&snapAppKeypad != 0
	ds.BracketedPaste = fl&snapBracketedPaste != 0

	coords := []*int{
		&ds.CursorRow, &ds.CursorCol, &ds.ScrollTop, &ds.ScrollBottom,
		&ds.SavedCursorRow, &ds.SavedCursorCol,
	}
	for _, dst := range coords {
		v, ok := r.BoundedUvarint(MaxDim)
		if !ok {
			return false
		}
		*dst = int(v)
	}
	if ds.CursorRow >= f.H || ds.CursorCol >= f.W ||
		ds.ScrollTop >= f.H || ds.ScrollBottom >= f.H || ds.ScrollTop > ds.ScrollBottom {
		return false
	}
	if ds.Rend, ok = decodeRenditions(r); !ok {
		return false
	}
	if ds.SavedRend, ok = decodeRenditions(r); !ok {
		return false
	}
	tabBytes, ok := r.Bytes((f.W + 7) / 8)
	if !ok {
		return false
	}
	for i := range ds.Tabs {
		ds.Tabs[i] = tabBytes[i/8]&(1<<(i%8)) != 0
	}

	tlen, ok := r.BoundedUvarint(snapMaxTitle)
	if !ok {
		return false
	}
	title, ok := r.Bytes(int(tlen))
	if !ok {
		return false
	}
	f.Title = string(title)
	if f.BellCount, ok = r.Uvarint(); !ok {
		return false
	}
	if f.EchoAck, ok = r.Uvarint(); !ok {
		return false
	}
	// The history limit configures nothing any more.
	_, ok = r.Varint()
	return ok
}
