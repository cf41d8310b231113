// Package terminal implements the character-cell terminal emulator at the
// heart of Mosh (paper §3.1): a parser and interpreter for the subset of
// the ISO/IEC 6429 / ECMA-48 control language used by xterm and friends,
// a framebuffer holding the screen state, and a renderer that produces the
// minimal byte string transforming one screen state into another — the
// "logical diff" SSP ships from server to client.
//
// # Memory model
//
// The cell is the data structure every layer above iterates over millions
// of times per second, and a session's resident memory is its cells, so a
// row stores each one as a compact pointer-free value of 6 bytes — three
// 16-bit words — and keeps the rendition, which almost every cell of a row
// shares with its neighbours, once per row in a palette:
//
//	stored cell  [47:32] palette index: 0 = default rendition, k = palette[k-1]
//	             [31] grapheme-table index flag  [30] wide  [29] wrap  [20:0] rune, or [15:0] table index
//	palette fg   [31:25] invisible inverse blink underline italic faint bold  [24] RGB  [23:0] RGB | palette+1 | 0
//	palette bg   [31:25] zero                                                 [24] RGB  [23:0] RGB | palette+1 | 0
//
// Cell, the value callers build and read (Framebuffer.Cell, SetCell), is the
// content word beside its unpacked Renditions: 12 bytes, never stored in a
// row. What the layout and the ownership rules around it buy:
//
//   - Cell contents are a packed word: blank, an inline single rune
//     (ASCII, CJK, emoji — the overwhelming majority), or an index into a
//     process-wide append-only grapheme intern table holding multi-rune
//     combining clusters (see intern.go). Printing never allocates in
//     steady state, cell equality is two integer compares, and rows contain
//     no pointers for the garbage collector to trace.
//   - Renditions is the packed value itself, as in the reference
//     implementation, read and written through methods: one representation,
//     not an API struct and a stored twin.
//   - A row's palette holds distinct non-default renditions, never more
//     entries than the row has columns, so a 16-bit index suffices up to
//     MaxDim. A write in a rendition the palette lacks appends it. When the
//     palette is full, the rendition takes the entry the written cell
//     leaves unused, in place, if the row allocated the array; otherwise
//     the palette is rebuilt from the renditions the row's cells still use,
//     the written span left out, into an array with room for one more
//     (Row.compact). So a stream of fresh truecolour cells keeps a row
//     within width × (6 + 8) bytes, and allocates nothing once the palette
//     is full; each such write scans the palette, and the row for the
//     entry's other users.
//     A clone shares its source's palette capped at its length
//     (pal[:n:n]), so neither ever appends into the other's entries. Rows
//     whose palettes agree on their common length (one is a prefix of the
//     other: a row and its clone, a line repainted in the same colours, a
//     row against the blank baseline) compare stored cells directly.
//   - Framebuffer.Clone is copy-on-write: it shares *Row pointers and
//     marks them shared. Rows are immutable once shared — every mutation
//     path first materializes a private copy (writableRow) — so a snapshot
//     costs O(height), not O(width×height). CloneInto additionally reuses
//     a retired snapshot's shell, making the sender's steady-state snapshot
//     fully allocation-free; the shell waits on its free list Released,
//     referencing no row.
//   - A blank row with the default background owns no cells: it is born
//     aliasing one process-wide blank array (newBlankRow) and marked shared,
//     so a fleet's blank lines cost a row header each until they are written.
//
// Go's allocator rounds a row's cells up to a size class, and at 6 bytes a
// cell the common widths land on classes that halve what 12 bytes took:
//
//	columns   12-byte cells    6-byte cells
//	80         960 → 1024       480
//	132       1584 → 1792       792 →  896
//	162       1944 → 2048       972 → 1024
//
// The row header (cells, palette, generation, two flags) is 64 bytes, and a
// row's palette costs 8 bytes an entry of its capacity, nothing while every
// cell of the row is in the default rendition.
//
// # Snapshot and diff performance
//
// The SSP sender snapshots the screen on every send and diffs the live
// screen against a retained snapshot on every tick, so both operations are
// engineered off the row-generation numbers Framebuffer maintains:
//
//   - FrameWriter renders diffs with reusable scratch and appends into a
//     caller-owned buffer; with a long-lived writer (one per sender) the
//     steady-state diff path performs zero heap allocations. NewFrame is
//     the convenience wrapper that allocates per call.
//   - Scroll detection and unchanged-row skipping compare generations
//     (and row pointers), never cells, except for rows that actually
//     changed.
package terminal

import (
	"strconv"
	"unicode/utf8"
	"unsafe"
)

// Color encodes a cell color: the zero value is the terminal default;
// values 1..256 are the 256-color palette entries 0..255; RGB truecolor
// sets the top bit.
type Color uint32

const (
	// ColorDefault is the terminal's default foreground or background.
	ColorDefault Color = 0
	rgbBit             = Color(1) << 31
)

// PaletteColor returns the indexed palette color n (0..255).
func PaletteColor(n uint8) Color { return Color(n) + 1 }

// RGBColor returns a 24-bit truecolor value.
func RGBColor(r, g, b uint8) Color {
	return rgbBit | Color(r)<<16 | Color(g)<<8 | Color(b)
}

// IsRGB reports whether the color is a truecolor value.
func (c Color) IsRGB() bool { return c&rgbBit != 0 }

// Palette returns the palette index for an indexed color.
func (c Color) Palette() uint8 { return uint8(c - 1) }

// RGB returns the components of a truecolor value.
func (c Color) RGB() (r, g, b uint8) {
	return uint8(c >> 16), uint8(c >> 8), uint8(c)
}

// Attr is a set of SGR rendition attributes. The bit order is the order of
// the rendition flag byte in the snapshot format (see serialize.go), which
// is Attr >> attrShift.
type Attr uint32

// attrShift places the attribute bits above the 25-bit colour in the
// foreground word of a Renditions.
const attrShift = 25

const (
	AttrBold Attr = 1 << (attrShift + iota)
	AttrFaint
	AttrItalic
	AttrUnderline
	AttrBlink
	AttrInverse
	AttrInvisible

	attrMask = AttrBold | AttrFaint | AttrItalic | AttrUnderline | AttrBlink | AttrInverse | AttrInvisible
)

// colorMask covers a packed colour: the RGB flag (bit 24) over 24 bits of
// RGB, or a palette value 0..256.
const colorMask = 1<<attrShift - 1

// packColor squeezes a Color into 25 bits by moving its RGB flag from bit
// 31 to bit 24; unpackColor is the inverse.
func packColor(c Color) uint32   { return uint32(c)&(1<<24-1) | uint32(c>>31)<<24 }
func unpackColor(w uint32) Color { return Color(w&(1<<24-1)) | Color(w>>24&1)<<31 }

// Renditions is the graphic state applied to printed characters (SGR),
// packed into two words as the reference implementation packs its own:
//
//	fg  [31:25] attributes (invisible … bold)  [24] RGB flag  [23:0] RGB, or palette+1, or 0 = default
//	bg  [31:25] zero                           [24] RGB flag  [23:0] likewise
//
// There is one representation — the packed one is what cells store, what
// the emulator's draw state carries and what callers hold — so comparing
// two renditions is an integer compare. The zero value is the default
// rendition. Read and write it through the methods.
type Renditions struct {
	fg, bg uint32
}

// SGRReset is the default rendition.
var SGRReset = Renditions{}

// Fg returns the foreground colour.
func (r Renditions) Fg() Color { return unpackColor(r.fg) }

// Bg returns the background colour.
func (r Renditions) Bg() Color { return unpackColor(r.bg) }

// SetFg sets the foreground colour.
func (r *Renditions) SetFg(c Color) { r.fg = r.fg&^colorMask | packColor(c) }

// SetBg sets the background colour.
func (r *Renditions) SetBg(c Color) { r.bg = packColor(c) }

// Has reports whether every attribute in a is set.
func (r Renditions) Has(a Attr) bool { return Attr(r.fg)&a == a }

// Set switches the attributes in a on or off.
func (r *Renditions) Set(a Attr, on bool) {
	if on {
		r.fg |= uint32(a & attrMask)
	} else {
		r.fg &^= uint32(a & attrMask)
	}
}

// background returns the default rendition over r's background: what an
// erased cell carries.
func (r Renditions) background() Renditions { return Renditions{bg: r.bg} }

// sgrAttrs lists the attributes in SGR parameter order.
var sgrAttrs = [...]struct {
	attr  Attr
	param string
}{
	{AttrBold, ";1"}, {AttrFaint, ";2"}, {AttrItalic, ";3"}, {AttrUnderline, ";4"},
	{AttrBlink, ";5"}, {AttrInverse, ";7"}, {AttrInvisible, ";8"},
}

// appendANSI appends the escape sequence that establishes r starting from
// the default rendition (always beginning with a reset) to buf. It is the
// allocation-free emission path the frame renderer uses.
func (r Renditions) appendANSI(buf []byte) []byte {
	buf = append(buf, "\x1b[0"...)
	if Attr(r.fg)&attrMask != 0 {
		for _, a := range sgrAttrs {
			if r.Has(a.attr) {
				buf = append(buf, a.param...)
			}
		}
	}
	buf = appendColor(buf, 30, r.Fg())
	buf = appendColor(buf, 40, r.Bg())
	return append(buf, 'm')
}

func appendColor(buf []byte, base int, c Color) []byte {
	switch {
	case c == ColorDefault:
	case c.IsRGB():
		cr, cg, cb := c.RGB()
		buf = append(buf, ';')
		buf = strconv.AppendUint(buf, uint64(base+8), 10)
		buf = append(buf, ";2;"...)
		buf = strconv.AppendUint(buf, uint64(cr), 10)
		buf = append(buf, ';')
		buf = strconv.AppendUint(buf, uint64(cg), 10)
		buf = append(buf, ';')
		buf = strconv.AppendUint(buf, uint64(cb), 10)
	case c.Palette() < 8:
		buf = append(buf, ';')
		buf = strconv.AppendUint(buf, uint64(base+int(c.Palette())), 10)
	default:
		buf = append(buf, ';')
		buf = strconv.AppendUint(buf, uint64(base+8), 10)
		buf = append(buf, ";5;"...)
		buf = strconv.AppendUint(buf, uint64(c.Palette()), 10)
	}
	return buf
}

// Cell is one character cell of the screen as callers build and read it: a
// pointer-free value of three 32-bit words, the packed content word and the
// cell's Renditions. Rows store it as a 6-byte storedCell over a per-row
// rendition palette; the package comment has the bit map.
type Cell struct {
	// content is the packed grapheme word — blank, an inline rune, or a
	// grapheme intern table index (see intern.go) — with the cell's two
	// flags in spare high bits: wide marks the leading half of a
	// double-width character (the cell to its right must be a blank
	// continuation), wrap that the line soft-wrapped after this
	// (last-column) cell. Read the grapheme through glyph and mutate it only
	// through SetRune (or the emulator's print path and the snapshot codec) so
	// inline/interned canonicalization — which cell equality relies on — is
	// preserved.
	content uint32
	// Rend is the graphic rendition the cell was printed with.
	Rend Renditions
}

// storedCell is how a row keeps a cell: the content word, split into two
// 16-bit halves so the cell packs into three 16-bit words, and the index of
// its rendition in the row's palette (Row.pal) — 0 for the default
// rendition, k for the palette's entry k-1. Six bytes and pointer-free, so a
// row's backing array is allocated noscan and never traced; the package
// comment has the bit map. Rows store cells only in this form: Cell is the
// value callers build and read, and Row.get and Row.set translate.
type storedCell struct {
	lo, hi uint16
	rend   uint16
}

// StoredCellBytes is the in-memory footprint of one stored cell: what a
// row's cells cost, and what the resident gauge charges per cell.
const StoredCellBytes = 6

var _ [StoredCellBytes - unsafe.Sizeof(storedCell{})]struct{}
var _ [unsafe.Sizeof(storedCell{}) - StoredCellBytes]struct{}

// rendBytes is the footprint of one palette entry.
const rendBytes = int(unsafe.Sizeof(Renditions{}))

// pack returns the stored form of content with palette index rend.
func pack(content uint32, rend uint16) storedCell {
	return storedCell{lo: uint16(content), hi: uint16(content >> 16), rend: rend}
}

// content returns the packed content word, flags included.
func (s storedCell) content() uint32 { return uint32(s.lo) | uint32(s.hi)<<16 }

// glyph returns the grapheme word without the cell flags.
func (s storedCell) glyph() uint32 { return s.content() &^ flagBits }

// wide reports whether the cell is the leading half of a double-width
// character.
func (s storedCell) wide() bool { return s.content()&wideBit != 0 }

// isBlank is Cell.IsBlank on the stored form: index 0 is the default
// rendition, and a palette never holds it.
func (s storedCell) isBlank() bool {
	w := s.content() &^ wrapBit
	return (w == 0 || w == packedSpace) && s.rend == 0
}

// looksLike is Cell.Equal for two cells of rows whose palettes agree (see
// Row.samePalette), where equal renditions are equal indices.
func (s storedCell) looksLike(o storedCell) bool {
	return s.rend == o.rend && visible(s.content()) == visible(o.content())
}

const (
	wideBit  uint32 = 1 << 30
	wrapBit  uint32 = 1 << 29
	flagBits        = wideBit | wrapBit
)

// packedSpace is the content word of an explicitly printed space, which
// renders identically to a blank cell.
const packedSpace = uint32(' ')

// glyph returns the grapheme word without the cell flags.
func (c Cell) glyph() uint32 { return c.content &^ flagBits }

// setGlyph replaces the grapheme word, keeping the cell flags.
func (c *Cell) setGlyph(g uint32) { c.content = c.content&flagBits | g }

// ContentsString returns the cell's grapheme: a base character plus any
// combining characters, UTF-8 encoded. Empty means blank. (This is the
// read side of the old exported Contents field.)
func (c Cell) ContentsString() string { return contentString(c.glyph()) }

// SetRune replaces the cell's grapheme with a single rune — the
// allocation-free fast path for every plain printed character.
func (c *Cell) SetRune(r rune) { c.setGlyph(packRune(r)) }

// ContentsEmpty reports whether the cell is blank (the old
// Contents == "" test), without materializing a string.
func (c Cell) ContentsEmpty() bool { return c.glyph() == 0 }

// Wide reports whether the cell is the leading half of a double-width
// character.
func (c Cell) Wide() bool { return c.content&wideBit != 0 }

// SetWide marks or unmarks the cell as a double-width leader.
func (c *Cell) SetWide(on bool) {
	if on {
		c.content |= wideBit
	} else {
		c.content &^= wideBit
	}
}

// IsBlank reports whether the cell shows nothing (empty or space, not
// wide, in the default rendition).
func (c Cell) IsBlank() bool {
	w := c.content &^ wrapBit
	return (w == 0 || w == packedSpace) && c.Rend == Renditions{}
}

// visible folds what cannot be seen out of a content word: the soft-wrap
// flag, and a printed space into a blank.
func visible(w uint32) uint32 {
	w &^= wrapBit
	if w&^wideBit == packedSpace {
		w &^= packedSpace
	}
	return w
}

// Equal reports whether two cells render identically — two integer
// compares, thanks to canonical interning. The soft-wrap flag is
// deliberately excluded: it is invisible, and screen diffs (which use
// absolute cursor positioning) cannot reproduce it on the remote side.
func (c Cell) Equal(o Cell) bool {
	return visible(c.content) == visible(o.content) && c.Rend == o.Rend
}

// Wrapped reports whether the line soft-wrapped after this cell.
func (c Cell) Wrapped() bool { return c.content&wrapBit != 0 }

// setWrap marks the cell as the end of a soft-wrapped line.
func (c *Cell) setWrap() { c.content |= wrapBit }

// String renders the cell's visible contents (space when blank).
func (c Cell) String() string {
	if c.glyph() == 0 {
		return " "
	}
	return contentString(c.glyph())
}

// appendContents appends the cell's visible bytes to buf (space when
// blank): the renderer's zero-allocation emission path.
func (c Cell) appendContents(buf []byte) []byte {
	return appendContent(buf, c.glyph())
}

// leadRune returns the cell's base character (0 when blank); REP and the
// prediction engine use it.
func (c Cell) leadRune() rune {
	g := c.glyph()
	switch {
	case g == 0:
		return 0
	case g&graphemeBit == 0:
		return rune(g)
	default:
		r, _ := utf8.DecodeRuneInString(graphemes.lookup(g))
		return r
	}
}

// RuneWidth reports the number of terminal columns r occupies: 0 for
// combining marks, 2 for East Asian wide characters, 1 otherwise. The
// table covers the ranges interactive programs actually emit.
func RuneWidth(r rune) int {
	switch {
	case r == 0:
		return 0
	case r < 32 || (r >= 0x7f && r < 0xa0):
		return 0 // control; never printed into cells
	case isCombining(r):
		return 0
	case isWide(r):
		return 2
	default:
		return 1
	}
}

func isCombining(r rune) bool {
	return (r >= 0x0300 && r <= 0x036f) || // combining diacritical marks
		(r >= 0x1ab0 && r <= 0x1aff) ||
		(r >= 0x1dc0 && r <= 0x1dff) ||
		(r >= 0x20d0 && r <= 0x20ff) ||
		(r >= 0xfe00 && r <= 0xfe0f) || // variation selectors (VS16 widens its cell)
		(r >= 0xfe20 && r <= 0xfe2f) ||
		(r >= 0xe0100 && r <= 0xe01ef) || // variation selectors supplement
		r == 0x200d // zero-width joiner
}

// vs16 is VARIATION SELECTOR-16: it requests emoji presentation, which
// renders at double width even when the base character alone is narrow
// (for example U+2708 AIRPLANE vs U+2708 U+FE0F ✈️).
const vs16 = 0xfe0f

// isPictographic approximates Unicode's Extended_Pictographic property
// over the ranges interactive programs actually emit. Per UAX #29 GB11 a
// ZWJ extends a grapheme cluster only when followed by a pictographic
// rune — ZWJ between ordinary letters (Arabic shaping, Indic half-forms)
// must NOT merge cells.
func isPictographic(r rune) bool {
	switch r {
	case 0x00a9, 0x00ae, 0x203c, 0x2049, 0x2122, 0x2139,
		0x24c2, 0x3030, 0x303d, 0x3297, 0x3299:
		return true
	}
	return (r >= 0x2190 && r <= 0x21ff) || // arrows
		(r >= 0x2300 && r <= 0x23ff) || // misc technical (⌚ ⏰ …)
		(r >= 0x25a0 && r <= 0x27bf) || // geometric, misc symbols, dingbats
		(r >= 0x2934 && r <= 0x2935) ||
		(r >= 0x2b00 && r <= 0x2b5f) || // ⬛ ⭐ …
		(r >= 0x1f000 && r <= 0x1faff) // emoji planes
}

// endsWithZWJ reports whether a packed content word's cluster ends with
// U+200D (zero-width joiner) — the signal that the next printed rune
// joins this cell's emoji sequence instead of starting a new cell.
func endsWithZWJ(content uint32) bool {
	switch {
	case content == 0:
		return false
	case content&graphemeBit == 0:
		return content == 0x200d
	default:
		s := graphemes.lookup(content)
		return len(s) >= 3 && s[len(s)-3:] == "\u200d"
	}
}

func isWide(r rune) bool {
	return (r >= 0x1100 && r <= 0x115f) || // Hangul Jamo
		(r >= 0x2e80 && r <= 0x303e) || // CJK radicals, punctuation
		(r >= 0x3041 && r <= 0x33ff) || // Hiragana..CJK compat
		(r >= 0x3400 && r <= 0x4dbf) ||
		(r >= 0x4e00 && r <= 0x9fff) || // CJK unified
		(r >= 0xa000 && r <= 0xa4cf) ||
		(r >= 0xac00 && r <= 0xd7a3) || // Hangul syllables
		(r >= 0xf900 && r <= 0xfaff) ||
		(r >= 0xfe30 && r <= 0xfe4f) ||
		(r >= 0xff00 && r <= 0xff60) || // fullwidth forms
		(r >= 0xffe0 && r <= 0xffe6) ||
		(r >= 0x1f300 && r <= 0x1f9ff) || // emoji
		(r >= 0x20000 && r <= 0x3fffd)
}
