package terminal

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/binio"
)

// mkRend builds a rendition from its parts.
func mkRend(fg, bg Color, a Attr) Renditions {
	var r Renditions
	r.SetFg(fg)
	r.SetBg(bg)
	r.Set(a, true)
	return r
}

// TestCellIsPointerFree keeps the garbage collector out of the rows: an
// element of each of a row's planes and a palette entry hold no pointer of
// any kind, so a row's backing arrays are allocated noscan and never
// traced, and neither does the Cell callers hold.
func TestCellIsPointerFree(t *testing.T) {
	var walk func(reflect.Type, string)
	walk = func(ty reflect.Type, path string) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)
			}
		case reflect.Array:
			walk(ty.Elem(), path+"[]")
		case reflect.Bool, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint:
		default:
			t.Errorf("%s is a %s: a cell must hold no pointers", path, ty.Kind())
		}
	}
	walk(reflect.TypeOf(Cell{}), "Cell")
	walk(reflect.TypeOf(Row{}.text).Elem(), "Row.text[]")
	walk(reflect.TypeOf(Row{}.wide).Elem(), "Row.wide[]")
	walk(reflect.TypeOf(Row{}.rends).Elem(), "Row.rends[]")
	walk(reflect.TypeOf(Renditions{}), "Renditions")
}

// oracleANSI is the rendition escape sequence spelled out attribute by
// attribute, as the struct-of-bools representation produced it.
func oracleANSI(attrs [7]bool, fg, bg Color) string {
	var sb strings.Builder
	sb.WriteString("\x1b[0")
	for i, p := range []int{1, 2, 3, 4, 5, 7, 8} {
		if attrs[i] {
			fmt.Fprintf(&sb, ";%d", p)
		}
	}
	for _, c := range []struct {
		base int
		c    Color
	}{{30, fg}, {40, bg}} {
		switch {
		case c.c == ColorDefault:
		case c.c.IsRGB():
			r, g, b := c.c.RGB()
			fmt.Fprintf(&sb, ";%d;2;%d;%d;%d", c.base+8, r, g, b)
		case c.c.Palette() < 8:
			fmt.Fprintf(&sb, ";%d", c.base+int(c.c.Palette()))
		default:
			fmt.Fprintf(&sb, ";%d;5;%d", c.base+8, c.c.Palette())
		}
	}
	sb.WriteByte('m')
	return sb.String()
}

// TestCellPackUnpackExhaustive walks every attribute subset × a foreground
// and a background from each colour class × wide × wrap, and checks that
// the packed cell gives back exactly what went in through every door:
// accessors, the SGR string, the snapshot codec, equality, and a row's
// stored form — set then get, across palette compactions.
func TestCellPackUnpackExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	colors := []Color{
		ColorDefault, PaletteColor(0), PaletteColor(7), PaletteColor(8), PaletteColor(255),
		RGBColor(0, 0, 0), RGBColor(0xff, 0xff, 0xff),
		RGBColor(uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256))),
	}
	attrList := []Attr{AttrBold, AttrFaint, AttrItalic, AttrUnderline, AttrBlink, AttrInverse, AttrInvisible}
	glyphs := []string{"", " ", "x", "日", "é"}
	cases := 0
	var all []Cell
	for subset := 0; subset < 1<<len(attrList); subset++ {
		var attrs Attr
		var bools [7]bool
		for i, a := range attrList {
			if subset&(1<<i) != 0 {
				attrs |= a
				bools[i] = true
			}
		}
		for _, fg := range colors {
			for _, bg := range colors {
				rend := mkRend(fg, bg, attrs)
				if rend.Fg() != fg || rend.Bg() != bg {
					t.Fatalf("colours %#x/%#x came back as %#x/%#x", fg, bg, rend.Fg(), rend.Bg())
				}
				for i, a := range attrList {
					if rend.Has(a) != bools[i] {
						t.Fatalf("subset %07b: attribute %d reads %v", subset, i, rend.Has(a))
					}
				}
				if got, want := rend.ANSIString(), oracleANSI(bools, fg, bg); got != want {
					t.Fatalf("subset %07b fg %#x bg %#x: SGR %q, want %q", subset, fg, bg, got, want)
				}
				// Clearing everything that was set lands on the zero value.
				cleared := rend
				cleared.Set(attrs, false)
				cleared.SetFg(ColorDefault)
				cleared.SetBg(ColorDefault)
				if cleared != SGRReset {
					t.Fatalf("subset %07b: cleared rendition is %+v, want zero", subset, cleared)
				}
				for flags := 0; flags < 4; flags++ {
					wide, wrap := flags&1 != 0, flags&2 != 0
					g := glyphs[cases%len(glyphs)]
					cases++
					c := Cell{Rend: rend}
					c.SetContents(g)
					c.SetWide(wide)
					if wrap {
						c.setWrap()
					}
					if c.Wide() != wide || c.Wrapped() != wrap || c.ContentsString() != g || c.Rend != rend {
						t.Fatalf("cell %q wide=%v wrap=%v reads %q wide=%v wrap=%v",
							g, wide, wrap, c.ContentsString(), c.Wide(), c.Wrapped())
					}
					// A new grapheme leaves the flags alone, and the flags the
					// grapheme.
					d := c
					d.SetRune('q')
					if d.Wide() != wide || d.Wrapped() != wrap || d.ContentsString() != "q" {
						t.Fatalf("SetRune disturbed the flags of %+v", c)
					}
					// The codec carries all of it.
					enc := appendCell(nil, c)
					rd := binio.NewReader(append([]byte{1}, enc...))
					back := &Row{text: make([]byte, 1)}
					if !decodeRow(&rd, back) || back.get(0) != c {
						t.Fatalf("cell %+v does not survive the snapshot codec: %+v", c, back.get(0))
					}
					all = append(all, c)
					// wrap is invisible to Equal; everything else is not.
					e := c
					e.content ^= wrapBit
					if !c.Equal(e) || c == e {
						t.Fatalf("soft-wrap flag must be ignored by Equal and seen by ==: %+v", c)
					}
					e = c
					e.SetWide(!wide)
					if c.Equal(e) {
						t.Fatalf("Equal ignored the wide flag of %+v", c)
					}
					blank := g == "" || g == " "
					if c.IsBlank() != (blank && !wide && rend == SGRReset) {
						t.Fatalf("IsBlank(%+v) = %v", c, c.IsBlank())
					}
				}
			}
		}
	}
	// A printed space equals a blank, under any flags and rendition.
	sp, bl := Cell{Rend: mkRend(colors[3], colors[7], AttrBlink)}, Cell{Rend: mkRend(colors[3], colors[7], AttrBlink)}
	sp.SetRune(' ')
	sp.setWrap()
	if !sp.Equal(bl) || !bl.Equal(sp) {
		t.Fatal("printed space and blank compare unequal")
	}
	t.Logf("%d cells checked", cases)
	checkRowStorage(t, all)
}

// checkRowStorage stores cells, in order, round a row narrow enough that
// its palette fills and is rebuilt every few dozen writes, and checks after
// each write that every cell of the row reads back as stored and that the
// palette keeps its rules; every 97th write also forces a compaction. Only
// the last cell keeps a soft-wrap flag: the row carries it for that cell.
func checkRowStorage(t *testing.T, cells []Cell) {
	t.Helper()
	const w = 64
	row := &Row{text: make([]byte, w)}
	shadow := make([]Cell, w)
	for i, c := range cells {
		x := i % w
		row.set(x, c)
		if x != w-1 {
			c.content &^= wrapBit
		}
		shadow[x] = c
		if i%97 == 0 {
			row.compact()
		}
		for y := range shadow {
			if got := row.get(y); got != shadow[y] {
				t.Fatalf("write %d: stored cell %d reads back %+v, want %+v", i, y, got, shadow[y])
			}
		}
		checkPalette(t, row)
	}
}

// checkPalette fails unless row's palette holds distinct non-default
// renditions, no more than the row has columns, and every cell's index
// falls inside it.
func checkPalette(t *testing.T, row *Row) {
	t.Helper()
	if len(row.pal) > row.width() || cap(row.pal) > row.width() {
		t.Fatalf("palette of %d entries (capacity %d) in a %d-column row", len(row.pal), cap(row.pal), row.width())
	}
	if row.rends == nil && len(row.pal) > 0 {
		t.Fatalf("a %d-entry palette on a row with no rendition plane", len(row.pal))
	}
	seen := map[Renditions]bool{}
	for _, r := range row.pal {
		if r == (Renditions{}) || seen[r] {
			t.Fatalf("palette entry %+v is the default rendition or a duplicate", r)
		}
		seen[r] = true
	}
	for x, k := range row.rends {
		if int(k) > len(row.pal) {
			t.Fatalf("cell %d indexes entry %d of a %d-entry palette", x, k, len(row.pal))
		}
	}
}

// ANSIString returns the escape sequence that establishes r starting from
// the default rendition (always beginning with a reset).
func (r Renditions) ANSIString() string { return string(r.appendANSI(nil)) }

// SetContents replaces the cell's grapheme with an arbitrary string,
// interning multi-rune clusters. Empty means blank.
func (c *Cell) SetContents(s string) { c.setGlyph(internContents(s)) }

// setContents replaces the grapheme of cell (row, col) of f through
// SetCell, keeping its flags and rendition.
func setContents(f *Framebuffer, row, col int, s string) {
	c := f.Cell(row, col)
	c.SetContents(s)
	f.SetCell(row, col, c)
}
