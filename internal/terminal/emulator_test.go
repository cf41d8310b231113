package terminal

import (
	"fmt"
	"strings"
	"testing"
)

func emu(w, h int) *Emulator { return NewEmulator(w, h) }

func cursor(t *testing.T, e *Emulator, row, col int) {
	t.Helper()
	ds := e.Framebuffer().DS
	if ds.CursorRow != row || ds.CursorCol != col {
		t.Fatalf("cursor at (%d,%d), want (%d,%d)", ds.CursorRow, ds.CursorCol, row, col)
	}
}

func rowText(t *testing.T, e *Emulator, row int, want string) {
	t.Helper()
	got := strings.TrimRight(e.Framebuffer().Text(row), " ")
	if got != want {
		t.Fatalf("row %d = %q, want %q", row, got, want)
	}
}

func TestPlainPrinting(t *testing.T) {
	e := emu(80, 24)
	e.WriteString("hello, world")
	rowText(t, e, 0, "hello, world")
	cursor(t, e, 0, 12)
}

func TestCRLF(t *testing.T) {
	e := emu(80, 24)
	e.WriteString("one\r\ntwo\r\nthree")
	rowText(t, e, 0, "one")
	rowText(t, e, 1, "two")
	rowText(t, e, 2, "three")
	cursor(t, e, 2, 5)
}

func TestBareLFKeepsColumn(t *testing.T) {
	e := emu(80, 24)
	e.WriteString("abc\ndef")
	rowText(t, e, 0, "abc")
	rowText(t, e, 1, "   def")
}

func TestAutoWrap(t *testing.T) {
	e := emu(10, 5)
	e.WriteString("0123456789AB")
	rowText(t, e, 0, "0123456789")
	rowText(t, e, 1, "AB")
	cursor(t, e, 1, 2)
	if !e.Framebuffer().Row(0).Cells[9].Wrapped() {
		t.Fatal("soft-wrap flag not set on wrapped line")
	}
}

func TestDeferredWrapSemantics(t *testing.T) {
	// After printing into the last column the cursor stays put; a CR at
	// that point must not lose characters.
	e := emu(10, 5)
	e.WriteString("0123456789")
	cursor(t, e, 0, 9)
	e.WriteString("\r\nnext")
	rowText(t, e, 0, "0123456789")
	rowText(t, e, 1, "next")
}

func TestAutoWrapDisabled(t *testing.T) {
	e := emu(10, 5)
	e.WriteString("\x1b[?7l0123456789XYZ")
	rowText(t, e, 0, "012345678Z")
	cursor(t, e, 0, 9)
}

func TestScrollAtBottom(t *testing.T) {
	e := emu(20, 3)
	e.WriteString("one\r\ntwo\r\nthree\r\nfour")
	rowText(t, e, 0, "two")
	rowText(t, e, 1, "three")
	rowText(t, e, 2, "four")
}

func TestCUPAndRelativeMoves(t *testing.T) {
	e := emu(80, 24)
	e.WriteString("\x1b[10;20H")
	cursor(t, e, 9, 19)
	e.WriteString("\x1b[3A") // up 3
	cursor(t, e, 6, 19)
	e.WriteString("\x1b[2B") // down 2
	cursor(t, e, 8, 19)
	e.WriteString("\x1b[5C") // right 5
	cursor(t, e, 8, 24)
	e.WriteString("\x1b[10D") // left 10
	cursor(t, e, 8, 14)
	e.WriteString("\x1b[H")
	cursor(t, e, 0, 0)
}

func TestCursorClamping(t *testing.T) {
	e := emu(80, 24)
	e.WriteString("\x1b[999;999H")
	cursor(t, e, 23, 79)
	e.WriteString("\x1b[99A\x1b[99D")
	cursor(t, e, 0, 0)
}

func TestEraseInLine(t *testing.T) {
	e := emu(20, 5)
	e.WriteString("abcdefghij\x1b[5G") // cursor to col 5 (0-based 4)
	e.WriteString("\x1b[K")
	rowText(t, e, 0, "abcd")
	e.WriteString("\x1b[2;1Hzzzzzz\x1b[3G\x1b[1K")
	rowText(t, e, 1, "   zzz")
	e.WriteString("\x1b[2K")
	rowText(t, e, 1, "")
}

func TestEraseInDisplay(t *testing.T) {
	e := emu(20, 4)
	e.WriteString("l1\r\nl2\r\nl3\r\nl4\x1b[2;1H\x1b[J")
	rowText(t, e, 0, "l1")
	rowText(t, e, 1, "")
	rowText(t, e, 2, "")
	rowText(t, e, 3, "")

	e = emu(20, 4)
	e.WriteString("aaaa\r\nbbbb\r\ncccc\r\ndddd\x1b[3;2H\x1b[1J")
	rowText(t, e, 0, "")
	rowText(t, e, 1, "")
	rowText(t, e, 2, "  cc") // cells 0-1 of row 3 erased (inclusive)
	rowText(t, e, 3, "dddd")

	e.WriteString("\x1b[2J")
	for i := 0; i < 4; i++ {
		rowText(t, e, i, "")
	}
}

func TestInsertDeleteChars(t *testing.T) {
	blankArrayStaysBlank(t)
	e := emu(10, 3)
	e.WriteString("abcdef\x1b[1;3H\x1b[2@") // insert 2 blanks at col 3
	rowText(t, e, 0, "ab  cdef")
	e.WriteString("\x1b[1;1H\x1b[3P") // delete 3 at col 1
	rowText(t, e, 0, " cdef")
	e.WriteString("\x1b[2X") // erase 2 at cursor without shifting
	rowText(t, e, 0, "  def")
}

func TestInsertDeleteLines(t *testing.T) {
	blankArrayStaysBlank(t)
	e := emu(10, 4)
	e.WriteString("a\r\nb\r\nc\r\nd\x1b[2;1H\x1b[1L")
	rowText(t, e, 0, "a")
	rowText(t, e, 1, "")
	rowText(t, e, 2, "b")
	rowText(t, e, 3, "c")
	e.WriteString("\x1b[1;1H\x1b[2M")
	rowText(t, e, 0, "b")
	rowText(t, e, 1, "c")
	rowText(t, e, 2, "")
}

func TestScrollingRegion(t *testing.T) {
	blankArrayStaysBlank(t)
	e := emu(10, 5)
	e.WriteString("1\r\n2\r\n3\r\n4\r\n5")
	e.WriteString("\x1b[2;4r") // region rows 2..4 (1-based)
	cursor(t, e, 0, 0)         // DECSTBM homes the cursor
	e.WriteString("\x1b[4;1H\n")
	// LF at region bottom scrolls only rows 2..4.
	rowText(t, e, 0, "1")
	rowText(t, e, 1, "3")
	rowText(t, e, 2, "4")
	rowText(t, e, 3, "")
	rowText(t, e, 4, "5")
}

func TestOriginMode(t *testing.T) {
	e := emu(10, 6)
	e.WriteString("\x1b[2;5r\x1b[?6h")
	cursor(t, e, 1, 0) // home within region
	e.WriteString("\x1b[1;1HX")
	rowText(t, e, 1, "X")
	e.WriteString("\x1b[99;1H") // clamped to region bottom
	cursor(t, e, 4, 0)
	e.WriteString("\x1b[?6l")
	cursor(t, e, 0, 0)
}

func TestReverseIndexScrollsDown(t *testing.T) {
	e := emu(10, 3)
	e.WriteString("a\r\nb\r\nc\x1b[1;1H\x1bM")
	rowText(t, e, 0, "")
	rowText(t, e, 1, "a")
	rowText(t, e, 2, "b")
}

func TestSGRBoldColorReset(t *testing.T) {
	e := emu(20, 3)
	e.WriteString("\x1b[1;31mhot\x1b[0m cold")
	c := e.Framebuffer().Cell(0, 0)
	if !c.Rend.Has(AttrBold) || c.Rend.Fg() != PaletteColor(1) {
		t.Fatalf("rendition = %+v", c.Rend)
	}
	c = e.Framebuffer().Cell(0, 4)
	if c.Rend != SGRReset {
		t.Fatalf("post-reset rendition = %+v", c.Rend)
	}
}

func TestSGR256AndTruecolor(t *testing.T) {
	e := emu(20, 3)
	e.WriteString("\x1b[38;5;196mX\x1b[48;2;10;20;30mY")
	if got := e.Framebuffer().Cell(0, 0).Rend.Fg(); got != PaletteColor(196) {
		t.Fatalf("256-color fg = %v", got)
	}
	rend := e.Framebuffer().Cell(0, 1).Rend
	if r, g, b := rend.Bg().RGB(); !rend.Bg().IsRGB() || r != 10 || g != 20 || b != 30 {
		t.Fatalf("truecolor bg = %v", rend.Bg())
	}
}

func TestSGRBrightColors(t *testing.T) {
	e := emu(20, 3)
	e.WriteString("\x1b[97;104mZ")
	rend := e.Framebuffer().Cell(0, 0).Rend
	if rend.Fg() != PaletteColor(15) || rend.Bg() != PaletteColor(12) {
		t.Fatalf("bright colors = %+v", rend)
	}
}

func TestTabStops(t *testing.T) {
	e := emu(40, 3)
	e.WriteString("\tx")
	cursor(t, e, 0, 9)
	e.WriteString("\t\ty")
	cursor(t, e, 0, 25)
	// Custom tab stop.
	e.WriteString("\r\x1b[5C\x1bH\rab\t")
	cursor(t, e, 0, 5)
}

func TestTabClear(t *testing.T) {
	e := emu(40, 3)
	e.WriteString("\x1b[9G\x1b[g\r\t") // clear the stop at col 8
	cursor(t, e, 0, 16)
	e.WriteString("\x1b[3g\r\t") // clear all stops
	cursor(t, e, 0, 39)
}

func TestBackspaceAndBell(t *testing.T) {
	e := emu(10, 3)
	e.WriteString("abc\b\bX\a")
	rowText(t, e, 0, "aXc")
	if e.Framebuffer().BellCount != 1 {
		t.Fatalf("bell count = %d", e.Framebuffer().BellCount)
	}
}

func TestSaveRestoreCursor(t *testing.T) {
	e := emu(20, 5)
	e.WriteString("\x1b[3;7H\x1b[1m\x1b7\x1b[H\x1b[0mmoved\x1b8")
	cursor(t, e, 2, 6)
	if !e.Framebuffer().DS.Rend.Has(AttrBold) {
		t.Fatal("rendition not restored")
	}
}

func TestRIS(t *testing.T) {
	e := emu(20, 5)
	e.WriteString("junk\a\x1b[5;5H\x1bc")
	rowText(t, e, 0, "")
	cursor(t, e, 0, 0)
	// The bell count is the session's, not the screen's: frames ring the
	// bells it gained and cannot unring one.
	if n := e.Framebuffer().BellCount; n != 1 {
		t.Fatalf("bell count after RIS = %d, want 1", n)
	}
}

func TestDECALN(t *testing.T) {
	e := emu(10, 3)
	e.WriteString("\x1b#8")
	rowText(t, e, 0, "EEEEEEEEEE")
	rowText(t, e, 2, "EEEEEEEEEE")
}

func TestWindowTitleOSC(t *testing.T) {
	e := emu(10, 3)
	e.WriteString("\x1b]2;my title\a")
	if e.Framebuffer().Title != "my title" {
		t.Fatalf("title = %q", e.Framebuffer().Title)
	}
	e.WriteString("\x1b]0;other\x1b\\") // ST terminator
	if e.Framebuffer().Title != "other" {
		t.Fatalf("title = %q", e.Framebuffer().Title)
	}
}

func TestUTF8AndWideChars(t *testing.T) {
	e := emu(10, 3)
	e.WriteString("héllo")
	rowText(t, e, 0, "héllo")
	cursor(t, e, 0, 5)
	e.WriteString("\r\n日本")
	cursor(t, e, 1, 4)
	c := e.Framebuffer().Cell(1, 0)
	if !c.Wide() || c.ContentsString() != "日" {
		t.Fatalf("wide cell = %+v", c)
	}
	if e.Framebuffer().Cell(1, 1).ContentsString() != "" {
		t.Fatal("continuation cell not blank")
	}
}

func TestWideCharWrapsEarly(t *testing.T) {
	e := emu(5, 3)
	e.WriteString("abcd日")
	rowText(t, e, 0, "abcd")
	c := e.Framebuffer().Cell(1, 0)
	if c.ContentsString() != "日" {
		t.Fatalf("wide char did not wrap: row1=%q", e.Framebuffer().Text(1))
	}
}

func TestCombiningCharacters(t *testing.T) {
	e := emu(10, 3)
	e.WriteString("éx") // e + combining acute
	c := e.Framebuffer().Cell(0, 0)
	if c.ContentsString() != "é" {
		t.Fatalf("cell contents = %q", c.ContentsString())
	}
	cursor(t, e, 0, 2)
}

func TestInvalidUTF8ReplacementRune(t *testing.T) {
	e := emu(10, 3)
	e.Write([]byte{0xff, 'a', 0xc3, 'b'}) // bad byte; truncated sequence
	got := e.Framebuffer().Text(0)
	if !strings.HasPrefix(got, "�a�b") {
		t.Fatalf("row = %q", got)
	}
}

func TestInsertMode(t *testing.T) {
	e := emu(10, 3)
	e.WriteString("abcdef\x1b[1;1H\x1b[4hXY\x1b[4l")
	rowText(t, e, 0, "XYabcdef")
}

func TestModes(t *testing.T) {
	e := emu(10, 3)
	e.WriteString("\x1b[?1h\x1b[?25l\x1b[?2004h")
	ds := e.Framebuffer().DS
	if !ds.ApplicationCursorKeys || ds.CursorVisible || !ds.BracketedPaste {
		t.Fatalf("modes = %+v", ds)
	}
	e.WriteString("\x1b[?1l\x1b[?25h\x1b[?2004l")
	ds = e.Framebuffer().DS
	if ds.ApplicationCursorKeys || !ds.CursorVisible || ds.BracketedPaste {
		t.Fatalf("modes after reset = %+v", ds)
	}
}

func TestAltScreenApproximation(t *testing.T) {
	e := emu(10, 3)
	e.WriteString("shell$\x1b[?1049h")
	rowText(t, e, 0, "") // entering alt screen clears
	e.WriteString("full-app\x1b[?1049l")
	rowText(t, e, 0, "") // leaving clears again
	cursor(t, e, 0, 6)   // cursor restored to saved position
}

func TestDSRReports(t *testing.T) {
	e := emu(80, 24)
	e.WriteString("\x1b[5n")
	if got := string(e.TakeAnswerback()); got != "\x1b[0n" {
		t.Fatalf("status report = %q", got)
	}
	e.WriteString("\x1b[7;11H\x1b[6n")
	if got := string(e.TakeAnswerback()); got != "\x1b[7;11R" {
		t.Fatalf("CPR = %q", got)
	}
	if e.TakeAnswerback() != nil {
		t.Fatal("answerback not drained")
	}
}

func TestDeviceAttributes(t *testing.T) {
	e := emu(80, 24)
	e.WriteString("\x1b[c")
	if got := string(e.TakeAnswerback()); got != "\x1b[?62c" {
		t.Fatalf("DA = %q", got)
	}
}

func TestREP(t *testing.T) {
	e := emu(20, 3)
	e.WriteString("x\x1b[4b")
	rowText(t, e, 0, "xxxxx")
}

func TestVPAAndCHA(t *testing.T) {
	e := emu(20, 10)
	e.WriteString("\x1b[5d\x1b[8G")
	cursor(t, e, 4, 7)
}

func TestCSIIgnoresGarbage(t *testing.T) {
	e := emu(20, 3)
	e.WriteString("\x1b[>1;2;3mok\x1b[?9999hfine")
	rowText(t, e, 0, "okfine")
}

func TestCANAbortsSequence(t *testing.T) {
	e := emu(20, 3)
	e.Write([]byte{0x1b, '[', '3', 0x18, 'A'})
	rowText(t, e, 0, "A")
}

func TestStringSequencesSwallowed(t *testing.T) {
	e := emu(20, 3)
	e.WriteString("\x1bPsome dcs junk\x1b\\after")
	rowText(t, e, 0, "after")
	e.WriteString("\r\x1b_apc stuff\x1b\\ok")
	rowText(t, e, 0, "okter") // "ok" overprints the start of "after"
}

func TestResizePreservesContent(t *testing.T) {
	blankArrayStaysBlank(t)
	e := emu(20, 5)
	e.WriteString("keep me\r\nline2")
	e.Resize(30, 8)
	rowText(t, e, 0, "keep me")
	rowText(t, e, 1, "line2")
	fb := e.Framebuffer()
	if fb.W != 30 || fb.H != 8 || fb.DS.ScrollBottom != 7 {
		t.Fatalf("resize state: %dx%d bottom=%d", fb.W, fb.H, fb.DS.ScrollBottom)
	}
	e.Resize(5, 2)
	rowText(t, e, 0, "keep")
}

func TestCloneIndependence(t *testing.T) {
	e := emu(10, 3)
	e.WriteString("original")
	snap := e.Framebuffer().Clone()
	e.WriteString("\x1b[2J\x1b[Hchanged")
	if strings.TrimRight(snap.Text(0), " ") != "original" {
		t.Fatal("clone mutated by later writes")
	}
	if !snap.Equal(snap.Clone()) {
		t.Fatal("clone not equal to itself")
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	a, b := emu(10, 3), emu(10, 3)
	if !a.Framebuffer().Equal(b.Framebuffer()) {
		t.Fatal("fresh framebuffers differ")
	}
	b.WriteString("x")
	if a.Framebuffer().Equal(b.Framebuffer()) {
		t.Fatal("content difference not detected")
	}
	a.WriteString("x")
	if !a.Framebuffer().Equal(b.Framebuffer()) {
		t.Fatal("identical content reported different")
	}
	b.WriteString("\x1b[?25l")
	if a.Framebuffer().Equal(b.Framebuffer()) {
		t.Fatal("cursor-visibility difference not detected")
	}
}

func TestScrollbackPerformanceGuard(t *testing.T) {
	// Flooding output ("cat large file") must not grow memory per line;
	// just sanity-check a large write completes and the screen holds the
	// tail.
	e := emu(80, 24)
	var sb strings.Builder
	for i := 0; i < 10000; i++ {
		sb.WriteString("line ")
		sb.WriteString(string(rune('0' + i%10)))
		sb.WriteString("\r\n")
	}
	e.WriteString(sb.String())
	rowText(t, e, 22, "line 9")
}

func TestKeyEncoding(t *testing.T) {
	if got := string(EncodeRune('a')); got != "a" {
		t.Fatalf("rune a = %q", got)
	}
	if got := string(EncodeRune('é')); got != "é" {
		t.Fatalf("rune é = %q", got)
	}
	if got := string(EncodeSpecial(KeyUp, false)); got != "\x1b[A" {
		t.Fatalf("up = %q", got)
	}
	if got := string(EncodeSpecial(KeyUp, true)); got != "\x1bOA" {
		t.Fatalf("app-mode up = %q", got)
	}
	if got := string(EncodeSpecial(KeyPageDown, false)); got != "\x1b[6~" {
		t.Fatalf("pgdn = %q", got)
	}
	if got := string(EncodeSpecial(KeyF5, false)); got != "\x1b[15~" {
		t.Fatalf("f5 = %q", got)
	}
	if EncodeSpecial(KeyNone, false) != nil {
		t.Fatal("KeyNone should encode to nothing")
	}
}

func TestRuneWidths(t *testing.T) {
	cases := []struct {
		r    rune
		want int
	}{
		{'a', 1}, {'é', 1}, {'日', 2}, {'한', 2}, {0x0301, 0}, {'🙂', 2}, {'ｱ', 1},
	}
	for _, c := range cases {
		if got := RuneWidth(c.r); got != c.want {
			t.Errorf("RuneWidth(%q) = %d, want %d", c.r, got, c.want)
		}
	}
}

func TestScrollbackCapturesHistory(t *testing.T) {
	e := emu(40, 4)
	for i := 0; i < 10; i++ {
		fmt.Fprintf(e, "history line %d\r\n", i)
	}
	fb := e.Framebuffer()
	// 4 visible rows; with the cursor on the last row, 7 lines scrolled off.
	if fb.ScrollbackLines() != 7 {
		t.Fatalf("scrollback holds %d lines, want 7", fb.ScrollbackLines())
	}
	if got := strings.TrimRight(fb.ScrollbackText(0), " "); got != "history line 0" {
		t.Fatalf("oldest history = %q", got)
	}
	if got := strings.TrimRight(fb.ScrollbackText(6), " "); got != "history line 6" {
		t.Fatalf("newest history = %q", got)
	}
}

func TestScrollbackLimit(t *testing.T) {
	e := emu(40, 3)
	e.Framebuffer().SetScrollbackLimit(5)
	for i := 0; i < 50; i++ {
		fmt.Fprintf(e, "line %d\r\n", i)
	}
	fb := e.Framebuffer()
	if fb.ScrollbackLines() != 5 {
		t.Fatalf("limit not enforced: %d", fb.ScrollbackLines())
	}
	// Keeps the newest history.
	if got := strings.TrimRight(fb.ScrollbackText(4), " "); got != "line 47" {
		t.Fatalf("newest retained = %q", got)
	}
	fb.SetScrollbackLimit(-1)
	e.WriteString("more\r\nmore\r\n")
	if fb.ScrollbackLines() != 0 {
		t.Fatal("disabled scrollback still collecting")
	}
}

func TestScrollbackExcludesRegionScrolls(t *testing.T) {
	e := emu(40, 10)
	e.WriteString("\x1b[3;7r") // partial scrolling region
	e.WriteString("\x1b[7;1H\n\n\n")
	if e.Framebuffer().ScrollbackLines() != 0 {
		t.Fatal("region-internal scroll leaked into history")
	}
}
