package terminal

import "testing"

// The modern-emoji width rules (ROADMAP "Emoji width"): a cell whose
// cluster ends in VS16 renders at width 2 even when the base character
// alone is narrow, and a ZWJ-joined sequence is ONE cell whose width is
// that of the widest joined rune — not the lead rune's.

func TestVS16WidensNarrowCell(t *testing.T) {
	e := NewEmulator(20, 4)
	e.WriteString("✈️") // AIRPLANE (narrow) + VS16 → emoji presentation, wide
	c := e.Framebuffer().Cell(0, 0)
	if got := c.ContentsString(); got != "✈️" {
		t.Fatalf("cell contents = %q, want the full VS16 cluster", got)
	}
	if !c.Wide() {
		t.Fatal("VS16 cluster must render wide")
	}
	if next := e.Framebuffer().Cell(0, 1); !next.ContentsEmpty() {
		t.Fatalf("continuation cell holds %q, want blank", next.ContentsString())
	}
	if ds := e.Framebuffer().DS; ds.CursorCol != 2 {
		t.Fatalf("cursor at col %d after widening, want 2", ds.CursorCol)
	}
	// The next printed character must land after the continuation.
	e.WriteString("x")
	if got := e.Framebuffer().Cell(0, 2).ContentsString(); got != "x" {
		t.Fatalf("following char at col 2 = %q, want x", got)
	}
}

func TestVS16OnAlreadyWideCellKeepsWidth(t *testing.T) {
	e := NewEmulator(20, 4)
	e.WriteString("\U0001f642️") // 🙂 (already wide) + VS16
	c := e.Framebuffer().Cell(0, 0)
	if !c.Wide() || c.ContentsString() != "\U0001f642️" {
		t.Fatalf("wide base + VS16: wide=%v contents=%q", c.Wide(), c.ContentsString())
	}
	if ds := e.Framebuffer().DS; ds.CursorCol != 2 {
		t.Fatalf("cursor at col %d, want 2 (unchanged by VS16)", ds.CursorCol)
	}
}

func TestZWJSequenceJoinsIntoOneCell(t *testing.T) {
	e := NewEmulator(20, 4)
	e.WriteString("\U0001f469‍\U0001f4bb") // 👩‍💻 woman + ZWJ + laptop
	fb := e.Framebuffer()
	c := fb.Cell(0, 0)
	if got := c.ContentsString(); got != "\U0001f469‍\U0001f4bb" {
		t.Fatalf("cell contents = %q, want the joined sequence in one cell", got)
	}
	if !c.Wide() {
		t.Fatal("joined emoji sequence must be wide")
	}
	// The laptop must NOT occupy its own cell.
	if got := fb.Cell(0, 2).ContentsString(); got != "" {
		t.Fatalf("col 2 holds %q; the joined rune leaked into a second cell", got)
	}
	if ds := fb.DS; ds.CursorCol != 2 {
		t.Fatalf("cursor at col %d, want 2 (one wide cell)", ds.CursorCol)
	}
}

func TestZWJWidestMemberSetsWidth(t *testing.T) {
	// Narrow lead + ZWJ + wide member: the sequence takes the width of the
	// widest joined rune (2), not the lead's (1).
	e := NewEmulator(20, 4)
	e.WriteString("☁‍\U0001f327") // ☁ (narrow) + ZWJ + 🌧 (wide)
	c := e.Framebuffer().Cell(0, 0)
	if got := c.ContentsString(); got != "☁‍\U0001f327" {
		t.Fatalf("cell contents = %q", got)
	}
	if !c.Wide() {
		t.Fatal("sequence with a wide member must render wide")
	}
	if ds := e.Framebuffer().DS; ds.CursorCol != 2 {
		t.Fatalf("cursor at col %d, want 2", ds.CursorCol)
	}

	// And the converse: wide lead + ZWJ + narrow member stays wide.
	e2 := NewEmulator(20, 4)
	e2.WriteString("\U0001f469‍⚕") // 👩 + ZWJ + ⚕ (narrow staff of aesculapius)
	c2 := e2.Framebuffer().Cell(0, 0)
	if !c2.Wide() || c2.ContentsString() != "\U0001f469‍⚕" {
		t.Fatalf("wide-lead join: wide=%v contents=%q", c2.Wide(), c2.ContentsString())
	}
}

func TestMultiZWJSequenceStaysOneCell(t *testing.T) {
	e := NewEmulator(20, 4)
	seq := "\U0001f3f3️‍\U0001f308" // 🏳️‍🌈 flag + VS16 + ZWJ + rainbow
	e.WriteString(seq + "x")
	fb := e.Framebuffer()
	if got := fb.Cell(0, 0).ContentsString(); got != seq {
		t.Fatalf("cell 0 = %q, want the whole flag sequence", got)
	}
	if !fb.Cell(0, 0).Wide() {
		t.Fatal("flag sequence must be wide")
	}
	if got := fb.Cell(0, 2).ContentsString(); got != "x" {
		t.Fatalf("col 2 = %q, want the trailing x", got)
	}
}

func TestZWJBetweenLettersDoesNotJoinCells(t *testing.T) {
	// ZWJ legitimately appears between ordinary characters (Arabic
	// shaping, Indic half-form sequences); per UAX #29 GB11 it only
	// extends a cluster when followed by a pictographic rune, so "B"
	// must get its own cell and the cursor must advance normally.
	e := NewEmulator(20, 4)
	e.WriteString("A\u200dB")
	fb := e.Framebuffer()
	if got := fb.Cell(0, 0).ContentsString(); got != "A\u200d" {
		t.Fatalf("cell 0 = %q, want A with trailing (invisible) ZWJ", got)
	}
	if fb.Cell(0, 0).Wide() {
		t.Fatal("letter cell must stay narrow")
	}
	if got := fb.Cell(0, 1).ContentsString(); got != "B" {
		t.Fatalf("cell 1 = %q, want B in its own cell", got)
	}
	if ds := fb.DS; ds.CursorCol != 2 {
		t.Fatalf("cursor at col %d, want 2", ds.CursorCol)
	}
}

func TestZWJAfterLetterDoesNotSwallowEmoji(t *testing.T) {
	// GB11 requires pictographic runes on BOTH sides of the ZWJ: after
	// letter+ZWJ (Arabic shaping, Indic half-forms), a following emoji
	// starts its own cell rather than merging into the letter's.
	e := NewEmulator(20, 4)
	e.WriteString("A\u200d\U0001f642")
	fb := e.Framebuffer()
	if got := fb.Cell(0, 0).ContentsString(); got != "A\u200d" {
		t.Fatalf("cell 0 = %q, want the letter (with its invisible ZWJ) alone", got)
	}
	if fb.Cell(0, 0).Wide() {
		t.Fatal("letter cell must stay narrow")
	}
	if got := fb.Cell(0, 1).ContentsString(); got != "\U0001f642" {
		t.Fatalf("cell 1 = %q, want the emoji in its own cell", got)
	}
	if !fb.Cell(0, 1).Wide() {
		t.Fatal("emoji cell must be wide")
	}
	if ds := fb.DS; ds.CursorCol != 3 {
		t.Fatalf("cursor at col %d, want 3 (1 + 2)", ds.CursorCol)
	}
}

func TestStaleZWJDoesNotSwallowAfterCursorMove(t *testing.T) {
	// Grapheme clusters break on cursor motion: a cell left holding a
	// dangling ZWJ (truncated earlier write) must not absorb an emoji the
	// application prints after explicitly repositioning next to it.
	e := NewEmulator(20, 4)
	e.WriteString("☁\u200d")     // narrow cloud + dangling ZWJ at (0,0)
	e.WriteString("\x1b[1;2H")   // reposition just after it
	e.WriteString("\U0001f642x") // a NEW emoji cell, then x
	fb := e.Framebuffer()
	if got := fb.Cell(0, 0).ContentsString(); got != "☁\u200d" {
		t.Fatalf("cell 0 = %q, want the stale cluster untouched", got)
	}
	if fb.Cell(0, 0).Wide() {
		t.Fatal("stale cell must stay narrow")
	}
	if got := fb.Cell(0, 1).ContentsString(); got != "\U0001f642" || !fb.Cell(0, 1).Wide() {
		t.Fatalf("cell 1 = %q (wide=%v), want the emoji as its own wide cell",
			got, fb.Cell(0, 1).Wide())
	}
	if got := fb.Cell(0, 3).ContentsString(); got != "x" {
		t.Fatalf("col 3 = %q, want x after the wide emoji", got)
	}
}

func TestVS16OnPlainLetterStaysNarrow(t *testing.T) {
	// A stray variation selector on a non-emoji base (pasted rich text)
	// is zero-width noise in every wcwidth implementation; widening the
	// letter would shift every later column on the line.
	e := NewEmulator(20, 4)
	e.WriteString("a\ufe0fb")
	fb := e.Framebuffer()
	if fb.Cell(0, 0).Wide() {
		t.Fatal("plain letter with VS16 must stay narrow")
	}
	if got := fb.Cell(0, 1).ContentsString(); got != "b" {
		t.Fatalf("col 1 = %q, want b immediately after the narrow cell", got)
	}
	if ds := fb.DS; ds.CursorCol != 2 {
		t.Fatalf("cursor at col %d, want 2", ds.CursorCol)
	}
}

func TestVS16AtLastColumnStaysNarrow(t *testing.T) {
	// No room for a continuation half in the last column: the cell keeps
	// width 1 (the wide-cell invariant — no leader in the last column —
	// outranks emoji presentation).
	e := NewEmulator(10, 4)
	e.WriteString("\x1b[1;10H✈️")
	fb := e.Framebuffer()
	c := fb.Cell(0, 9)
	if c.Wide() {
		t.Fatal("last-column cell must not become a wide leader")
	}
	if got := c.ContentsString(); got != "✈️" {
		t.Fatalf("cluster = %q, want contents retained even though narrow", got)
	}
}

// TestEmojiWidthDiffRoundTrip proves the renderer/diff pipeline carries
// widened cells faithfully: applying the emitted frame to a fresh
// emulator reproduces the exact screen, including widths and cursor.
func TestEmojiWidthDiffRoundTrip(t *testing.T) {
	src := NewEmulator(24, 6)
	src.WriteString("✈️ ok\r\n")
	src.WriteString("\U0001f469‍\U0001f4bb code\r\n")
	src.WriteString("\U0001f3f3️‍\U0001f308 flag")

	frame := NewFrame(false, nil, src.Framebuffer())
	dst := NewEmulator(24, 6)
	dst.Write(frame)

	a, b := src.Framebuffer(), dst.Framebuffer()
	for r := 0; r < a.H; r++ {
		for c := 0; c < a.W; c++ {
			if !a.Cell(r, c).Equal(b.Cell(r, c)) {
				t.Fatalf("cell (%d,%d) differs after round trip: %q/wide=%v vs %q/wide=%v",
					r, c, a.Cell(r, c).ContentsString(), a.Cell(r, c).Wide(),
					b.Cell(r, c).ContentsString(), b.Cell(r, c).Wide())
			}
		}
	}
}
