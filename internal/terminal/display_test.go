package terminal

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// applyFrame feeds a frame produced by NewFrame into an emulator holding
// base, returning the resulting framebuffer.
func applyFrame(base *Framebuffer, frame []byte) *Framebuffer {
	e := NewEmulator(base.W, base.H)
	e.SetFramebuffer(base.Clone())
	e.Write(frame)
	return e.Framebuffer()
}

func requireFrameTransforms(t *testing.T, last, target *Framebuffer) {
	t.Helper()
	frame := NewFrame(true, last, target)
	got := applyFrame(last, frame)
	if !got.Equal(target) {
		t.Fatalf("frame did not converge\nlast:\n%s\ntarget:\n%s\ngot:\n%s\nframe: %q",
			dump(last), dump(target), dump(got), frame)
	}
}

func dump(f *Framebuffer) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cursor=(%d,%d) visible=%v title=%q bell=%d\n",
		f.DS.CursorRow, f.DS.CursorCol, f.DS.CursorVisible, f.Title, f.BellCount)
	for i := 0; i < f.H; i++ {
		fmt.Fprintf(&b, "|%s|\n", f.Text(i))
	}
	return b.String()
}

func fbFrom(w, h int, script string) *Framebuffer {
	e := NewEmulator(w, h)
	e.WriteString(script)
	return e.Framebuffer()
}

func TestFullRepaintReproducesScreen(t *testing.T) {
	target := fbFrom(40, 8, "hello\r\n\x1b[1;31mred bold\x1b[0m\r\nplain\x1b[5;10Hat 5,10")
	frame := NewFrame(false, nil, target)
	got := applyFrame(NewFramebuffer(40, 8), frame)
	if !got.Equal(target) {
		t.Fatalf("full repaint mismatch:\n%s\nvs\n%s", dump(got), dump(target))
	}
}

func TestIncrementalSingleCharEcho(t *testing.T) {
	last := fbFrom(40, 8, "prompt$ ")
	target := last.Clone()
	e := NewEmulator(40, 8)
	e.SetFramebuffer(target)
	e.WriteString("l")
	requireFrameTransforms(t, last, e.Framebuffer())
	// The remote cursor already stands where the character goes, in the
	// rendition it takes, and stays visible: the frame is the character.
	if frame := NewFrame(true, last, e.Framebuffer()); string(frame) != "l" {
		t.Fatalf("single-character frame is %q, want %q", frame, "l")
	}
}

func TestIncrementalFrameSmallerThanRepaint(t *testing.T) {
	last := fbFrom(80, 24, strings.Repeat("the quick brown fox jumps over the lazy dog\r\n", 20))
	targetE := NewEmulator(80, 24)
	targetE.SetFramebuffer(last.Clone())
	targetE.WriteString("\x1b[12;1Hchanged line")
	target := targetE.Framebuffer()
	inc := NewFrame(true, last, target)
	full := NewFrame(false, nil, target)
	if len(inc) >= len(full)/4 {
		t.Fatalf("incremental frame %d bytes vs full %d; diff not minimal", len(inc), len(full))
	}
	requireFrameTransforms(t, last, target)
}

func TestFrameCarriesTitleBellModes(t *testing.T) {
	last := fbFrom(20, 4, "")
	e := NewEmulator(20, 4)
	e.SetFramebuffer(last.Clone())
	e.WriteString("\x1b]2;new title\a\a\a\x1b[?1h\x1b[?2004h\x1b[?25l")
	requireFrameTransforms(t, last, e.Framebuffer())
}

func TestScrollOptimization(t *testing.T) {
	e := NewEmulator(40, 10)
	for i := 0; i < 10; i++ {
		fmt.Fprintf(e, "line %d\r\n", i)
	}
	last := e.Framebuffer().Clone()
	// Two more lines scroll the content up by two.
	e.WriteString("line 10\r\nline 11\r\n")
	target := e.Framebuffer()
	frame := NewFrame(true, last, target)
	requireFrameTransforms(t, last, target)
	// The frame should use the scroll escape and stay far smaller than a
	// repaint of ten lines.
	if !bytes.Contains(frame, []byte("S")) {
		t.Logf("frame: %q", frame)
		t.Fatal("scroll optimization not used")
	}
}

// TestScrollThenPaintAtOldCursor: the scroll a frame opens with resets the
// scrolling region, and DECSTBM homes the cursor, so a cell painted where
// the cursor stood before the frame needs a move first. Without one the
// client paints it at the top-left corner.
func TestScrollThenPaintAtOldCursor(t *testing.T) {
	e := NewEmulator(80, 24)
	for i := 1; i <= 24; i++ {
		fmt.Fprintf(e, "line %02d", i)
		if i < 24 {
			e.WriteString("\r\n")
		}
	}
	e.WriteString("\x1b[6;4H")
	last := e.Framebuffer().Clone()
	e.WriteString("\x1b[24;1H\n\x1b[6;4HZ\x1b[6;4H")
	target := e.Framebuffer()
	frame := NewFrame(true, last, target)
	if !bytes.Contains(frame, []byte("\x1b[1S")) {
		t.Fatalf("frame does not scroll: %q", frame)
	}
	got := applyFrame(last, frame)
	if row0, row5 := got.Text(0), got.Text(5); row0 != target.Text(0) || row5 != target.Text(5) {
		t.Fatalf("client rows 0 and 5 read %q, %q; want %q, %q\nframe: %q",
			row0, row5, target.Text(0), target.Text(5), frame)
	}
	requireFrameTransforms(t, last, target)
}

// TestFrameBreaksPrintStreamBeforeZWJNeighbour: a host that breaks its print
// stream after a ZWJ-terminated emoji leaves the next emoji in a cell of its
// own. Printed straight after the first, it would join it on the client, so
// the frame moves between them, in a full repaint as in an incremental one.
func TestFrameBreaksPrintStreamBeforeZWJNeighbour(t *testing.T) {
	target := fbFrom(20, 2, "\U0001f469‍\x1b[m\U0001f4bb")
	if got := applyFrame(NewFramebuffer(20, 2), NewFrame(false, nil, target)); !got.Equal(target) {
		t.Fatalf("repaint diverged:\n%s\nvs\n%s", dump(got), dump(target))
	}
	requireFrameTransforms(t, NewFramebuffer(20, 2), target)
}

func TestCursorPositionSynchronized(t *testing.T) {
	last := fbFrom(40, 8, "abc")
	e := NewEmulator(40, 8)
	e.SetFramebuffer(last.Clone())
	e.WriteString("\x1b[6;20H")
	requireFrameTransforms(t, last, e.Framebuffer())
}

func TestWideCharsInFrames(t *testing.T) {
	last := fbFrom(20, 4, "")
	e := NewEmulator(20, 4)
	e.SetFramebuffer(last.Clone())
	e.WriteString("日本語 terminal\r\n漢字")
	requireFrameTransforms(t, last, e.Framebuffer())
}

func TestEraseToEndOptimization(t *testing.T) {
	last := fbFrom(60, 4, strings.Repeat("x", 60))
	e := NewEmulator(60, 4)
	e.SetFramebuffer(last.Clone())
	e.WriteString("\x1b[1;4H\x1b[K") // keep "xxx", clear the rest
	target := e.Framebuffer()
	frame := NewFrame(true, last, target)
	if len(frame) > 80 {
		t.Fatalf("erase-dominated frame is %d bytes: %q", len(frame), frame)
	}
	requireFrameTransforms(t, last, target)
}

func TestColorsSurviveRoundTrip(t *testing.T) {
	last := fbFrom(40, 6, "")
	e := NewEmulator(40, 6)
	e.SetFramebuffer(last.Clone())
	e.WriteString("\x1b[31;44;1malert\x1b[0m \x1b[38;5;200mpink\x1b[0m \x1b[38;2;1;2;3mrgb\x1b[4munder")
	requireFrameTransforms(t, last, e.Framebuffer())
}

// randomScript generates a random but plausible host-output script.
func randomScript(rng *rand.Rand, n int) string {
	var b strings.Builder
	words := []string{"ls", "cat file", "hello world", "日本語", "émigré", "x"}
	for i := 0; i < n; i++ {
		switch rng.Intn(14) {
		case 0:
			b.WriteString("\r\n")
		case 1:
			fmt.Fprintf(&b, "\x1b[%d;%dH", 1+rng.Intn(12), 1+rng.Intn(45))
		case 2:
			fmt.Fprintf(&b, "\x1b[%dm", []int{0, 1, 4, 7, 31, 32, 42, 91}[rng.Intn(8)])
		case 3:
			b.WriteString("\x1b[K")
		case 4:
			b.WriteString("\x1b[2J")
		case 5:
			fmt.Fprintf(&b, "\x1b[%dA", 1+rng.Intn(4))
		case 6:
			fmt.Fprintf(&b, "\x1b[%dL", 1+rng.Intn(3))
		case 7:
			fmt.Fprintf(&b, "\x1b[%dP", 1+rng.Intn(3))
		case 8:
			b.WriteString("\t")
		case 9:
			b.WriteString("\x1b[2;10r\x1b[5;1H\n\x1b[r")
		case 10:
			fmt.Fprintf(&b, "\x1b[%d@", 1+rng.Intn(3))
		case 11:
			b.WriteString("\b")
		default:
			b.WriteString(words[rng.Intn(len(words))])
		}
	}
	return b.String()
}

// TestFrameRoundTripProperty is the central display invariant: for random
// screen evolutions, applying NewFrame(last→target) to last always yields
// target. SSP's convergence depends on this.
func TestFrameRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 200; iter++ {
		w := 10 + rng.Intn(70)
		h := 3 + rng.Intn(21)
		e := NewEmulator(w, h)
		e.WriteString(randomScript(rng, 30))
		last := e.Framebuffer().Clone()
		e.WriteString(randomScript(rng, 20))
		target := e.Framebuffer()
		frame := NewFrame(true, last, target)
		got := applyFrame(last, frame)
		if !got.Equal(target) {
			t.Fatalf("iteration %d (%dx%d): frame diverged\nlast:\n%s\ntarget:\n%s\ngot:\n%s",
				iter, w, h, dump(last), dump(target), dump(got))
		}
		// And the full repaint must agree too.
		got2 := applyFrame(NewFramebuffer(w, h), NewFrame(false, nil, target))
		if !got2.Equal(target) {
			t.Fatalf("iteration %d: full repaint diverged", iter)
		}
	}
}

func TestFrameIdempotentWhenNoChange(t *testing.T) {
	f := fbFrom(40, 8, "static content\x1b[3;3H")
	frame := NewFrame(true, f, f)
	got := applyFrame(f, frame)
	if !got.Equal(f) {
		t.Fatal("no-change frame altered the screen")
	}
	if len(frame) != 0 {
		t.Fatalf("no-change frame is %d bytes: %q", len(frame), frame)
	}
}

func BenchmarkNewFrameOneLineChange(b *testing.B) {
	last := fbFrom(80, 24, strings.Repeat("the quick brown fox jumps over the lazy dog\r\n", 23))
	e := NewEmulator(80, 24)
	e.SetFramebuffer(last.Clone())
	e.WriteString("\x1b[12;1Hchanged")
	target := e.Framebuffer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewFrame(true, last, target)
	}
}

func BenchmarkEmulatorThroughput(b *testing.B) {
	data := []byte(strings.Repeat("some ordinary terminal output line\r\n", 100))
	e := NewEmulator(80, 24)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Write(data)
	}
}

// BenchmarkEmulatorBulk162x64 is one bulk reply of the benchmark's trains
// workload: 96 lines of 160 characters into a 162×64 screen, as sessiond
// runs it.
func BenchmarkEmulatorBulk162x64(b *testing.B) {
	var sb strings.Builder
	for i := 0; i < 96; i++ {
		fmt.Fprintf(&sb, "%-160s\r\n", fmt.Sprintf("%04d %s", i, strings.Repeat("build output ", 11)))
	}
	data := []byte(sb.String())
	e := NewEmulator(162, 64)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Write(data)
	}
}

// TestFrameWriterBlankRowShared pins the baseline row's storage to one
// process-wide array: a writer per session must not cost a blank row per
// session.
func TestFrameWriterBlankRowShared(t *testing.T) {
	var a, b FrameWriter
	wide, narrow := a.blankRow(132), b.blankRow(80)
	if &wide.cells[0] != &narrow.cells[0] {
		t.Fatal("two writers' blank baseline rows do not share storage")
	}
	if len(narrow.cells) != 80 || cap(narrow.cells) != 80 || narrow.gen != 0 {
		t.Fatalf("blank row is len %d cap %d gen %d, want 80/80/0", len(narrow.cells), cap(narrow.cells), narrow.gen)
	}
	for i := range wide.cells {
		if wide.cells[i] != (storedCell{}) {
			t.Fatalf("shared blank cell %d is %+v", i, wide.cells[i])
		}
	}
}

// TestIncrementalFrameMotionBytes pins the cursor motions of incremental
// frames: each move is the shortest of a CUP, a CUF and CR + LFs + CUF, ties
// going to the CUP, and a short run of unchanged ASCII is printed again when
// that is shorter still.
func TestIncrementalFrameMotionBytes(t *testing.T) {
	for _, c := range []struct {
		name, last, host, want string
	}{
		{"next row after a changed row", "", "ab\r\ncd", "ab\r\ncd"},
		{"next row after the last column", "", "abcdefghijklmnopqrst\r\nxy", "abcdefghijklmnopqrst\r\nxy"},
		{"skip of 16 unchanged cells", "0123456789abcdefghij\x1b[H", "X\x1b[1;18HY\x1b[H", "X\x1b[16CY\r"},
		{"identical 2-cell ASCII gap", "abcdef\x1b[H", "X\x1b[1;4HY", "XbcY"},
		{"4 rows down", "", "\x1b[5;1HZ", "\r\n\n\n\nZ"},
		{"6 rows down stays a CUP", "", "\x1b[7;1HZ", "\x1b[7;1HZ"},
		{"same-row move to column 1", "abcdef", "\x1b[1;2HX", "\r\x1b[CX"},
		{"move up is a CUP", "\x1b[3;1Habc", "\x1b[1;1HX", "\x1b[1;1HX"},
	} {
		t.Run(c.name, func(t *testing.T) {
			last := fbFrom(20, 8, c.last)
			e := NewEmulatorWithFramebuffer(last.Clone())
			e.WriteString(c.host)
			frame := NewFrame(true, last, e.Framebuffer())
			if string(frame) != c.want {
				t.Errorf("frame is %q, want %q", frame, c.want)
			}
			requireFrameTransforms(t, last, e.Framebuffer())
		})
	}
}

// TestGapReprintSkipsWideContinuation: a cursor parked on the continuation
// of a wide character must not start a reprint of the cells after it, or
// the printed space destroys the character on the client.
func TestGapReprintSkipsWideContinuation(t *testing.T) {
	for _, c := range []struct{ host, want string }{
		{"\x1b[1;6HX\x1b[1;2H", "\x1b[4CX\r\x1b[C"},
		{"\x1b[1;5HX\x1b[1;2H", "\x1b[3CX\r\x1b[C"},
	} {
		last := fbFrom(20, 4, "字ab\x1b[1;2H")
		e := NewEmulatorWithFramebuffer(last.Clone())
		e.WriteString(c.host)
		frame := NewFrame(true, last, e.Framebuffer())
		if string(frame) != c.want {
			t.Errorf("after %q the frame is %q, want %q", c.host, frame, c.want)
		}
		requireFrameTransforms(t, last, e.Framebuffer())
	}
}

// TestGapReprintKeepsClientCells: a reprint must leave the client's cells as
// they were, word for word, not merely looking alike. A blank and a space
// look alike, so neither is printed again: where the server turned a blank
// into a space, and where a repaint left the client a blank under the
// server's space. The FuzzFrameChain oracle cannot see this, because Equal
// and the repaint fold a space into a blank.
func TestGapReprintKeepsClientCells(t *testing.T) {
	for _, c := range []struct {
		name, last, host string
		repainted        bool // the client holds a repaint of last
	}{
		{"server space over a blank", "ab\x1b[Cd\x1b[1;2H", "\x1b[1;3H \x1b[1;5HX\x1b[1;2H", false},
		{"blank under a server space", "a b\x1b[1;2H", "\x1b[1;3HX\x1b[1;2H", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			last := fbFrom(20, 4, c.last)
			client := last.Clone()
			if c.repainted {
				client = applyFrame(NewFramebuffer(20, 4), NewFrame(false, nil, last))
			}
			e := NewEmulatorWithFramebuffer(last.Clone())
			e.WriteString(c.host)
			got := applyFrame(client, NewFrame(true, last, e.Framebuffer()))
			if !got.Equal(e.Framebuffer()) {
				t.Fatalf("client diverged:\n%s\nvs\n%s", dump(got), dump(e.Framebuffer()))
			}
			for x := 0; x < 20; x++ {
				if !e.Framebuffer().Cell(0, x).Equal(last.Cell(0, x)) {
					continue // a changed cell
				}
				if g, w := got.Cell(0, x).content, client.Cell(0, x).content; g != w {
					t.Errorf("client cell %d went %#x → %#x", x, w, g)
				}
			}
		})
	}
}
