package terminal

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// runeOracle is the run path's reference: an Emulator whose printRun is
// print on each byte, which is what Feed did before it found runs. Feeding
// the same bytes to an Emulator and to a runeOracle must leave identical
// screens.
type runeOracle struct{ *Emulator }

func (o runeOracle) printRun(run []byte) {
	for _, b := range run {
		o.Emulator.print(rune(b))
	}
}

func (o runeOracle) write(data []byte) { o.parser.Feed(data, o) }

// diffScreens compares everything the run path could get wrong: every cell
// (including the soft-wrap flag Equal ignores), the cursor and its deferred
// wrap.
func diffScreens(got, want *Framebuffer) string {
	if got.W != want.W || got.H != want.H {
		return fmt.Sprintf("size %dx%d, want %dx%d", got.W, got.H, want.W, want.H)
	}
	g, w := got.DS, want.DS
	if g.CursorRow != w.CursorRow || g.CursorCol != w.CursorCol || g.NextPrintWraps != w.NextPrintWraps {
		return fmt.Sprintf("cursor (%d,%d wraps=%v), want (%d,%d wraps=%v)",
			g.CursorRow, g.CursorCol, g.NextPrintWraps, w.CursorRow, w.CursorCol, w.NextPrintWraps)
	}
	if g.InsertMode != w.InsertMode || g.AutoWrapMode != w.AutoWrapMode || g.Rend != w.Rend ||
		g.ScrollTop != w.ScrollTop || g.ScrollBottom != w.ScrollBottom {
		return "draw state differs"
	}
	for r := 0; r < want.H; r++ {
		for c := 0; c < want.W; c++ {
			if got.Cell(r, c) != want.Cell(r, c) {
				return fmt.Sprintf("cell (%d,%d) = %+v, want %+v", r, c, got.Cell(r, c), want.Cell(r, c))
			}
		}
	}
	return ""
}

// runPathStream generates steps tokens of terminal output aimed at the run
// path's edges: ASCII runs long enough to cross the right margin, printed
// over wide leaders and continuations, under IRM, with DECAWM off, inside
// scroll regions, next to combining marks, ZWJ sequences and broken UTF-8.
func runPathStream(rng *rand.Rand, w, h, steps int) []byte {
	const ascii = " !#$%&()*+,-./0123456789:;<=>?@ABCXYZ[]^_`abcxyz{|}~"
	wide := []string{"漢", "字", "日", "本", "語", "🙂", "👩", "💻"}
	var b []byte
	for i := 0; i < steps; i++ {
		switch k := rng.Intn(100); {
		case k < 40: // an ASCII run, often longer than the row
			n := 1 + rng.Intn(2*w+2)
			if rng.Intn(3) == 0 {
				n = 1 + rng.Intn(4)
			}
			for j := 0; j < n; j++ {
				b = append(b, ascii[rng.Intn(len(ascii))])
			}
		case k < 50: // wide characters, sometimes a row of them
			for j := 1 + rng.Intn(w/2+1); j > 0; j-- {
				b = append(b, wide[rng.Intn(len(wide))]...)
			}
		case k < 60: // cursor onto any cell, including continuation halves
			b = append(b, fmt.Sprintf("\x1b[%d;%dH", 1+rng.Intn(h), 1+rng.Intn(w))...)
		case k < 64:
			b = append(b, "\r\n"...)
		case k < 67:
			b = append(b, [...]string{"\x1b[4h", "\x1b[4l", "\x1b[4l"}[rng.Intn(3)]...)
		case k < 70:
			b = append(b, [...]string{"\x1b[?7l", "\x1b[?7h", "\x1b[?7h"}[rng.Intn(3)]...)
		case k < 73:
			top := 1 + rng.Intn(h)
			b = append(b, fmt.Sprintf("\x1b[%d;%dr", top, top+rng.Intn(h))...)
		case k < 76: // combining mark, ZWJ, VS16 right after whatever came last
			b = append(b, [...]string{"\u0301", "\u200d", "\ufe0f", "\u200d💻"}[rng.Intn(4)]...)
		case k < 79:
			b = append(b, fmt.Sprintf("\x1b[%dm", [...]int{0, 1, 7, 31, 44, 0}[rng.Intn(6)])...)
		case k < 82:
			b = append(b, fmt.Sprintf("\x1b[%d%c", 1+rng.Intn(w), "@PXb"[rng.Intn(4)])...)
		case k < 85:
			b = append(b, fmt.Sprintf("\x1b[%d%c", rng.Intn(3), "JK"[rng.Intn(2)])...)
		case k < 88:
			b = append(b, fmt.Sprintf("\x1b[%d%c", 1+rng.Intn(3), "LMST"[rng.Intn(4)])...)
		case k < 91:
			b = append(b, "\b\t\x1bM\n\r"[rng.Intn(5)])
		case k < 94: // a UTF-8 sequence cut short, so a run starts mid-sequence
			s := wide[rng.Intn(len(wide))]
			b = append(b, s[:1+rng.Intn(len(s)-1)]...)
		case k < 96:
			b = append(b, byte(0x80+rng.Intn(0x80)))
		case k < 98:
			b = append(b, "\x1b]0;title\x07"...)
		default:
			b = append(b, [...]string{"\x1b#8", "\x1bc", "\x1b[?6h", "\x1b[?6l"}[rng.Intn(4)]...)
		}
	}
	return b
}

// TestRunPathMatchesRunePath is the run path's differential property: over
// random streams and random screen sizes, fed whole and in random chunks,
// the emulator ends where a rune-at-a-time oracle ends, cell for cell.
func TestRunPathMatchesRunePath(t *testing.T) {
	blankArrayStaysBlank(t)
	seeds := 300
	if testing.Short() {
		seeds = 60
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		w, h := 1+rng.Intn(40), 1+rng.Intn(12)
		if seed%10 == 0 {
			w, h = 162, 64
		}
		data := runPathStream(rng, w, h, 400)
		oracle := runeOracle{NewEmulator(w, h)}
		oracle.write(data)

		whole := NewEmulator(w, h)
		whole.Write(data)
		if d := diffScreens(whole.Framebuffer(), oracle.Framebuffer()); d != "" {
			t.Fatalf("seed %d (%dx%d), one Write: %s", seed, w, h, d)
		}

		chunked := NewEmulator(w, h)
		for rest := data; len(rest) > 0; {
			n := 1 + rng.Intn(2*w)
			if n > len(rest) {
				n = len(rest)
			}
			chunked.Write(rest[:n])
			rest = rest[n:]
		}
		if d := diffScreens(chunked.Framebuffer(), oracle.Framebuffer()); d != "" {
			t.Fatalf("seed %d (%dx%d), chunked Writes: %s", seed, w, h, d)
		}
	}
}

// TestRunPathSplitAtEveryOffset cuts one stream in two at every byte offset
// — through runs, escape sequences and UTF-8 sequences alike.
func TestRunPathSplitAtEveryOffset(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		w, h := 4+rng.Intn(20), 2+rng.Intn(6)
		data := runPathStream(rng, w, h, 60)
		oracle := runeOracle{NewEmulator(w, h)}
		oracle.write(data)
		for cut := 0; cut <= len(data); cut++ {
			e := NewEmulator(w, h)
			e.Write(data[:cut])
			e.Write(data[cut:])
			if d := diffScreens(e.Framebuffer(), oracle.Framebuffer()); d != "" {
				t.Fatalf("seed %d (%dx%d), split at %d of %d: %s", seed, w, h, cut, len(data), d)
			}
		}
	}
}

// TestRunPathTakesBulkText pins that the fast path is the one bulk output
// takes: a screenful of plain lines costs one generation bump per row
// segment, where print costs one per character.
func TestRunPathTakesBulkText(t *testing.T) {
	e := NewEmulator(162, 64)
	data := []byte(strings.Repeat(strings.Repeat("x", 160)+"\r\n", 96))
	before := rowGenCounter.Load()
	e.Write(data)
	// 96 segments, plus one fresh row per scroll; the rune path spends 15360.
	if bumps := rowGenCounter.Load() - before; bumps > 96+96 {
		t.Fatalf("96 lines of 160 characters bumped row generations %d times; the run path is not being taken", bumps)
	}
}

// TestWideContinuationKeepsWrap: on a 4-column screen, 字 lands in column 2
// and the next character wraps the row, so its continuation in column 3
// carries the soft-wrap flag. A print within two columns re-normalizes the
// pair, and the continuation, rewritten as a blank with the leader's
// background, must keep the flag: the rune-at-a-time path used to drop it
// while the run path, which does not normalize, kept it.
func TestWideContinuationKeepsWrap(t *testing.T) {
	data := []byte("\xe6\xbc0字0\x1b[0H0")
	oracle := runeOracle{NewEmulator(4, 15)}
	oracle.write(data)
	e := NewEmulator(4, 15)
	e.Write(data)
	for path, fb := range map[string]*Framebuffer{"rune": oracle.Framebuffer(), "run": e.Framebuffer()} {
		if lead, cont := fb.Cell(0, 2), fb.Cell(0, 3); !lead.Wide() || !cont.ContentsEmpty() || !cont.Wrapped() {
			t.Errorf("%s path: row 0 = %q, cell (0,3) wrapped %v; want 字 in column 2 and its continuation wrapped", path, fb.Text(0), cont.Wrapped())
		}
	}
	if d := diffScreens(e.Framebuffer(), oracle.Framebuffer()); d != "" {
		t.Fatal(d)
	}
}

// FuzzEmulatorRunPath is the same differential under the fuzzer: any byte
// stream, any small screen, cut in two anywhere.
func FuzzEmulatorRunPath(f *testing.F) {
	f.Add([]byte("hello, world\r\nover the margin and further"), uint8(10), uint8(3), uint16(7))
	f.Add([]byte("漢字abc\x1b[1;2Hxy\x1b[4hins\x1b[4l\x1b[?7lno wrap at all here"), uint8(8), uint8(2), uint16(3))
	f.Add([]byte("👩\u200d💻ab\x1b[2;3r\n\n\nlines inside a region\xe6\x97"), uint8(12), uint8(4), uint16(20))
	f.Fuzz(func(t *testing.T, data []byte, w, h uint8, cut uint16) {
		blankArrayStaysBlank(t)
		width, height := 1+int(w)%64, 1+int(h)%16
		oracle := runeOracle{NewEmulator(width, height)}
		oracle.write(data)
		e := NewEmulator(width, height)
		at := int(cut) % (len(data) + 1)
		e.Write(data[:at])
		e.Write(data[at:])
		if d := diffScreens(e.Framebuffer(), oracle.Framebuffer()); d != "" {
			t.Fatalf("%dx%d, split at %d: %s\ninput %q", width, height, at, d, data)
		}
	})
}
