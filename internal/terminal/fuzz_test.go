package terminal

import (
	"math/rand"
	"testing"
)

// TestEmulatorFuzzNeverPanicsAndKeepsInvariants throws random byte soup at
// the emulator — including truncated escape sequences, broken UTF-8 and
// binary garbage — and checks the structural invariants everything else
// relies on: cursor in bounds, scroll region sane, and the wide-character
// invariant (no leader in the last column; continuations are blanks).
func TestEmulatorFuzzNeverPanicsAndKeepsInvariants(t *testing.T) {
	blankArrayStaysBlank(t)
	rng := rand.New(rand.NewSource(2012))
	interesting := []byte{0x1b, '[', ']', ';', '?', 'H', 'J', 'K', 'm', 'r', 'h', 'l',
		'A', 'L', 'M', 'P', '@', 'S', 'T', 0x07, 0x08, 0x09, 0x0a, 0x0d, 0x7f,
		'0', '1', '9', 0xc3, 0xa9, 0xe6, 0x97, 0xa5, 0xf0, 0x9f, 0x99, 0x82, 0xff}
	for iter := 0; iter < 300; iter++ {
		w := 1 + rng.Intn(100)
		h := 1 + rng.Intn(40)
		e := NewEmulator(w, h)
		buf := make([]byte, 500)
		for i := range buf {
			if rng.Intn(3) == 0 {
				buf[i] = interesting[rng.Intn(len(interesting))]
			} else {
				buf[i] = byte(rng.Intn(256))
			}
		}
		e.Write(buf)
		fb := e.Framebuffer()
		ds := fb.DS
		if ds.CursorRow < 0 || ds.CursorRow >= fb.H || ds.CursorCol < 0 || ds.CursorCol >= fb.W {
			t.Fatalf("iter %d: cursor out of bounds (%d,%d) on %dx%d", iter, ds.CursorRow, ds.CursorCol, fb.W, fb.H)
		}
		if ds.ScrollTop < 0 || ds.ScrollBottom >= fb.H || ds.ScrollTop > ds.ScrollBottom {
			t.Fatalf("iter %d: bad scroll region [%d,%d]", iter, ds.ScrollTop, ds.ScrollBottom)
		}
		for r := 0; r < fb.H; r++ {
			for c := 0; c < fb.W; c++ {
				cell := fb.Cell(r, c)
				if cell.Wide() {
					if c == fb.W-1 {
						t.Fatalf("iter %d: wide leader in last column (%d,%d)", iter, r, c)
					}
					if fb.Cell(r, c+1).ContentsString() != "" {
						t.Fatalf("iter %d: wide continuation at (%d,%d) holds %q", iter, r, c+1, fb.Cell(r, c+1).ContentsString())
					}
				}
			}
		}
		// And the screen must still be render-round-trippable.
		frame := NewFrame(false, nil, fb)
		back := NewEmulator(fb.W, fb.H)
		back.Write(frame)
		if !back.Framebuffer().Equal(fb) {
			t.Fatalf("iter %d: fuzzed screen does not round-trip through the renderer", iter)
		}
	}
}

// TestResizeFuzz resizes a live screen repeatedly while writing; no panics,
// invariants hold.
func TestResizeFuzz(t *testing.T) {
	blankArrayStaysBlank(t)
	rng := rand.New(rand.NewSource(7))
	e := NewEmulator(80, 24)
	for i := 0; i < 200; i++ {
		e.WriteString("some text that may wrap around the margin 日本語\r\n")
		e.Resize(1+rng.Intn(130), 1+rng.Intn(50))
		fb := e.Framebuffer()
		if fb.DS.CursorRow >= fb.H || fb.DS.CursorCol >= fb.W {
			t.Fatalf("cursor out of bounds after resize %dx%d", fb.W, fb.H)
		}
	}
}
