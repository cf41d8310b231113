package terminal

import (
	"bytes"
	"testing"
)

// sampleScreen builds a framebuffer exercising every serialized feature:
// colors and attributes, wide and combining characters, tabs, a scrolling
// region, saved cursor and title.
func sampleScreen() *Framebuffer {
	emu := NewEmulator(80, 24)
	fb := emu.Framebuffer()
	emu.WriteString("\x1b]0;snapshot codec\x07")
	emu.WriteString("\x1b[1;4;38;5;202mhot\x1b[0m \x1b[48;2;1;2;3mrgb bg\x1b[0m\r\n")
	emu.WriteString("wide: 你好 combining: ȩ́ emoji: 🙂\r\n")
	emu.WriteString("\x1b[2g\x1b[8G\x1bH") // tab games
	for i := 0; i < 50; i++ {
		emu.WriteString("history line scrolling away\r\n")
	}
	emu.WriteString("\x1b[5;18r\x1b[?6h")   // scroll region + origin mode
	emu.WriteString("\x1b7\x1b[3;3Hparked") // saved cursor, content
	emu.WriteString("\a")
	return fb
}

// TestSnapshotRoundTrip: the canonical serialization is a fixed point of
// decode∘encode, and the restored screen is semantically equal (including
// the draw state the codec carries).
func TestSnapshotRoundTrip(t *testing.T) {
	blankArrayStaysBlank(t)
	fb := sampleScreen()
	enc := fb.AppendSnapshot(nil)
	got, rest, err := DecodeSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d unconsumed bytes", len(rest))
	}
	if !got.Equal(fb) {
		t.Fatal("restored framebuffer is not Equal to the original")
	}
	re := got.AppendSnapshot(nil)
	if !bytes.Equal(enc, re) {
		t.Fatalf("re-encode differs: %d vs %d bytes", len(enc), len(re))
	}
	// Interned contents decode to identical strings (re-interned into the
	// live table).
	for r := 0; r < fb.H; r++ {
		for c := 0; c < fb.W; c++ {
			if fb.Cell(r, c).ContentsString() != got.Cell(r, c).ContentsString() {
				t.Fatalf("cell (%d,%d) contents differ", r, c)
			}
		}
	}
}

// TestSnapshotDecodeNeverPanics: every strict prefix and a sweep of
// bit-flipped variants must return cleanly (error or not), never panic,
// and never decode to something that fails to re-encode.
func TestSnapshotDecodeNeverPanics(t *testing.T) {
	enc := sampleScreen().AppendSnapshot(nil)
	for n := 0; n < len(enc); n++ {
		if fb, _, err := DecodeSnapshot(enc[:n]); err == nil {
			_ = fb.AppendSnapshot(nil)
			t.Fatalf("strict prefix %d/%d decoded without error", n, len(enc))
		}
	}
	for pos := 0; pos < len(enc); pos += 3 {
		mut := append([]byte(nil), enc...)
		mut[pos] ^= 0x20
		if fb, _, err := DecodeSnapshot(mut); err == nil {
			_ = fb.AppendSnapshot(nil) // decoded forms must be usable
		}
	}
	if _, _, err := DecodeSnapshot(nil); err == nil {
		t.Fatal("empty input decoded")
	}
	// Version skew errors.
	mut := append([]byte(nil), enc...)
	mut[0] = snapshotVersion + 1
	if _, _, err := DecodeSnapshot(mut); err == nil {
		t.Fatal("version-skewed snapshot decoded")
	}
}

// TestSnapshotHistoryWindowRejected: the format's trailing history window
// must be empty. A snapshot carrying one line of history, under the
// default history limit (0), is refused rather than silently dropped.
func TestSnapshotHistoryWindowRejected(t *testing.T) {
	fb := NewFramebuffer(8, 1)
	NewEmulatorWithFramebuffer(fb).WriteString("history")
	meta := fb.AppendMetaSnapshot(nil)
	enc := fb.AppendSnapshot(nil)
	row := enc[len(meta) : len(enc)-1] // the one grid row, before the empty window
	if enc[len(enc)-1] != 0 {
		t.Fatalf("snapshot ends %#x, want an empty history window", enc[len(enc)-1])
	}

	// The history limit is meta's last field, a one-byte varint.
	data := append([]byte(nil), meta[:len(meta)-1]...)
	data = append(data, 0x00) // history limit 0
	data = append(data, row...)
	if got, rest, err := DecodeSnapshot(append(append([]byte(nil), data...), 0)); err != nil || len(rest) != 0 || !got.Equal(fb) {
		t.Fatalf("empty window under limit 0: err=%v rest=%d", err, len(rest))
	}
	data = append(data, 1, byte(fb.W)) // window of one line, as wide as the screen
	data = append(data, row...)
	if _, _, err := DecodeSnapshot(data); err != ErrBadSnapshot {
		t.Fatalf("snapshot with a one-line history window: err = %v, want ErrBadSnapshot", err)
	}
}

// TestSnapshotEncodeAllocFree guards the journal writer's steady state:
// serializing a populated screen into a warmed buffer performs no heap
// allocations.
func TestSnapshotEncodeAllocFree(t *testing.T) {
	fb := sampleScreen()
	buf := fb.AppendSnapshot(nil)
	if n := testing.AllocsPerRun(200, func() {
		buf = fb.AppendSnapshot(buf[:0])
	}); n != 0 {
		t.Fatalf("AppendSnapshot allocates %.1f times per run, want 0", n)
	}
}
