package terminal

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzFrameChain holds an incremental frame to the model it keeps of the
// remote terminal. A server emulator is fed data cut into chunks at NUL
// bytes; after each chunk the frame from the server's previous snapshot is
// applied the two ways clients apply it: to one long-lived emulator, as
// mosh-client and the benchmark's ladder do, and to a fresh emulator over a
// clone of the previous client state, as statesync.Complete.Apply does. The
// frame emits a cursor move or rendition change only when the remote one
// differs from what the writer tracks, so after every frame both clients must
// show the server's screen (Equal), hold its cursor and its active rendition
// (which Equal does not compare, and which the next frame starts from), and
// repaint to the same bytes.
func FuzzFrameChain(f *testing.F) {
	f.Add([]byte("$ \x00e\x00c\x00h\x00o\x00\r\nhello\r\n$ "), uint8(80), uint8(24))
	f.Add([]byte("\x1b[1;31mred\x00 plain\x1b[0m\x00\x1b[44m\x00x\x00\x1b[0m\r\n\r\n\r\n\r\n"), uint8(20), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, w, h uint8) {
		width, height := max(1, int(w)%128), max(1, int(h)%48)
		server := NewEmulator(width, height)
		live := NewEmulator(width, height)
		state := NewFramebuffer(width, height)
		prev := server.Framebuffer().Clone()
		var fw FrameWriter
		var frame []byte
		for i, chunk := range bytes.Split(data, []byte{0}) {
			server.Write(chunk)
			want := server.Framebuffer()
			frame = fw.AppendFrame(frame[:0], true, prev, want)
			live.Write(frame)
			fresh := NewEmulatorWithFramebuffer(state.Clone())
			fresh.Write(frame)
			state = fresh.Framebuffer()
			repaint := NewFrame(false, nil, want)
			for _, c := range []struct {
				name string
				got  *Framebuffer
			}{{"long-lived", live.Framebuffer()}, {"fresh", state}} {
				if d := frameChainMismatch(c.got, want, repaint); d != "" {
					t.Fatalf("%dx%d, chunk %d %q: %s client %s\nframe %q\nserver:\n%s\nclient:\n%s",
						width, height, i, chunk, c.name, d, frame, dump(want), dump(c.got))
				}
			}
			prev = want.Clone()
		}
	})
}

// frameChainMismatch reports how a client's screen differs from the
// server's, or "".
func frameChainMismatch(got, want *Framebuffer, repaint []byte) string {
	switch {
	case !got.Equal(want):
		return "shows a different screen"
	case got.DS.CursorRow != want.DS.CursorRow || got.DS.CursorCol != want.DS.CursorCol:
		return fmt.Sprintf("has its cursor at (%d,%d), want (%d,%d)",
			got.DS.CursorRow, got.DS.CursorCol, want.DS.CursorRow, want.DS.CursorCol)
	case got.DS.Rend != want.DS.Rend:
		return fmt.Sprintf("is in rendition %q, want %q", got.DS.Rend.ANSIString(), want.DS.Rend.ANSIString())
	case !bytes.Equal(NewFrame(false, nil, got), repaint):
		return "repaints differently"
	}
	return ""
}
