package statesync

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/terminal"
)

func TestUserStreamDiffApply(t *testing.T) {
	a := NewUserStream()
	a.PushBytes([]byte("ls"))
	a.PushResize(80, 24)
	a.PushBytes([]byte("\r"))

	b := NewUserStream()
	diff := a.DiffFrom(b)
	if err := b.Apply(diff); err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("apply(diff) did not reproduce the stream")
	}
	ev := b.EventsSince(0)
	if len(ev) != 3 || ev[0].Type != EventBytes || string(ev[0].Data) != "ls" ||
		ev[1].Type != EventResize || ev[1].W != 80 || ev[1].H != 24 {
		t.Fatalf("events = %+v", ev)
	}
}

func TestUserStreamIncrementalDiff(t *testing.T) {
	a := NewUserStream()
	a.PushBytes([]byte("ab"))
	b := a.Clone()
	a.PushBytes([]byte("c"))
	a.PushBytes([]byte("d"))
	diff := a.DiffFrom(b)
	if err := b.Apply(diff); err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("incremental diff failed")
	}
}

func TestUserStreamEmptyDiff(t *testing.T) {
	a := NewUserStream()
	a.PushBytes([]byte("x"))
	if d := a.DiffFrom(a.Clone()); d != nil {
		t.Fatalf("diff against self = %v", d)
	}
	if err := a.Apply(nil); err != nil {
		t.Fatal(err)
	}
}

func TestUserStreamSubtract(t *testing.T) {
	a := NewUserStream()
	a.PushBytes([]byte("one"))
	a.PushBytes([]byte("two"))
	prefix := a.Clone()
	a.PushBytes([]byte("three"))
	a.Subtract(prefix)
	if a.Size() != 3 {
		t.Fatalf("global size after subtract = %d, want 3", a.Size())
	}
	ev := a.EventsSince(0)
	if len(ev) != 1 || string(ev[0].Data) != "three" {
		t.Fatalf("events after subtract = %+v", ev)
	}
	// Diffs against subtracted clones must still work.
	b := prefix.Clone()
	if err := b.Apply(a.DiffFrom(prefix)); err != nil {
		t.Fatal(err)
	}
	if b.Size() != 3 {
		t.Fatalf("size after applying post-subtract diff = %d", b.Size())
	}
}

func TestUserStreamEventsSinceIndices(t *testing.T) {
	a := NewUserStream()
	for i := 0; i < 5; i++ {
		a.PushBytes([]byte{byte('a' + i)})
	}
	ev := a.EventsSince(3)
	if len(ev) != 2 || string(ev[0].Data) != "d" {
		t.Fatalf("EventsSince(3) = %+v", ev)
	}
	if got := a.EventsSince(99); got != nil {
		t.Fatalf("EventsSince past end = %+v", got)
	}
}

func TestUserStreamBadDiffs(t *testing.T) {
	u := NewUserStream()
	for _, d := range [][]byte{
		{0x01},             // count=1 but no event
		{0x01, 0x07},       // unknown type
		{0x01, 0x01, 0x05}, // bytes event with truncated payload
	} {
		if err := u.Clone().Apply(d); err == nil {
			t.Fatalf("accepted bad diff %v", d)
		}
	}
}

// TestUserStreamResizeBounds: a resize event's width and height are the
// peer's to choose, and each must make a screen a journal snapshot can
// restore, in [1, terminal.MaxDim]. Anything else is a malformed diff,
// refused where it is decoded, before a screen is sized by it.
func TestUserStreamResizeBounds(t *testing.T) {
	for _, c := range []struct {
		w, h int
		ok   bool
	}{
		{80, 24, true}, {1, 1, true}, {terminal.MaxDim, terminal.MaxDim, true},
		{5000, 3, false}, {80, 1 << 50, false}, {terminal.MaxDim + 1, 24, false}, {0, 24, false}, {80, 0, false},
	} {
		src := NewUserStream()
		src.PushResize(c.w, c.h)
		dst := NewUserStream()
		err := dst.Apply(src.DiffFrom(dst))
		if c.ok != (err == nil) || (err != nil && !errors.Is(err, ErrBadDiff)) {
			t.Errorf("resize %dx%d: err = %v, want accepted = %v", c.w, c.h, err, c.ok)
		}
	}
}

// TestCompleteApplyRejectsHostileSize is the same bound on the client: a
// frame's header names the screen's width and height, and the client resized
// its copy to whatever arrived — 80 x 2^50 from a hostile or broken server
// panicked in makeslice. Now the frame is malformed and the screen is left as
// it was.
func TestCompleteApplyRejectsHostileSize(t *testing.T) {
	for _, dims := range [][2]uint64{{80, 1 << 50}, {5000, 3}, {0, 24}} {
		diff := binary.AppendUvarint(nil, dims[0])
		diff = binary.AppendUvarint(diff, dims[1])
		diff = binary.AppendUvarint(diff, 0) // the echo ack
		diff = append(diff, "hello"...)
		c := NewComplete(80, 24)
		if err := c.Apply(diff); !errors.Is(err, ErrBadDiff) {
			t.Errorf("a frame for a %dx%d screen: err = %v, want ErrBadDiff", dims[0], dims[1], err)
		}
		if fb := c.Framebuffer(); fb.W != 80 || fb.H != 24 || strings.TrimSpace(fb.Text(0)) != "" {
			t.Errorf("a refused %dx%d frame left a %dx%d screen reading %q", dims[0], dims[1], fb.W, fb.H, fb.Text(0))
		}
	}
}

func TestUserStreamDiffApplyProperty(t *testing.T) {
	f := func(chunks [][]byte, split uint8) bool {
		full := NewUserStream()
		for _, c := range chunks {
			full.PushBytes(c)
		}
		cut := int(split) % (len(chunks) + 1)
		partial := NewUserStream()
		for _, c := range chunks[:cut] {
			partial.PushBytes(c)
		}
		if err := partial.Apply(full.DiffFrom(partial)); err != nil {
			return false
		}
		return partial.Equal(full)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCompleteDiffApply(t *testing.T) {
	server := NewComplete(40, 10)
	server.Terminal().WriteString("login$ make\r\ncompiling...")
	client := NewComplete(40, 10)
	if err := client.Apply(server.DiffFrom(client)); err != nil {
		t.Fatal(err)
	}
	if !client.Equal(server) {
		t.Fatal("screen state did not converge")
	}
	if got := strings.TrimRight(client.Framebuffer().Text(1), " "); got != "compiling..." {
		t.Fatalf("row 1 = %q", got)
	}
}

func TestCompleteIncrementalDiffIsSmall(t *testing.T) {
	server := NewComplete(80, 24)
	server.Terminal().WriteString(strings.Repeat("some long line of text here\r\n", 20))
	client := server.Clone()
	server.Terminal().WriteString("x") // one echoed character
	diff := server.DiffFrom(client)
	if len(diff) > 64 {
		t.Fatalf("one-character diff is %d bytes", len(diff))
	}
	if err := client.Apply(diff); err != nil {
		t.Fatal(err)
	}
	if !client.Equal(server) {
		t.Fatal("did not converge")
	}
}

func TestCompleteSkipsIntermediateStates(t *testing.T) {
	server := NewComplete(80, 24)
	old := server.Clone()
	// A runaway process floods the screen...
	for i := 0; i < 5000; i++ {
		server.Terminal().WriteString("flooding the terminal with output!\r\n")
	}
	// ...but the diff to the newest state stays bounded by screen size.
	diff := server.DiffFrom(old)
	if len(diff) > 24*80*8 {
		t.Fatalf("diff after 5000 lines is %d bytes; must be bounded by screen", len(diff))
	}
	if err := old.Apply(diff); err != nil {
		t.Fatal(err)
	}
	if !old.Equal(server) {
		t.Fatal("did not converge")
	}
}

func TestCompleteResizePropagates(t *testing.T) {
	server := NewComplete(80, 24)
	server.Terminal().WriteString("content")
	client := server.Clone()
	server.Terminal().Resize(120, 40)
	server.Terminal().WriteString(" more")
	if err := client.Apply(server.DiffFrom(client)); err != nil {
		t.Fatal(err)
	}
	if client.Framebuffer().W != 120 || client.Framebuffer().H != 40 {
		t.Fatalf("client size %dx%d", client.Framebuffer().W, client.Framebuffer().H)
	}
	if !client.Equal(server) {
		t.Fatal("did not converge after resize")
	}
}

func TestCompleteEchoAckSync(t *testing.T) {
	server := NewComplete(20, 5)
	client := server.Clone()
	if server.SetEchoAck(7) != true {
		t.Fatal("SetEchoAck should report change")
	}
	if server.SetEchoAck(7) {
		t.Fatal("SetEchoAck repeated should report no change")
	}
	if server.Equal(client) {
		t.Fatal("echo ack change must dirty the state")
	}
	if err := client.Apply(server.DiffFrom(client)); err != nil {
		t.Fatal(err)
	}
	if client.EchoAck() != 7 || !client.Equal(server) {
		t.Fatalf("echo ack = %d", client.EchoAck())
	}
}

// TestCompleteEchoAckOnlyDiffIsHeader: the frame that follows an echo 50 ms
// later to acknowledge it (§3.2) changes nothing on screen, so its diff is
// the three header bytes (width, height, echo ack) and no frame.
func TestCompleteEchoAckOnlyDiffIsHeader(t *testing.T) {
	server := NewComplete(80, 24)
	server.Terminal().WriteString("$ ls")
	client := server.Clone()
	server.SetEchoAck(1)
	diff := server.DiffFrom(client)
	if want := "\x50\x18\x01"; string(diff) != want {
		t.Fatalf("echo-ack diff is %q, want %q", diff, want)
	}
	if err := client.Apply(diff); err != nil {
		t.Fatal(err)
	}
	if !client.Equal(server) {
		t.Fatal("did not converge")
	}
}

func TestCompleteCloneIndependence(t *testing.T) {
	a := NewComplete(20, 5)
	a.Terminal().WriteString("aaa")
	b := a.Clone()
	a.Terminal().WriteString("bbb")
	if b.Equal(a) {
		t.Fatal("clone tracked later writes")
	}
}

func TestCompleteDiffChainConvergence(t *testing.T) {
	// Simulate the receiver applying a chain of diffs across many
	// distinct screen evolutions.
	server := NewComplete(60, 12)
	client := NewComplete(60, 12)
	scripts := []string{
		"plain text\r\n",
		"\x1b[2J\x1b[H\x1b[1;33mfull redraw\x1b[0m",
		"\x1b[5;5H日本語 wide",
		"\x1b[2;10r\x1b[2;1Hscroll region\n\n\x1b[r",
		"\x1b]2;title\a\a",
		"\x1b[?25l\x1b[?1h",
		strings.Repeat("flood\r\n", 40),
	}
	for _, s := range scripts {
		server.Terminal().WriteString(s)
		if err := client.Apply(server.DiffFrom(client)); err != nil {
			t.Fatal(err)
		}
		if !client.Equal(server) {
			t.Fatalf("diverged after script %q", s)
		}
	}
}

func TestUserStreamDiffBytesExact(t *testing.T) {
	// The paper requires the user-input diff to carry every intervening
	// keystroke — verify byte content survives.
	a := NewUserStream()
	payload := []byte{0x03, 0x1b, '[', 'A', 0x7f, 0xc3, 0xa9} // ^C, up-arrow, DEL, é
	a.PushBytes(payload)
	b := NewUserStream()
	b.Apply(a.DiffFrom(b))
	if !bytes.Equal(b.EventsSince(0)[0].Data, payload) {
		t.Fatal("keystroke bytes corrupted in transit")
	}
}
