package terminal

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// rowBytes is what row r keeps allocated: its planes, its palette's
// capacity and its header.
func rowBytes(r *Row) int {
	return len(r.text)*NarrowCellBytes + len(r.wide)*WideCellBytes + len(r.rends)*RendIndexBytes +
		cap(r.pal)*rendBytes + RowHeaderBytes
}

// TestHostilePalette writes a MaxDim-wide row in which every cell has a
// truecolour foreground of its own, then rewrites it ten times in fresh
// colours — printed, shifted by ICH and DCH, erased and ECH'd over coloured
// backgrounds — so that the palette is full on nearly every write and keeps
// being rebuilt. After every step the palette must hold distinct entries
// and no more than the row has columns, the row must stay within
// width × (6 + 8) bytes and its header, and the frames must still be
// right: the incremental frame brings a client to the server's repaint,
// and the repaint brings a fresh emulator there too.
func TestHostilePalette(t *testing.T) {
	const w, h = MaxDim, 2
	server := NewEmulator(w, h)
	client := NewEmulator(w, h)
	prev := server.Framebuffer().Clone()
	colour := 0
	fresh := func(sgr int) string {
		colour++
		return fmt.Sprintf("\x1b[%d;2;%d;%d;%dm", sgr, colour>>16&0xff, colour>>8&0xff, colour&0xff)
	}
	step := func(what, host string) {
		t.Helper()
		server.WriteString(host)
		fb := server.Framebuffer()
		for y, r := range fb.rows {
			checkPalette(t, r)
			if got, limit := rowBytes(r), w*(WideCellBytes+RendIndexBytes+rendBytes)+RowHeaderBytes; got > limit {
				t.Fatalf("%s: row %d holds %d B, over the %d B bound", what, y, got, limit)
			}
		}
		client.Write(NewFrame(true, prev, fb))
		repaint := NewFrame(false, nil, fb)
		if got := NewFrame(false, nil, client.Framebuffer()); !bytes.Equal(got, repaint) {
			t.Fatalf("%s: the client repaints to %d B that differ from the server's %d B", what, len(got), len(repaint))
		}
		replayed := NewEmulator(w, h)
		replayed.Write(repaint)
		if got := NewFrame(false, nil, replayed.Framebuffer()); !bytes.Equal(got, repaint) {
			t.Fatalf("%s: a fresh emulator fed the repaint repaints differently", what)
		}
		prev = fb.Clone()
	}
	for pass := 0; pass < 10; pass++ {
		var row strings.Builder
		row.WriteString("\x1b[1;1H")
		for x := 0; x < w; x++ {
			row.WriteString(fresh(38))
			if pass%3 == 2 {
				row.WriteString(fresh(48))
			}
			row.WriteByte(byte('a' + (x+pass)%26))
		}
		step(fmt.Sprintf("pass %d print", pass), row.String())
		step(fmt.Sprintf("pass %d ICH", pass), "\x1b[1;100H"+fresh(48)+"\x1b[37@")
		step(fmt.Sprintf("pass %d DCH", pass), "\x1b[1;900H"+fresh(48)+"\x1b[51P")
		step(fmt.Sprintf("pass %d erase", pass), "\x1b[1;3000H"+fresh(48)+"\x1b[K\x1b[1;20H"+fresh(48)+"\x1b[300X\x1b[0m")
	}
	t.Logf("%d colours written; row 0 ends with a %d-entry palette", colour, len(server.Framebuffer().rows[0].pal))
}

// TestRowCloneBytes pins what copy-on-write costs per written row: each
// clone allocates its planes, each rounded to its size class, and the
// 112-byte header, and nothing for the palette it shares with its source.
// An uncoloured ASCII line is one byte a cell (80, 144 and 176 B at 80,
// 132 and 162 columns, where 6-byte cells took 480, 896 and 1 024 B); a
// coloured prompt adds two bytes a cell of rendition indices (160, 288 and
// 352 B); a line holding a CJK character takes four bytes a cell of
// content (320, 576 and 704 B). A layout that loses a plane's narrowing
// fails on every host.
func TestRowCloneBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates beside the code measured")
	}
	const prompt = "\x1b[1;32muser@host\x1b[0m:\x1b[34m~/src\x1b[0m$ "
	for _, c := range []struct {
		name, host   string
		cols, planes int
	}{
		{"ascii", "", 80, 80},
		{"ascii", "", 132, 144},
		{"ascii", "", 162, 176},
		{"coloured", prompt, 80, 80 + 160},
		{"coloured", prompt, 132, 144 + 288},
		{"coloured", prompt, 162, 176 + 352},
		{"cjk", "字", 80, 320},
		{"cjk", "字", 132, 576},
		{"cjk", "字", 162, 704},
		{"coloured cjk", prompt + "字", 162, 704 + 352},
	} {
		e := NewEmulator(c.cols, 1)
		e.WriteString(c.host)
		e.WriteString(strings.Repeat("x", c.cols))
		row := e.Framebuffer().rows[0]
		row.shared = true
		const n = 1000
		clones := make([]*Row, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range clones {
			clones[i] = row.clone()
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(clones)
		per := int(after.TotalAlloc-before.TotalAlloc) / n
		if want := c.planes + RowHeaderBytes; per != want {
			t.Errorf("%s, %d columns: a clone allocates %d B, want %d (planes) + %d (header)", c.name, c.cols, per, c.planes, RowHeaderBytes)
		}
	}
}

// BenchmarkTruecolourGradient prints a 200-column row of half blocks in
// which every cell has a foreground and a background of its own, as an
// image viewer does, eight times over: the palette is full on every write,
// and each new rendition takes the entry its cell leaves unused.
func BenchmarkTruecolourGradient(b *testing.B) {
	e := NewEmulator(200, 2)
	var sb strings.Builder
	n := 0
	for pass := 0; pass < 8; pass++ {
		sb.WriteString("\x1b[H")
		for x := 0; x < 200; x++ {
			n++
			fmt.Fprintf(&sb, "\x1b[38;2;%d;%d;%d;48;2;1;2;%dm▀", n&0xff, n>>8&0xff, x, pass)
		}
	}
	data := []byte(sb.String())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Write(data)
	}
}

// TestFullPaletteAllocatesNothing pins that a private row whose palette is
// full takes fresh renditions without allocating: each takes, in place, the
// entry the cell it overwrites leaves unused.
func TestFullPaletteAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates beside the code measured")
	}
	const w = 80
	e := NewEmulator(w, 1)
	colour := 0
	fresh := func(x int) []byte {
		colour++
		return fmt.Appendf(nil, "\x1b[1;%dH\x1b[38;2;%d;%d;%dm#", x+1, colour>>16&0xff, colour>>8&0xff, colour&0xff)
	}
	for x := 0; x < w; x++ {
		e.Write(fresh(x))
	}
	row := e.Framebuffer().rows[0]
	if len(row.pal) != w {
		t.Fatalf("%d distinct colours left a %d-entry palette", w, len(row.pal))
	}
	writes := make([][]byte, 4*w)
	for i := range writes {
		writes[i] = fresh(i * 7 % w)
	}
	i := 0
	if allocs := testing.AllocsPerRun(len(writes)-1, func() { e.Write(writes[i]); i++ }); allocs != 0 {
		t.Errorf("a fresh colour written to a full palette allocates %.2f times", allocs)
	}
	if e.Framebuffer().rows[0] != row {
		t.Fatal("the row was replaced")
	}
	checkPalette(t, row)
}

// TestResidentChargesPaletteCapacity pins that the gauge charges the
// palette arrays rows really hold: a compacted palette has room for one
// entry more than it keeps, and a palette shared with a clone is charged
// once at the owner's capacity, whichever screen is tallied first.
func TestResidentChargesPaletteCapacity(t *testing.T) {
	const w = 80
	// Every row here is ASCII in colour: a narrow content plane and a
	// rendition-index plane.
	cells := w * (NarrowCellBytes + RendIndexBytes)
	e := NewEmulator(w, 1)
	for x := 0; x < w; x++ {
		fmt.Fprintf(e, "\x1b[38;5;%dm#", x+1)
	}
	snap := e.Framebuffer().Clone()
	e.WriteString("\x1b[1;1H\x1b[38;5;200m" + strings.Repeat("x", w-3))
	row := e.Framebuffer().rows[0]
	checkPalette(t, row)
	if len(row.pal) != 4 || cap(row.pal) != 4 {
		t.Fatalf("compacting to 3 renditions and adding one left a palette of %d entries, capacity %d; want 4 and 4", len(row.pal), cap(row.pal))
	}
	if got, want := e.Framebuffer().AccumulateResident(ResidentSet{}), RowHeaderBytes+cells+4*rendBytes; got != want {
		t.Errorf("the compacted row is charged %d B, want %d", got, want)
	}
	if got, want := snap.AccumulateResident(ResidentSet{}), RowHeaderBytes+cells+w*rendBytes; got != want {
		t.Errorf("its full source is charged %d B, want %d", got, want)
	}

	e = NewEmulator(w, 1)
	e.WriteString("\x1b[31ma\x1b[32mb\x1b[33mc\x1b[34md\x1b[35me")
	owner := e.Framebuffer().rows[0]
	if len(owner.pal) != 5 || cap(owner.pal) != 8 {
		t.Fatalf("five renditions grew a palette of %d entries, capacity %d; want 5 and 8", len(owner.pal), cap(owner.pal))
	}
	snap = e.Framebuffer().Clone()
	e.WriteString("\x1b[31mf")
	live := e.Framebuffer()
	if live.rows[0] == owner || !live.rows[0].samePalette(owner) || cap(live.rows[0].pal) != 5 {
		t.Fatal("the write did not make a clone sharing the source's palette")
	}
	want := 2*(RowHeaderBytes+cells) + 8*rendBytes
	seen := ResidentSet{}
	if got := live.AccumulateResident(seen) + snap.AccumulateResident(seen); got != want {
		t.Errorf("live then snapshot: %d B, want %d", got, want)
	}
	seen = ResidentSet{}
	if got := snap.AccumulateResident(seen) + live.AccumulateResident(seen); got != want {
		t.Errorf("snapshot then live: %d B, want %d", got, want)
	}
}

// TestSamePalette pins when rows compare stored cells directly: when one
// palette is a prefix of the other, whether or not they share an array.
func TestSamePalette(t *testing.T) {
	row := func(host string) *Row {
		e := NewEmulator(20, 1)
		e.WriteString(host)
		return e.Framebuffer().rows[0]
	}
	blank := NewFramebuffer(20, 1).rows[0]
	red, redGreen := row("\x1b[31ma"), row("\x1b[31mb\x1b[32mc")
	greenRed := row("\x1b[32md\x1b[31me")
	for _, c := range []struct {
		name string
		a, b *Row
		want bool
	}{
		{"blank baseline", redGreen, blank, true},
		{"prefix", red, redGreen, true},
		{"prefix, other way round", redGreen, red, true},
		{"same renditions, other order", redGreen, greenRed, false},
		{"different first entry", red, greenRed, false},
	} {
		if got := c.a.samePalette(c.b); got != c.want {
			t.Errorf("%s: samePalette = %v, want %v", c.name, got, c.want)
		}
	}
}
