package terminal

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// --- naive string-cell oracle -------------------------------------------
//
// stringScreen is a deliberately naive reimplementation of the emulator's
// print/wrap/erase/scroll semantics over plain string cells — the
// representation the packed interned cell model replaced. The differential
// fuzz below drives both through identical input and requires the screens
// to match cell for cell, which checks the packing,
// interning and combine-cache logic without trusting any of it.

type stringCell struct {
	contents string
	rend     Renditions
	wide     bool
}

type stringScreen struct {
	w, h      int
	cells     [][]stringCell
	row, col  int
	nextWraps bool
	rend      Renditions
}

func newStringScreen(w, h int) *stringScreen {
	s := &stringScreen{w: w, h: h}
	s.cells = make([][]stringCell, h)
	for i := range s.cells {
		s.cells[i] = make([]stringCell, w)
	}
	return s
}

func (s *stringScreen) blankCell() stringCell {
	return stringCell{rend: s.rend.background()}
}

func (s *stringScreen) lineFeed() {
	if s.row == s.h-1 {
		s.scrollUp(1)
	} else {
		s.row++
	}
}

func (s *stringScreen) scrollUp(n int) {
	if n > s.h {
		n = s.h
	}
	for i := 0; i < n; i++ {
		copy(s.cells, s.cells[1:])
		fresh := make([]stringCell, s.w)
		for c := range fresh {
			fresh[c] = s.blankCell()
		}
		s.cells[s.h-1] = fresh
	}
}

func (s *stringScreen) normalizeWide(row int) {
	for col := 0; col < s.w; col++ {
		c := &s.cells[row][col]
		if !c.wide {
			continue
		}
		if col == s.w-1 {
			*c = stringCell{rend: c.rend.background()}
			continue
		}
		s.cells[row][col+1] = stringCell{rend: c.rend.background()}
		col++
	}
}

func (s *stringScreen) print(r rune) {
	width := RuneWidth(r)
	if width == 0 {
		row, col := s.row, s.col
		if !s.nextWraps && col > 0 {
			col--
		}
		if col > 0 && s.cells[row][col].contents == "" && s.cells[row][col-1].wide {
			col--
		}
		if c := s.cells[row][col].contents; c != "" && len(c)+len(string(r)) <= maxGraphemeBytes {
			s.cells[row][col].contents += string(r)
		}
		return
	}
	if s.nextWraps {
		s.col = 0
		s.nextWraps = false
		s.lineFeed()
	}
	if width == 2 && s.col == s.w-1 {
		s.col = 0
		s.lineFeed()
	}
	row, col := s.row, s.col
	if col > 0 && s.cells[row][col-1].wide {
		lead := &s.cells[row][col-1]
		*lead = stringCell{rend: lead.rend.background()}
	}
	s.cells[row][col] = stringCell{contents: string(r), rend: s.rend, wide: width == 2}
	if width == 2 && col+1 < s.w {
		s.cells[row][col+1] = s.blankCell()
	}
	s.normalizeWide(row)
	if col+width >= s.w {
		s.col = s.w - 1
		s.nextWraps = true
	} else {
		s.col = col + width
		s.nextWraps = false
	}
}

func (s *stringScreen) eraseInLine(mode int) {
	from, to := 0, s.w
	switch mode {
	case 0:
		from = s.col
	case 1:
		to = s.col + 1
	}
	for c := from; c < to; c++ {
		s.cells[s.row][c] = s.blankCell()
	}
	s.normalizeWide(s.row)
}

func (s *stringScreen) carriageReturn() { s.col = 0; s.nextWraps = false }

// verifyAgainst requires the real framebuffer to match the oracle exactly:
// contents, rendition and wide flag per cell, and cursor.
func (s *stringScreen) verifyAgainst(t *testing.T, fb *Framebuffer, label string) {
	t.Helper()
	if fb.DS.CursorRow != s.row || fb.DS.CursorCol != s.col || fb.DS.NextPrintWraps != s.nextWraps {
		t.Fatalf("%s: cursor (%d,%d wrap=%v) != oracle (%d,%d wrap=%v)", label,
			fb.DS.CursorRow, fb.DS.CursorCol, fb.DS.NextPrintWraps, s.row, s.col, s.nextWraps)
	}
	for r := 0; r < s.h; r++ {
		for c := 0; c < s.w; c++ {
			got := fb.Cell(r, c)
			want := s.cells[r][c]
			if got.ContentsString() != want.contents || got.Rend != want.rend || got.Wide() != want.wide {
				t.Fatalf("%s: cell (%d,%d) = {%q %v wide=%v}, oracle {%q %v wide=%v}", label, r, c,
					got.ContentsString(), got.Rend, got.Wide(), want.contents, want.rend, want.wide)
			}
		}
	}
}

// TestPackedCellDifferentialFuzz drives the emulator and the naive
// string-cell oracle through identical random unicode-heavy input —
// printing (ASCII, CJK, emoji, combining marks), wrapping, erasing and
// scrolling — and requires bit-for-bit agreement after every chunk.
func TestPackedCellDifferentialFuzz(t *testing.T) {
	blankArrayStaysBlank(t)
	runes := []rune{
		'a', 'b', 'z', ' ', '0', '~', // ASCII
		'中', '日', '語', '漢', '字', // CJK wide
		'🙂', '🚀', // emoji (wide)
		'é', 'ü', 'ñ', '№', // single-rune non-ASCII
		0x0301, 0x0308, 0x0323, // combining marks
	}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w, h := 2+rng.Intn(30), 2+rng.Intn(10)
		emu := NewEmulator(w, h)
		oracle := newStringScreen(w, h)

		renditions := []struct {
			seq  string
			rend Renditions
		}{
			{"\x1b[0m", Renditions{}},
			{"\x1b[1m", mkRend(0, 0, AttrBold)},
			{"\x1b[31m", mkRend(PaletteColor(1), 0, 0)},
			{"\x1b[42m", mkRend(0, PaletteColor(2), 0)},
		}

		for step := 0; step < 400; step++ {
			switch k := rng.Intn(20); {
			case k < 12: // print a random rune
				r := runes[rng.Intn(len(runes))]
				emu.WriteString(string(r))
				oracle.print(r)
			case k < 14: // newline
				emu.WriteString("\r\n")
				oracle.carriageReturn()
				oracle.lineFeed()
			case k < 15: // bare CR
				emu.WriteString("\r")
				oracle.carriageReturn()
			case k < 17: // erase in line
				mode := rng.Intn(3)
				emu.WriteString(fmt.Sprintf("\x1b[%dK", mode))
				oracle.eraseInLine(mode)
			case k < 18: // scroll up
				n := 1 + rng.Intn(3)
				emu.WriteString(fmt.Sprintf("\x1b[%dS", n))
				oracle.scrollUp(n)
			default: // change rendition
				sel := renditions[rng.Intn(len(renditions))]
				emu.WriteString(sel.seq)
				cur := oracle.rend
				switch sel.seq {
				case "\x1b[0m":
					cur = Renditions{}
				case "\x1b[1m":
					cur.Set(AttrBold, true)
				case "\x1b[31m":
					cur.SetFg(PaletteColor(1))
				case "\x1b[42m":
					cur.SetBg(PaletteColor(2))
				}
				oracle.rend = cur
			}
			if step%25 == 0 || step == 399 {
				oracle.verifyAgainst(t, emu.Framebuffer(),
					fmt.Sprintf("seed %d step %d (%dx%d)", seed, step, w, h))
			}
			if step%60 == 0 {
				// Snapshots interleaved with printing: the packed model must
				// stay correct across copy-on-write materialization.
				_ = emu.Framebuffer().Clone()
			}
		}
	}
}

// TestInternTableConcurrentEmulators hammers the process-wide grapheme
// intern table from many emulators at once (run under -race in CI): every
// goroutine prints overlapping sets of combining clusters and verifies its
// own screen afterwards, so lost updates, torn snapshots or misindexed
// clusters all surface.
func TestInternTableConcurrentEmulators(t *testing.T) {
	const goroutines = 16
	const rounds = 200
	marks := []rune{0x0301, 0x0308, 0x0323, 0x0304, 0x030a}
	before := InternedGraphemes()
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			emu := NewEmulator(40, 4)
			for i := 0; i < rounds; i++ {
				base := rune('a' + (g+i)%26)
				m1 := marks[(g+i)%len(marks)]
				m2 := marks[(g*7+i)%len(marks)]
				emu.WriteString("\r")
				emu.WriteString(string(base))
				emu.WriteString(string(m1))
				emu.WriteString(string(m2))
				want := string([]rune{base, m1, m2})
				got := emu.Framebuffer().Cell(emu.Framebuffer().DS.CursorRow, 0).ContentsString()
				if got != want {
					errs <- fmt.Errorf("goroutine %d round %d: cluster %q, want %q", g, i, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The table must have deduplicated across goroutines: 26 bases × 25
	// mark pairs is the cluster universe (plus the 26×5 one-mark prefixes).
	if n := InternedGraphemes() - before; n > 26*5*5+26*5 {
		t.Errorf("intern table grew by %d clusters; deduplication failed", n)
	}
}

// TestInternedEqualityCanonical pins the canonicalization rule cell
// equality relies on: equal grapheme strings always produce equal packed
// words, whether built by SetContents or by combining-mark appends.
func TestInternedEqualityCanonical(t *testing.T) {
	var a, b Cell
	a.SetContents("é") // single precomposed rune: inline
	b.SetRune('é')
	if !a.Equal(b) {
		t.Fatal("inline rune cells not equal")
	}

	emu := NewEmulator(10, 2)
	emu.WriteString("é̈") // built by combining appends
	printed := emu.Framebuffer().Cell(0, 0)

	var direct Cell
	direct.SetContents("é̈") // built by direct interning
	direct.Rend = printed.Rend
	if !printed.Equal(direct) {
		t.Fatalf("combining-built %q != interned %q", printed.ContentsString(), direct.ContentsString())
	}

	// Blank and explicit space render identically and compare equal.
	var blank, space Cell
	space.SetRune(' ')
	if !blank.Equal(space) || !space.Equal(blank) {
		t.Fatal("space/blank equality broken")
	}
	if space.IsBlank() != true || blank.IsBlank() != true {
		t.Fatal("IsBlank broken")
	}
}

// TestCombiningFloodBoundedIntern proves a hostile combining-mark flood
// (Zalgo text: one base character followed by an endless run of marks)
// cannot grow the process-wide intern table without bound: the cluster is
// capped at maxGraphemeBytes, marks beyond it are dropped, and the capped
// path is cached so the flood runs allocation-free.
func TestCombiningFloodBoundedIntern(t *testing.T) {
	before := InternedGraphemes()
	emu := NewEmulator(20, 4)
	emu.WriteString("x")
	marks := []rune{0x0300, 0x0301, 0x0302, 0x0303}
	for i := 0; i < 500; i++ {
		emu.WriteString(string(marks[i%len(marks)]))
	}
	got := emu.Framebuffer().Cell(0, 0).ContentsString()
	if len(got) > maxGraphemeBytes {
		t.Fatalf("cluster grew to %d bytes, cap is %d", len(got), maxGraphemeBytes)
	}
	// Each retained mark adds one prefix cluster; the table delta must be
	// on the order of the cap, not the flood length.
	if delta := InternedGraphemes() - before; delta > maxGraphemeBytes {
		t.Fatalf("flood interned %d clusters, want ≤ %d", delta, maxGraphemeBytes)
	}
	// Steady state: the over-cap drop is cached, so the flood allocates
	// nothing per mark.
	mark := []byte(string(marks[0]))
	if avg := testing.AllocsPerRun(200, func() {
		emu.Write(mark)
	}); avg != 0 {
		t.Errorf("capped combining flood allocates %v per mark, want 0", avg)
	}
}

// TestInternTableCardinalityBounded fills a private intern table to its
// cap with distinct clusters and proves the degradation contract: existing
// clusters keep resolving exactly, novel clusters are refused (intern
// reports !ok), novel combining appends drop the mark instead of growing
// the table, and growth stays amortized (the fill completes quickly).
func TestInternTableCardinalityBounded(t *testing.T) {
	tb := &internTable{
		byStr:   make(map[string]uint32),
		combine: make(map[combineKey]uint32),
	}
	first, ok := tb.intern("aa")
	if !ok {
		t.Fatal("first intern refused")
	}
	for i := 1; i < maxInternedGraphemes; i++ {
		if _, ok := tb.intern(fmt.Sprintf("c%d", i)); !ok {
			t.Fatalf("intern refused at %d, cap is %d", i, maxInternedGraphemes)
		}
	}
	if _, ok := tb.intern("novel-cluster"); ok {
		t.Fatal("intern accepted a cluster beyond the cardinality cap")
	}
	// Existing clusters still resolve, by word and by string.
	if got := tb.lookup(first); got != "aa" {
		t.Fatalf("lookup(first) = %q after fill", got)
	}
	if v, ok := tb.intern("aa"); !ok || v != first {
		t.Fatalf("re-intern of existing cluster = (%v,%v), want (%v,true)", v, ok, first)
	}
	// A combining append that would need a new cluster drops the mark.
	if got := tb.appendRune(first, 0x0301); got != first {
		t.Fatalf("appendRune at capacity = %#x, want unchanged %#x", got, first)
	}
	if n := len(*tb.strs.Load()); n != maxInternedGraphemes {
		t.Fatalf("table holds %d clusters, cap is %d", n, maxInternedGraphemes)
	}
}

// TestUnicodePrintPathZeroAlloc guards the packed model's reason to
// exist: steady-state printing of CJK text and of combining clusters — the
// workloads that used to allocate a string per cell — performs no heap
// allocations at all.
func TestUnicodePrintPathZeroAlloc(t *testing.T) {
	emu := NewEmulator(80, 24)
	cjk := []byte("漢字出力の定常状態\r\n")
	if avg := testing.AllocsPerRun(200, func() {
		emu.Write(cjk)
	}); avg != 0 {
		t.Errorf("CJK print flood allocates %v per line, want 0", avg)
	}

	comb := []byte("a\u0301e\u0308o\u0323\r\n") // combining-built á ë ọ
	emu.Write(comb)                             // warm the combine cache
	if avg := testing.AllocsPerRun(200, func() {
		emu.Write(comb)
	}); avg != 0 {
		t.Errorf("combining print flood allocates %v per line, want 0", avg)
	}
}
