package terminal

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestRowInternSharingEquivalence pins the core interning contract: two
// screens showing identical content come to share canonical row storage,
// their serialized snapshots are byte-identical before and after
// interning, and copy-on-write isolates the first divergence.
func TestRowInternSharingEquivalence(t *testing.T) {
	paint := func(e *Emulator) {
		e.WriteString("\x1b[2J\x1b[H")
		for i := 0; i < 10; i++ {
			e.WriteString(fmt.Sprintf("\x1b[3%dmuser@host:~$ make test # line %d\x1b[0m\r\n", i%8, i))
		}
	}
	ea, eb := NewEmulator(80, 24), NewEmulator(80, 24)
	paint(ea)
	paint(eb)
	fa, fb := ea.Framebuffer(), eb.Framebuffer()

	beforeA := fa.AppendSnapshot(nil)
	beforeB := fb.AppendSnapshot(nil)
	if !bytes.Equal(beforeA, beforeB) {
		t.Fatal("identical paint produced different snapshots before interning")
	}
	fa.InternRows()
	adopted := fb.InternRows()
	if adopted == 0 {
		t.Fatal("second identical screen adopted zero canonical rows")
	}
	shared := 0
	for i := range fa.rows {
		ra, rb := fa.rows[i], fb.rows[i]
		if len(ra.Cells) > 0 && len(rb.Cells) > 0 && &ra.Cells[0] == &rb.Cells[0] {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no row shares backing storage across the two screens")
	}
	if got := fa.AppendSnapshot(nil); !bytes.Equal(got, beforeA) {
		t.Fatal("interning changed screen A's snapshot bytes")
	}
	if got := fb.AppendSnapshot(nil); !bytes.Equal(got, beforeB) {
		t.Fatal("interning changed screen B's snapshot bytes")
	}

	// Copy-on-write isolation: mutating A must not leak into B's shared rows.
	ea.WriteString("\x1b[1;1HDIVERGED")
	if got := fb.AppendSnapshot(nil); !bytes.Equal(got, beforeB) {
		t.Fatal("write to screen A leaked into interned screen B")
	}
	if got := fa.AppendSnapshot(nil); bytes.Equal(got, beforeA) {
		t.Fatal("write to screen A did not change its own snapshot")
	}
}

// TestRowInternSteadyStateAllocFree guards the per-interval cost on an
// unchanged screen: InternRows memoizes by row generation, so the
// steady-state call is a per-row integer compare with zero allocations.
// (Runs under the CI alloc gate via the 'Alloc' name pattern.)
func TestRowInternSteadyStateAllocFree(t *testing.T) {
	e := NewEmulator(80, 24)
	for i := 0; i < 30; i++ {
		e.WriteString(fmt.Sprintf("steady state content row %d\r\n", i))
	}
	fb := e.Framebuffer()
	fb.InternRows() // first pass hashes and registers
	if n := testing.AllocsPerRun(200, func() { fb.InternRows() }); n != 0 {
		t.Fatalf("steady-state InternRows allocates %.1f times per run, want 0", n)
	}
}

// uniqueRow returns a row no other index produces.
func uniqueRow(width, i int) []Cell {
	cells := make([]Cell, width)
	for j := range cells {
		cells[j].SetRune(rune('a' + j%26))
	}
	cells[0].SetRune(rune(0x4e00 + i%0x5000))
	cells[1].SetRune(rune(0x4e00 + i/0x5000))
	return cells
}

// TestRowInternTableCapacityDegrades pins graceful degradation while every
// canonical row is still referenced: past the byte cap the table refuses
// new canonical rows (ok=false, no error, no eviction) while rows already
// interned keep deduplicating. Uses a private table so the test cannot
// pollute the process-wide one.
func TestRowInternTableCapacityDegrades(t *testing.T) {
	tab := rowInternTable{buckets: make(map[uint64][]canonRow)}
	const rowLen = 8192 // 8192 cells per row: few rows reach the 16 MiB cap
	budget := maxInternedRowBytes / (rowLen * cellBytes)
	var held [][]Cell // a screen somewhere still shows every one of them
	sawFull := false
	var firstRejected int
	for i := 0; i < budget+8; i++ {
		row := uniqueRow(rowLen, i)
		held = append(held, row)
		if _, ok := tab.intern(row); !ok {
			sawFull = true
			firstRejected = i
			break
		}
	}
	if !sawFull {
		t.Fatalf("table accepted %d rows (%d bytes) without hitting the %d-byte cap",
			budget+8, (budget+8)*rowLen*cellBytes, maxInternedRowBytes)
	}
	if firstRejected < budget {
		t.Fatalf("table rejected row %d before the byte budget (%d rows) was spent", firstRejected, budget)
	}
	// A collection changes nothing while the rows are referenced.
	runtime.GC()
	// Existing canonicals still serve hits: a COPY of an interned row (so
	// pointer identity cannot shortcut the lookup) resolves to the
	// original backing array at zero additional cost.
	probe := uniqueRow(rowLen, 0)
	_, bytesBefore := tab.stats()
	canon, ok := tab.intern(probe)
	if !ok {
		t.Fatal("full table stopped serving hits for already-canonical rows")
	}
	if &canon[0] != &held[0][0] {
		t.Fatal("hit on a full table did not return the canonical row")
	}
	if _, b := tab.stats(); b != bytesBefore {
		t.Fatal("hit on a full table grew the referenced byte count")
	}
	// And fresh content keeps being rejected — degradation is stable.
	if _, ok := tab.intern(uniqueRow(rowLen, budget+100)); ok {
		t.Fatal("full table accepted new content after the cap")
	}
	runtime.KeepAlive(held)
}

// awaitInternedBytes collects until the table's cleanups have brought its
// byte count to at most want (they run on the runtime's cleanup goroutine,
// some time after the collection that found the rows dead).
func awaitInternedBytes(t testing.TB, tab *rowInternTable, want int) int {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		_, b := tab.stats()
		if b <= want || time.Now().After(deadline) {
			return b
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRowInternTableForgetsDeadRows pins what the weak table adds: rows
// that came and went give their room back, so a table that has seen more
// than its cap of unique content still interns the next banner. (A table
// that owned its rows filled up with whatever came first and stayed full.)
func TestRowInternTableForgetsDeadRows(t *testing.T) {
	tab := rowInternTable{buckets: make(map[uint64][]canonRow)}
	const rowLen = 162
	churn := 2*maxInternedRowBytes/(rowLen*cellBytes) + 1
	registered := 0
	for i := 0; i < churn; i++ {
		if _, ok := tab.intern(uniqueRow(rowLen, i)); ok {
			registered++
		}
		if i%1024 == 1023 {
			runtime.GC() // the rows above are dead: let them leave
		}
	}
	if registered*rowLen*cellBytes <= maxInternedRowBytes {
		t.Fatalf("only %d of %d rows (%d bytes) registered: the table never turned over its cap of %d",
			registered, churn, registered*rowLen*cellBytes, maxInternedRowBytes)
	}
	left := awaitInternedBytes(t, &tab, 0)
	if left > 1<<20 {
		t.Fatalf("table still counts %d bytes after every row died, want <= 1 MiB", left)
	}
	// A new blank-row variant interns, and a second screen adopts it.
	blank := make([]Cell, rowLen)
	for i := range blank {
		blank[i].Reset(mkRend(0, PaletteColor(4), 0))
	}
	canon, ok := tab.intern(blank)
	if !ok || &canon[0] != &blank[0] {
		t.Fatal("table that turned over its cap refused a new blank-row variant")
	}
	twin := append([]Cell(nil), blank...)
	if canon, ok := tab.intern(twin); !ok || &canon[0] != &blank[0] {
		t.Fatal("second copy of the new blank row did not adopt the canonical one")
	}
	if _, b := tab.stats(); b > left+rowLen*cellBytes {
		t.Fatalf("table counts %d bytes, want the %d left over plus the one live row", b, left)
	}
	runtime.KeepAlive(blank)
}

// TestRowInternConcurrentChurn has several sessions' worth of goroutines
// intern shared and unique rows while collections run and the runtime's
// cleanup goroutine removes entries underneath them (run it under -race):
// a hit must always hand back live storage with the probe's content, and
// when the dust settles the table counts exactly what is still referenced.
func TestRowInternConcurrentChurn(t *testing.T) {
	tab := rowInternTable{buckets: make(map[uint64][]canonRow)}
	const (
		workers = 4
		rounds  = 1500
		rowLen  = 80
		banners = 8 // rows every worker shows, over and over
	)
	kept := make([][][]Cell, workers) // each worker's current screen of banners
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		kept[w] = make([][]Cell, banners)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				probe := uniqueRow(rowLen, i%banners)
				canon, ok := tab.intern(probe)
				if !ok || !cellsIdentical(canon, probe) {
					t.Errorf("worker %d round %d: banner not interned (ok=%v) or wrong content", w, i, ok)
					return
				}
				kept[w][i%banners] = canon // the previous holder may now die
				tab.intern(uniqueRow(rowLen, banners+w*rounds+i))
				if i%100 == 99 {
					runtime.GC()
				}
			}
		}()
	}
	wg.Wait()
	// Every worker ended up holding the same canonical array per banner.
	distinct := map[*Cell]struct{}{}
	for w := range kept {
		for _, row := range kept[w] {
			distinct[&row[0]] = struct{}{}
		}
	}
	if len(distinct) > banners*workers {
		t.Fatalf("%d distinct arrays for %d banners", len(distinct), banners)
	}
	want := len(distinct) * rowLen * cellBytes
	if b := awaitInternedBytes(t, &tab, want); b != want {
		t.Fatalf("table counts %d bytes with %d live canonical rows of %d, want %d", b, len(distinct), rowLen*cellBytes, want)
	}
	runtime.KeepAlive(kept)
}

// BenchmarkRowInternChurn is the weak table's worst day: every insert is
// novel, every predecessor is already dead, and a heap ballast spaces the
// collections far enough apart that over 100k inserts the table runs into
// its cap with dead rows in every cycle and is emptied by a few thousand
// cleanups at once.
// Each op is one batch of inserts; ns/row is the figure to read. The "miss"
// case is the path that was always there — hash, lookup, refusal by a table
// full of referenced rows — and the yardstick: a churned insert may cost at
// most twice that, and a row must not get dearer as the table ages (a sweep
// of the table, or dead entries piling up, would show as either).
func BenchmarkRowInternChurn(b *testing.B) {
	const rowLen = 162
	ballast := make([]byte, 2*maxInternedRowBytes)
	perRow := func(b *testing.B, tab *rowInternTable, batch, from int) float64 {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				tab.intern(uniqueRow(rowLen, from))
				from++
			}
		}
		b.StopTimer()
		ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N*batch)
		b.ReportMetric(ns, "ns/row")
		return ns
	}
	capRows := maxInternedRowBytes / (rowLen * cellBytes)

	var miss float64
	b.Run("miss", func(b *testing.B) {
		tab := rowInternTable{buckets: make(map[uint64][]canonRow)}
		held := make([][]Cell, 0, capRows)
		for i := 0; i < capRows; i++ {
			held = append(held, uniqueRow(rowLen, i))
			tab.intern(held[i])
		}
		miss = perRow(b, &tab, 10000, capRows)
		runtime.KeepAlive(held)
	})
	churn := map[int]float64{}
	for _, batch := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("inserts=%d", batch), func(b *testing.B) {
			tab := rowInternTable{buckets: make(map[uint64][]canonRow)}
			for i := 0; i < capRows; i++ {
				tab.intern(uniqueRow(rowLen, i)) // dead on arrival: at the cap
			}
			// Start both batch sizes from a table that has been full and is
			// empty again, so the short one pays for real inserts too and not
			// for a thousand refusals at the cap.
			awaitInternedBytes(b, &tab, 0)
			churn[batch] = perRow(b, &tab, batch, capRows)
			if rows, bytes := tab.stats(); bytes > maxInternedRowBytes || rows > capRows {
				b.Fatalf("table counts %d rows / %d bytes, over its cap", rows, bytes)
			}
		})
	}
	runtime.KeepAlive(ballast)
	if miss == 0 || churn[1000] == 0 || churn[100000] == 0 {
		return // sub-benchmarks filtered out
	}
	if churn[100000] > 2*miss {
		b.Errorf("churned insert costs %.0f ns/row, over twice the miss path's %.0f", churn[100000], miss)
	}
	if churn[100000] > 2*churn[1000] {
		b.Errorf("insert cost grew with the table's age: %.0f ns/row over 100k inserts, %.0f over 1k",
			churn[100000], churn[1000])
	}
}
