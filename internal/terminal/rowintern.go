package terminal

import (
	"runtime"
	"sync"
	"unsafe"
	"weak"
)

// Row-level screen interning (the memory-side counterpart of grapheme
// interning in intern.go): across a fleet of sessions the same lines
// appear over and over — shell prompts, login banners, and above all
// blank rows — so identical rows share one canonical []Cell backing
// array through a process-wide content-hashed table. Sharing rides the
// existing copy-on-write machinery: a row whose cells enter (or adopt
// from) the table is marked shared, so the first mutation materializes a
// private copy and the canonical storage is never written again.
//
// Interning is semantically invisible. Adoption preserves the row's
// generation number, so generation-based diffing, scroll detection and
// snapshot encoding produce byte-identical output with interning on or
// off; only resident memory changes.

// cellBytes is the in-memory footprint of one Cell, used by the
// resident-bytes accounting.
const cellBytes = int(unsafe.Sizeof(Cell{}))

const (
	// maxInternedRowBytes caps the canonical cell storage the table may
	// reference. The table holds its rows weakly, so this bounds bytes that
	// are live and shared, not bytes the table keeps alive. Beyond it the
	// table stops registering new rows (existing canonicals keep
	// deduplicating) — graceful degradation, never an error — until rows
	// die and give their room back.
	maxInternedRowBytes = 16 << 20
	// maxRowBucket bounds one hash bucket's candidate chain so a
	// pathological workload degrades to a miss instead of a linear scan.
	maxRowBucket = 8
	// minInternedRowBytes keeps rows the runtime would pack into a shared
	// 16-byte tiny-allocator block out of the table: such a block dies only
	// when all its tenants do, so its cleanup may never run.
	minInternedRowBytes = 16
)

// canonRow is one table entry: a weak reference to a canonical cell array
// and its length. The table owns nothing — a canonical row lives exactly as
// long as some screen, snapshot or scrollback arena references its cells.
type canonRow struct {
	cells weak.Pointer[Cell] // &cells[0]
	n     int
}

// rowInternTable is the process-wide canonical row store. Sessions
// emulate concurrently under their own locks, so the table has its own;
// the read path (steady-state hit) takes only the read lock.
//
// Entries leave one at a time: registering a row attaches a cleanup to its
// cell array (runtime.AddCleanup), which removes exactly that entry and its
// bytes once the collector has found the array unreachable — O(bucket), on
// the runtime's cleanup goroutine. Between the array's death and its
// cleanup the entry still counts against the caps and lookups step over it.
// Nothing here is O(table).
type rowInternTable struct {
	mu      sync.RWMutex
	buckets map[uint64][]canonRow
	bytes   int
	rows    int
}

var rowInterns = rowInternTable{buckets: make(map[uint64][]canonRow)}

// InternedRowStats reports the canonical row count and the bytes of live
// cell storage the intern table references (observability gauges).
func InternedRowStats() (rows, bytes int) { return rowInterns.stats() }

func (t *rowInternTable) stats() (rows, bytes int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows, t.bytes
}

// hashRowCells is FNV-1a over a row's words, three to a cell, a word at a
// step.
func hashRowCells(cells []Cell) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := range cells {
		c := &cells[i]
		h = (h ^ uint64(c.content)) * prime64
		h = (h ^ uint64(c.Rend.fg)) * prime64
		h = (h ^ uint64(c.Rend.bg)) * prime64
	}
	// The multiply only carries upwards; fold the well-mixed high half
	// into the low bits the map's bucket index is drawn from.
	return h ^ h>>32
}

// cellsIdentical is exact (bit-for-bit) row equality — stricter than
// Cell.Equal, which folds printed spaces into blanks. Interning must not
// change what the snapshot encoder emits, so only exactly equal rows may
// share storage.
func cellsIdentical(a, b []Cell) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// lookup returns the canonical cells equal to cells under hash h, or nil.
// The returned slice is a strong reference: the array cannot die under the
// caller.
func (t *rowInternTable) lookup(cells []Cell, h uint64) []Cell {
	for _, cand := range t.buckets[h] {
		if cand.n != len(cells) {
			continue
		}
		p := cand.cells.Value()
		if p == nil {
			continue // dead, cleanup pending
		}
		if canon := unsafe.Slice(p, cand.n); cellsIdentical(cells, canon) {
			return canon
		}
	}
	return nil
}

// intern returns the canonical backing array for cells, registering cells
// itself as canonical on first sight. ok is false when the table is at
// capacity and cells is not already interned — the caller leaves the row
// private.
func (t *rowInternTable) intern(cells []Cell) (canon []Cell, ok bool) {
	size := len(cells) * cellBytes
	if size < minInternedRowBytes {
		return nil, false
	}
	h := hashRowCells(cells)
	t.mu.RLock()
	canon = t.lookup(cells, h)
	t.mu.RUnlock()
	if canon != nil {
		return canon, true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if canon = t.lookup(cells, h); canon != nil {
		return canon, true
	}
	if t.bytes+size > maxInternedRowBytes || len(t.buckets[h]) >= maxRowBucket {
		return nil, false
	}
	e := canonRow{cells: weak.Make(&cells[0]), n: len(cells)}
	t.buckets[h] = append(t.buckets[h], e)
	t.bytes += size
	t.rows++
	runtime.AddCleanup(&cells[0], forgetRow, deadRow{t: t, h: h, cells: e.cells})
	return cells, true
}

// deadRow identifies the entry a cleanup removes. It must not reference
// the cell array strongly, or the array would never die.
type deadRow struct {
	t     *rowInternTable
	h     uint64
	cells weak.Pointer[Cell]
}

// forgetRow removes the entry of a canonical array the collector has
// reclaimed. Weak pointers compare by the identity of what they pointed
// at, dead or alive, so the entry is found exactly.
func forgetRow(d deadRow) {
	t := d.t
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.buckets[d.h]
	for i := range b {
		if b[i].cells != d.cells {
			continue
		}
		t.bytes -= b[i].n * cellBytes
		t.rows--
		if len(b) == 1 {
			delete(t.buckets, d.h)
			return
		}
		b[i] = b[len(b)-1]
		t.buckets[d.h] = b[:len(b)-1]
		return
	}
}

// InternRows deduplicates this screen's rows against the process-wide
// intern table and returns how many rows adopted already-canonical
// storage. Each row is examined at most once per generation (memoized in
// internGen), so on an unchanged screen the call is a per-row integer
// compare and performs no allocation. Adoption preserves the row's
// generation and marks it shared, so diffs, snapshots and frames are
// byte-identical to an uninterned run.
func (f *Framebuffer) InternRows() int {
	adopted := 0
	for i, r := range f.rows {
		if r.internGen == r.gen || len(r.Cells) == 0 {
			continue
		}
		canon, ok := rowInterns.intern(r.Cells)
		if !ok {
			// No room just now: remember we looked so the row is not
			// rehashed every call while it stays unchanged.
			r.internGen = r.gen
			continue
		}
		if &canon[0] == &r.Cells[0] {
			// This row's storage is now the canonical copy other screens
			// may adopt; shared makes any future write copy first.
			r.shared = true
			r.interned = true
			r.internGen = r.gen
			continue
		}
		f.rows[i] = &Row{
			Cells:     canon,
			gen:       r.gen,
			shared:    true,
			interned:  true,
			internGen: r.gen,
		}
		adopted++
	}
	return adopted
}
