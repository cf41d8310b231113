package terminal

import (
	"sync"
	"sync/atomic"
	"unicode/utf8"
)

// This file implements the process-wide grapheme intern table behind the
// packed cell content word (see Cell). Cell contents are a uint32:
//
//   - 0 — blank (the old Contents == "")
//   - graphemeBit clear — an inline single rune (ASCII, CJK, lone emoji):
//     the overwhelming majority of printed cells, stored with no heap
//     reference at all
//   - graphemeBit set — an index into the intern table, used only for
//     multi-rune grapheme clusters (base + combining marks, ZWJ emoji)
//
// Interning is canonical — one cluster string maps to exactly one index —
// so cell equality everywhere (the diff hot path, snapshot comparison,
// prediction judgement) is a single integer compare. The table is
// append-only and never shrinks: distinct clusters a workload prints are
// few, and sharing them process-wide is the point (thousands of sessiond
// sessions printing the same accented letters share one entry).

// graphemeBit marks a packed content word as an intern-table index.
const graphemeBit uint32 = 1 << 31

// maxGraphemeBytes caps a single cell's cluster size on the print path.
// Interned clusters live forever (the table is append-only and process
// wide), so without a cap a combining-mark flood — one hostile session
// printing base+mark^n — would permanently intern O(n²) bytes of
// ever-longer prefixes. Real terminals cap combining sequences similarly;
// marks beyond the cap are dropped.
const maxGraphemeBytes = 32

// maxInternedGraphemes bounds the table's cardinality: the length cap
// alone would still let a hostile stream intern unboundedly many
// *distinct* short clusters. At the cap (≈4 MB worst case, process-wide)
// new clusters degrade gracefully — combining appends drop the mark,
// internContents falls back to the cluster's base rune — while every
// already-interned cluster keeps rendering exactly.
const maxInternedGraphemes = 1 << 16

// maxCombineEntries bounds the combine cache for the same reason (its key
// space is (content word × rune), which an attacker can spray); past the
// cap, novel combinations take the uncached slow path but stay correct.
const maxCombineEntries = 1 << 18

// packRune returns the content word for a single rune.
func packRune(r rune) uint32 { return uint32(r) }

// combineKey caches the combining-character append transition: printing a
// combining mark onto a cell holding `content` yields the cluster
// `internTable.combine[key]`. It makes the combining print path a map hit
// instead of a string build + intern on every keystroke.
type combineKey struct {
	content uint32
	r       rune
}

// internTable is the concurrency-safe grapheme store. Writes (new
// clusters) take mu; the read paths are a read-locked map hit (intern,
// combine) or an atomic pointer load (index → string, used by rendering),
// so emulators on different goroutines never serialize on the render path
// and the steady-state print path performs no allocation.
type internTable struct {
	mu      sync.RWMutex
	byStr   map[string]uint32
	combine map[combineKey]uint32
	// backing is the writer's view of the index → cluster array (guarded
	// by mu); strs republishes a longer header over the same backing after
	// every append so readers need no lock.
	backing []string
	strs    atomic.Pointer[[]string]
}

// graphemes is the process-wide table.
var graphemes = &internTable{
	byStr:   make(map[string]uint32),
	combine: make(map[combineKey]uint32),
}

// InternedGraphemes reports how many multi-rune clusters the process-wide
// table holds (a resident-memory observability gauge; sessiond exports it).
func InternedGraphemes() int {
	if p := graphemes.strs.Load(); p != nil {
		return len(*p)
	}
	return 0
}

// internContents returns the content word for an arbitrary grapheme
// string: blank for empty, inline for a single rune, interned otherwise.
// When the table is at capacity a novel cluster degrades to its base rune
// (deterministic and render-safe) rather than growing the table.
func internContents(s string) uint32 {
	if s == "" {
		return 0
	}
	r, size := utf8.DecodeRuneInString(s)
	if size == len(s) {
		return packRune(r)
	}
	if v, ok := graphemes.intern(s); ok {
		return v
	}
	return packRune(r)
}

// intern returns the canonical content word for multi-rune cluster s,
// adding it to the table on first sight. ok is false when the table is at
// its cardinality cap and s is not already present; callers degrade.
//
// Growth is amortized O(1): the backing array is extended in place (the
// new element sits beyond every published snapshot's length, and the
// atomic Store that publishes the longer header is the release barrier
// readers synchronize on), with append's doubling only when capacity runs
// out — never a full copy per insert.
func (t *internTable) intern(s string) (uint32, bool) {
	t.mu.RLock()
	v, ok := t.byStr[s]
	t.mu.RUnlock()
	if ok {
		return v, true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if v, ok := t.byStr[s]; ok {
		return v, true
	}
	n := len(t.backing)
	if n >= maxInternedGraphemes {
		return 0, false
	}
	// Copy so the callers' byte slices / substrings are never retained.
	t.backing = append(t.backing, string(append([]byte(nil), s...)))
	hdr := t.backing
	t.strs.Store(&hdr)
	v = graphemeBit | uint32(n)
	t.byStr[t.backing[n]] = v
	return v, true
}

// appendRune returns the content word for `content` extended by the
// combining rune r — the emulator's combining-character print path. The
// steady state is a read-locked cache hit with zero allocations; only the
// first sighting of a (cluster, mark) pair builds a string. Clusters are
// capped at maxGraphemeBytes — an over-limit mark leaves the cell
// unchanged — and a full table likewise drops the mark; both outcomes are
// cached (while the cache itself is within bounds) so floods stay on the
// allocation-free hit path.
func (t *internTable) appendRune(content uint32, r rune) uint32 {
	if content == 0 {
		return internContents(string(r))
	}
	k := combineKey{content: content, r: r}
	t.mu.RLock()
	v, ok := t.combine[k]
	t.mu.RUnlock()
	if ok {
		return v
	}
	if s := t.clusterString(content); len(s)+utf8.RuneLen(r) > maxGraphemeBytes {
		v = content
	} else if iv, ok := t.intern(s + string(r)); ok {
		v = iv
	} else {
		v = content // table at capacity: drop the mark
	}
	t.mu.Lock()
	if len(t.combine) < maxCombineEntries {
		t.combine[k] = v
	}
	t.mu.Unlock()
	return v
}

// lookup returns the cluster string for an interned content word.
func (t *internTable) lookup(content uint32) string {
	return (*t.strs.Load())[content&^graphemeBit]
}

// clusterString materializes any content word against this table (inline
// runes resolve without a table at all).
func (t *internTable) clusterString(content uint32) string {
	if content&graphemeBit != 0 {
		return t.lookup(content)
	}
	return contentString(content)
}

// contentString materializes a content word as the grapheme string ("" for
// blank). Rendering hot paths use appendContent instead; this allocates
// for non-ASCII inline runes.
func contentString(content uint32) string {
	switch {
	case content == 0:
		return ""
	case content&graphemeBit == 0:
		r := rune(content)
		if r >= 0x20 && r < 0x7f {
			i := int(r) - 0x20
			return asciiContents[i : i+1]
		}
		return string(r)
	default:
		return graphemes.lookup(content)
	}
}

// appendContent appends the visible bytes of a content word to buf (a
// space when blank, mirroring Cell.String). This is the renderer's
// allocation-free emission path.
func appendContent(buf []byte, content uint32) []byte {
	switch {
	case content == 0:
		return append(buf, ' ')
	case content&graphemeBit == 0:
		return utf8.AppendRune(buf, rune(content))
	default:
		return append(buf, graphemes.lookup(content)...)
	}
}

// asciiContents interns the single-character strings for printable ASCII
// so ContentsString never allocates for the common case.
const asciiContents = " !\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`abcdefghijklmnopqrstuvwxyz{|}~"
