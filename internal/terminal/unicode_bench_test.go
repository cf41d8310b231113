package terminal

import (
	"fmt"
	"strings"
	"testing"
)

// These benchmarks are the unicode-heavy companions to the ASCII
// snapshot/diff suite: the workloads the packed interned cell model exists
// for. They use only the public emulator/diff API, so they measure any cell
// representation.

// cjkEditorLines is an "editor" screenful in the CJK/emoji/combining mix a
// real compose session produces: wide ideographs, emoji, and accented
// text built from combining marks.
func cjkEditorLines() [][]byte {
	var lines [][]byte
	for i := 0; i < 16; i++ {
		lines = append(lines, []byte(fmt.Sprintf(
			"第%d行: 端末は状態を同期する 🙂 café déjà vu 終端\r\n", i)))
	}
	return lines
}

// BenchmarkSnapshotDiffCJKEditor is the sender tick under a CJK/emoji
// editor flood: every tick writes unicode-heavy lines, diffs against the
// previous snapshot, and takes a new snapshot.
func BenchmarkSnapshotDiffCJKEditor(b *testing.B) {
	emu := prefilledEmulator(80, 24)
	prev := emu.Framebuffer().Clone()
	lines := cjkEditorLines()
	var fw FrameWriter
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 4; j++ {
			emu.Write(lines[(i*4+j)%len(lines)])
		}
		buf = fw.AppendFrame(buf[:0], true, prev, emu.Framebuffer())
		prev = emu.Framebuffer().Clone()
	}
	benchSink = buf
}

// BenchmarkPrintCJKFlood isolates the emulator print path on pure wide
// ideographs (no diffing): the per-cell cost of non-ASCII contents.
func BenchmarkPrintCJKFlood(b *testing.B) {
	emu := NewEmulator(80, 24)
	line := []byte(strings.Repeat("漢字書込測定中", 5) + "\r\n")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emu.Write(line)
	}
}

// BenchmarkPrintCombiningFlood isolates the combining-mark attach path:
// every printed grapheme is a base letter plus two combining accents, so
// each cell's contents is a multi-rune cluster.
func BenchmarkPrintCombiningFlood(b *testing.B) {
	emu := NewEmulator(80, 24)
	var sb strings.Builder
	for i := 0; i < 20; i++ {
		sb.WriteString(string(rune('a'+i%26)) + "́̈")
	}
	sb.WriteString("\r\n")
	line := []byte(sb.String())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emu.Write(line)
	}
}
