package terminal

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkProgressLine redraws a progress line in place on a 132-column
// row no snapshot shares, as a flood of "\r\x1b[K" plus 63 characters in one
// host write does: each cycle's EL returns the row to the blank array
// (eraseRow) and the characters give it a content plane again, one byte a
// cell, which is all a cycle allocates.
func BenchmarkProgressLine(b *testing.B) {
	e := NewEmulator(132, 4)
	line := []byte(fmt.Sprintf("\r\x1b[K%-63s", "[##########################............] 68% 1.2 MB/s"))
	e.Write(line)
	b.SetBytes(int64(len(line)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Write(line)
	}
}

// BenchmarkTrainsDiff times the frame diff of the trains workload's shape:
// a 162×64 screen of uncoloured output that scrolls 96 fresh lines of 160
// random printable characters between frames, so each incremental frame
// repaints every row against the previous snapshot's.
func BenchmarkTrainsDiff(b *testing.B) {
	const w, h, lines, frames = 162, 64, 96, 8
	rng := rand.New(rand.NewSource(1))
	e := NewEmulator(w, h)
	snaps := []*Framebuffer{e.Framebuffer().Clone()}
	line := make([]byte, 160)
	for f := 0; f < frames; f++ {
		var out []byte
		for l := 0; l < lines; l++ {
			for i := range line {
				line[i] = byte(' ' + rng.Intn(95))
			}
			out = append(append(out, line...), "\r\n"...)
		}
		e.Write(out)
		snaps = append(snaps, e.Framebuffer().Clone())
	}
	var fw FrameWriter
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % frames
		buf = fw.AppendFrame(buf[:0], true, snaps[j], snaps[j+1])
	}
	benchSink = buf
}
