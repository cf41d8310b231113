package statesync

import (
	"fmt"
	"testing"
)

// BenchmarkCompleteCloneDiffTyping measures the full statesync layer cost
// of one sender tick on a typing workload: snapshot the screen state and
// produce the wire diff (header + ANSI frame).
func BenchmarkCompleteCloneDiffTyping(b *testing.B) {
	cur := NewComplete(80, 24)
	for i := 0; i < 23; i++ {
		cur.Terminal().Write([]byte(fmt.Sprintf("%2d: benchmark warmup line with typical content\r\n", i)))
	}
	cur.Terminal().Write([]byte("$ "))
	prev := cur.Clone()
	keys := []byte("git status && go test ./... ")
	reset := []byte("\r$ \x1b[K")
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur.Terminal().Write(keys[i%len(keys) : i%len(keys)+1])
		if i%len(keys) == len(keys)-1 {
			cur.Terminal().Write(reset)
		}
		buf = cur.AppendDiff(buf[:0], prev)
		prev = cur.Clone()
	}
	benchDiffSink = buf
}

// BenchmarkCompleteClone isolates the snapshot the sender takes for its
// sent-state history on every send.
func BenchmarkCompleteClone(b *testing.B) {
	cur := NewComplete(80, 24)
	for i := 0; i < 23; i++ {
		cur.Terminal().Write([]byte(fmt.Sprintf("%2d: benchmark warmup line with typical content\r\n", i)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCloneSink = cur.Clone()
	}
}

var (
	benchDiffSink  []byte
	benchCloneSink *Complete
)
