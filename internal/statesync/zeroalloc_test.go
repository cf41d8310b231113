package statesync

import (
	"fmt"
	"testing"
)

// TestCompleteAppendDiffZeroAlloc guards the statesync layer's steady-state
// diff path: with a warm FrameWriter from the process-wide pool and a reused
// output buffer, producing the wire diff (header + ANSI frame) allocates
// nothing.
func TestCompleteAppendDiffZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under -race; CI runs this guard without it")
	}
	cur := NewComplete(80, 24)
	for i := 0; i < 23; i++ {
		cur.Terminal().Write([]byte(fmt.Sprintf("line %d of steady-state screen\r\n", i)))
	}
	prev := cur.Clone()
	cur.Terminal().Write([]byte("$"))

	var buf []byte
	buf = cur.AppendDiff(buf[:0], prev) // warm the scratch
	if avg := testing.AllocsPerRun(100, func() {
		buf = cur.AppendDiff(buf[:0], prev)
	}); avg != 0 {
		t.Errorf("steady-state AppendDiff allocates %v per run, want 0", avg)
	}
	if len(buf) == 0 {
		t.Fatal("diff unexpectedly empty")
	}

	// The equality probes the sender runs each tick are allocation-free
	// too.
	same := cur.Clone()
	if avg := testing.AllocsPerRun(100, func() {
		if !cur.Equal(same) {
			t.Fatal("states diverged")
		}
	}); avg != 0 {
		t.Errorf("idle-tick Equal allocates %v per run, want 0", avg)
	}
}
