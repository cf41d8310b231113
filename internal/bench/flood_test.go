package bench

import (
	"testing"
	"time"

	"repro/internal/transport"
)

// TestFloodDiscardsOnePreparedFrame is the flood guard: a host that writes
// many times per collection interval costs the frame-ahead path one
// discarded frame when the burst starts and nothing after — the sender reads
// the traffic, there is no knob — and puts exactly the frames on the wire
// that a server which never builds ahead does, with the paper's frame cap
// and without it.
func TestFloodDiscardsOnePreparedFrame(t *testing.T) {
	for _, min := range []time.Duration{20 * time.Millisecond, time.Millisecond} {
		timing := transport.DefaultTiming()
		timing.SendIntervalMin = min
		plain := runFlood(2*time.Second, &timing, 3, false)
		ahead := runFlood(2*time.Second, &timing, 3, true)
		if !plain.Converged || !ahead.Converged {
			t.Fatalf("frame cap %v: converged plain=%v ahead=%v", min, plain.Converged, ahead.Converged)
		}
		wasted := ahead.Sender.Prepared - ahead.Sender.PreparedSent
		t.Logf("frame cap %v: %d frames, %d prepared, %d of them discarded", min, ahead.Frames, ahead.Sender.Prepared, wasted)
		if plain.Sender.Prepared != 0 {
			t.Fatalf("the reference flood prepared %d frames", plain.Sender.Prepared)
		}
		if wasted > 1 {
			t.Errorf("frame cap %v: the flood discarded %d prepared frames, want at most the one at its start", min, wasted)
		}
		ahead.Sender.Prepared, ahead.Sender.PreparedSent = 0, 0
		if ahead != plain {
			t.Errorf("frame cap %v: building ahead changed the flood:\n plain %+v\n ahead %+v", min, plain, ahead)
		}
	}
}
