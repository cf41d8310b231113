package bench

import (
	"testing"
	"time"

	"repro/internal/core"
)

// TestFloodDiscardsOnePreparedFrame is the flood guard: a host that writes
// many times per collection interval costs the frame-ahead path one
// discarded frame when the burst starts and nothing after — the sender reads
// the traffic, there is no knob — and puts exactly the frames on the wire
// that a server which never builds ahead does, with the paper's frame cap
// and without it.
func TestFloodDiscardsOnePreparedFrame(t *testing.T) {
	for _, a := range Ablations {
		for _, p := range a.Points {
			if !p.Flood {
				continue
			}
			prepared := 0
			plain := runFlood(2*time.Second, a.Link, p.Mosh.Timing, 3, nil)
			ahead := runFlood(2*time.Second, a.Link, p.Mosh.Timing, 3, func(s *core.Server) bool {
				if s.Prepare() {
					prepared++
					return true
				}
				return false
			})
			if !plain.Converged || !ahead.Converged {
				t.Fatalf("%s: converged plain=%v ahead=%v", p.Label, plain.Converged, ahead.Converged)
			}
			wasted := prepared - ahead.Sender.PreparedSent
			t.Logf("%s: %d frames, %d prepared, %d of them discarded", p.Label, ahead.Frames, prepared, wasted)
			if plain.Sender.PreparedSent != 0 {
				t.Fatalf("the reference flood sent %d prepared frames", plain.Sender.PreparedSent)
			}
			if wasted > 1 {
				t.Errorf("%s: the flood discarded %d prepared frames, want at most the one at its start", p.Label, wasted)
			}
			ahead.Sender.PreparedSent = 0
			if ahead != plain {
				t.Errorf("%s: building ahead changed the flood:\n plain %+v\n ahead %+v", p.Label, plain, ahead)
			}
		}
	}
}
