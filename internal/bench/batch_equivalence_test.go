package bench

import (
	"bytes"
	"sort"
	"testing"
	"time"

	"repro/internal/sessiond"
)

// TestBatchEquivalenceUnderLossAndRoam is the batched pipeline's
// semantic-equivalence property: with the identical emulated network
// (same delivery instants, same loss decisions, same roaming schedule),
// the batched daemon — whole-batch demultiplexing, per-session runs,
// ring-buffered batched egress — must produce, for EVERY session, a
// byte-identical stream of server states to the unbatched baseline, and
// identical keystroke latencies. Batching may only change how many
// syscalls the traffic costs, never what the traffic is or when it
// happens. Runs mixed cohorts over lossy links with a third of the
// clients roaming mid-run, reusing the torture harness.
func TestBatchEquivalenceUnderLossAndRoam(t *testing.T) {
	base := loadOptions(t, "roam")
	base.Sessions, base.Keystrokes, base.TypeInterval, base.Seed = 120, 10, 150*time.Millisecond, 23
	base.captureFrames = true

	batched := base
	res := RunManySession(batched)

	unbatched := base
	unbatched.unbatched = true
	ref := RunManySession(unbatched)

	if len(res.FrameHashes) != base.Sessions || len(ref.FrameHashes) != base.Sessions {
		t.Fatalf("frame capture incomplete: %d vs %d hashes", len(res.FrameHashes), len(ref.FrameHashes))
	}
	for i := range res.FrameHashes {
		if res.FrameHashes[i] != ref.FrameHashes[i] {
			t.Errorf("session %d: frame-stream hash differs (batched %x vs unbatched %x)",
				i+1, res.FrameHashes[i], ref.FrameHashes[i])
		}
		if !bytes.Equal(res.FinalFrames[i], ref.FinalFrames[i]) {
			t.Errorf("session %d: converged frame differs:\nbatched   %q\nunbatched %q",
				i+1, res.FinalFrames[i], ref.FinalFrames[i])
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	// Every provider geometry in the ladder — loop (mmsg is `res` above) —
	// must produce the identical per-session frame streams: the I/O model
	// only changes how syscalls are accounted, never what any session sees.
	for _, m := range []sessiond.IOModel{sessiond.IOModelLoop} {
		mopt := base
		mopt.ioModel = m
		mres := RunManySession(mopt)
		if len(mres.FrameHashes) != base.Sessions {
			t.Fatalf("[%v] frame capture incomplete: %d hashes", m, len(mres.FrameHashes))
		}
		for i := range mres.FrameHashes {
			if mres.FrameHashes[i] != ref.FrameHashes[i] {
				t.Fatalf("session %d: frame-stream hash differs (%v %x vs unbatched %x)",
					i+1, m, mres.FrameHashes[i], ref.FrameHashes[i])
			}
			if !bytes.Equal(mres.FinalFrames[i], ref.FinalFrames[i]) {
				t.Fatalf("session %d: converged frame differs under the %v model", i+1, m)
			}
		}
		if mres.PacketsIn != ref.PacketsIn || mres.PacketsOut != ref.PacketsOut {
			t.Fatalf("[%v] wire traffic differs: %d/%d vs unbatched %d/%d pkts",
				m, mres.PacketsIn, mres.PacketsOut, ref.PacketsIn, ref.PacketsOut)
		}
	}

	if res.Lost != ref.Lost {
		t.Fatalf("lost keystrokes differ: batched %d vs unbatched %d", res.Lost, ref.Lost)
	}
	if res.Roams == 0 || res.Roams != ref.Roams {
		t.Fatalf("roaming events differ: batched %d vs unbatched %d", res.Roams, ref.Roams)
	}
	if res.PacketsIn != ref.PacketsIn || res.PacketsOut != ref.PacketsOut {
		t.Fatalf("wire traffic differs: batched %d/%d vs unbatched %d/%d pkts",
			res.PacketsIn, res.PacketsOut, ref.PacketsIn, ref.PacketsOut)
	}

	// Latency equivalence is exact, not statistical: the same keystrokes
	// become visible at the same virtual instants. (Sample order may
	// differ across sessions within an instant, so compare sorted.)
	if len(res.Samples) != len(ref.Samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(res.Samples), len(ref.Samples))
	}
	a := make([]time.Duration, len(res.Samples))
	b := make([]time.Duration, len(ref.Samples))
	for i := range res.Samples {
		a[i], b[i] = res.Samples[i].Latency, ref.Samples[i].Latency
	}
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("latency sample %d differs: batched %v vs unbatched %v", i, a[i], b[i])
		}
	}

	// And the whole point: identical traffic, materially fewer syscalls.
	// (The win grows with session count — TestManySessionLoad1000 gates
	// the ≥4x acceptance threshold at 1000 sessions; at this test's 120
	// sessions a fraction of that is expected.)
	if got, limit := res.ReadCalls+res.WriteCalls, (ref.ReadCalls+ref.WriteCalls)*4/5; got >= limit {
		t.Fatalf("batched mode used %d syscalls, want materially fewer than the unbatched baseline's %d",
			got, ref.ReadCalls+ref.WriteCalls)
	}
	if ref.SyscallsPerPacket != 1.0 {
		t.Fatalf("unbatched baseline = %.3f syscalls/pkt, want exactly 1.0", ref.SyscallsPerPacket)
	}
	t.Logf("equivalent streams; syscalls/pkt: batched %.3f vs unbatched %.3f",
		res.SyscallsPerPacket, ref.SyscallsPerPacket)
}
