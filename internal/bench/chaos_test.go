package bench

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/sspcrypto"
)

// TestNonceAudit: the chaos run's audit counts one violation for each
// datagram sealed under a (key, direction, sequence number) already used,
// whether it carries the same frame or another one (what a restored daemon
// reusing a nonce would send), and none for fresh sequence numbers, the
// other direction or another session's key. It reads the nonce through the
// datagram's own headers, so sequence numbers whose headers differ in
// length are told apart, and a datagram it cannot read is not vouched for.
func TestNonceAudit(t *testing.T) {
	seal := func(id uint64, dir sspcrypto.Direction, seq uint64, frame string) []byte {
		t.Helper()
		s, err := sspcrypto.NewSession(sspcrypto.Key{byte(id)})
		if err != nil {
			t.Fatal(err)
		}
		wire, err := s.SealAppend(network.AppendEnvelope(nil, id), dir, seq, []byte(frame))
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	var a nonceAudit
	for _, tc := range []struct {
		what  string
		wire  []byte
		reuse bool
	}{
		{"session 1, seq 0", seal(1, sspcrypto.ToClient, 0, "a"), false},
		{"session 1, seq 1", seal(1, sspcrypto.ToClient, 1, "b"), false},
		{"session 1, seq 64 (2-byte header)", seal(1, sspcrypto.ToClient, 64, "c"), false},
		{"session 1, seq 1<<16 (3-byte header)", seal(1, sspcrypto.ToClient, 1<<16, "d"), false},
		{"session 1, seq 1, other direction", seal(1, sspcrypto.ToServer, 1, "b"), false},
		{"session 2, seq 1", seal(2, sspcrypto.ToClient, 1, "b"), false},
		{"session 1, seq 1 resealed", seal(1, sspcrypto.ToClient, 1, "b"), true},
		{"session 1, seq 64, another frame", seal(1, sspcrypto.ToClient, 64, "e"), true},
		{"session 1, seq 2", seal(1, sspcrypto.ToClient, 2, "f"), false},
		{"no sequence header", network.AppendEnvelope(nil, 1), true},
	} {
		if got := a.reused(tc.wire); got != tc.reuse {
			t.Errorf("%s: reused = %v, want %v", tc.what, got, tc.reuse)
		}
	}
}

// TestChaosTorture is the capstone fault-injection run: ~200 mixed-cohort
// sessions in virtual time under a seeded hostile-world schedule — wire
// drop/dup/corrupt/truncate in both directions, cohort link loss, a
// fault-injecting disk under the journal (driving retry, backoff, and
// suspension), a mid-run daemon kill + journal restore, and a roam wave —
// and the survivable-failure contract that must hold through all of it:
//
//  1. Every session converges to a final screen BYTE-IDENTICAL to an
//     undisturbed baseline run with the same seed.
//  2. The daemon never reuses a nonce: every sealed (session, direction,
//     sequence) nonce is unique across both daemon incarnations.
//  3. Every keystroke's echo becomes visible (nothing is silently lost).
//  4. Retries stay backoff-bounded: a flush-failure count anywhere near
//     one-per-tick would mean the backoff gate is not holding.
//
// Everything is deterministic from the seeds; on failure the schedule is
// reproducible from the logged chaos seed.
func TestChaosTorture(t *testing.T) {
	sized := func(name string) ManySessionOptions {
		opt := loadOptions(t, name)
		opt.Sessions, opt.Keystrokes, opt.TypeInterval, opt.Seed = 200, 20, 150*time.Millisecond, 77
		opt.captureFrames = true
		return opt
	}
	clean := RunManySession(sized("mixed"))

	chaos := sized("chaos")
	chaos.chaosSeed = 1077
	got := RunManySession(chaos)
	t.Logf("chaos seed %d\n%s", chaos.chaosSeed, FormatManySession(got))

	// The schedule must have actually been hostile — a chaos run that
	// injected nothing proves nothing.
	if got.ChaosDropped == 0 || got.ChaosDuplicated == 0 ||
		got.ChaosCorrupted == 0 || got.ChaosTruncated == 0 {
		t.Fatalf("chaos schedule injected nothing: dropped=%d duped=%d corrupted=%d truncated=%d",
			got.ChaosDropped, got.ChaosDuplicated, got.ChaosCorrupted, got.ChaosTruncated)
	}
	if got.AuthDrops == 0 {
		t.Fatal("corrupted datagrams produced no auth drops — injection not reaching the daemon")
	}
	if got.JournalFlushFailures == 0 {
		t.Fatal("disk fault windows produced no journal flush failures")
	}
	if !got.JournalSuspendedSeen {
		t.Fatal("sustained disk failure never drove the journal into suspension")
	}

	// Contract 2: zero nonce reuse, across the restart included.
	if got.NonceViolations != 0 {
		t.Fatalf("%d nonce violations — the daemon resealed a (session, sequence) pair", got.NonceViolations)
	}

	// The restore side of the torture: the mid-chaos kill must come back
	// with every session.
	if !got.Restarted || got.Restored != int64(got.Sessions) {
		t.Fatalf("restart restored %d/%d sessions", got.Restored, got.Sessions)
	}

	// Contract 3: every keystroke's echo eventually became visible.
	if got.Lost != 0 {
		t.Fatalf("%d keystrokes never became visible through the chaos", got.Lost)
	}

	// Contract 4: flush attempts stay backoff-bounded. The fault windows
	// total a few seconds; with a 40ms→400ms doubling backoff that is a
	// few dozen attempts at the very most, where an unbounded loop would
	// be thousands.
	if got.JournalFlushFailures > 200 {
		t.Fatalf("%d journal flush failures — retry loop is not backoff-bounded", got.JournalFlushFailures)
	}

	// Contract 1: byte-identical final screens against the undisturbed
	// baseline. The intermediate frame STREAMS legitimately differ (loss
	// reshapes which states each client sees), but the converged screens
	// may not differ by a single byte.
	if len(got.FinalFrames) != len(clean.FinalFrames) {
		t.Fatalf("frame capture mismatch: %d vs %d sessions", len(got.FinalFrames), len(clean.FinalFrames))
	}
	diverged := 0
	for i := range got.FinalFrames {
		if !bytes.Equal(got.FinalFrames[i], clean.FinalFrames[i]) {
			diverged++
			if diverged <= 3 {
				t.Errorf("session %d: final screen diverged from the undisturbed baseline", i+1)
			}
		}
	}
	if diverged > 0 {
		t.Fatalf("%d/%d sessions diverged from the baseline (chaos seed %d)",
			diverged, len(got.FinalFrames), chaos.chaosSeed)
	}
}
