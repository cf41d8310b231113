package sessiond

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/netem"
	"repro/internal/simclock"
)

// journalTestDaemon builds a loop-less daemon over a real state directory:
// FlushJournal is fully synchronous, so every test below is deterministic.
func journalTestDaemon(t *testing.T, dir string, mod func(*Config), lim ...Limit) *Daemon {
	t.Helper()
	cfg := Config{
		Clock:       simclock.NewScheduler(time.Date(2012, 4, 1, 0, 0, 0, 0, time.UTC)),
		Send:        func(netem.Addr, []byte) {},
		IdleTimeout: -1,
		StateDir:    dir,
	}
	if mod != nil {
		mod(&cfg)
	}
	d, err := NewWithLimits(cfg, lim...)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// dirtyOutput applies host output to the session's screen (and thereby
// marks it dirty for the next incremental flush).
func dirtyOutput(s *Session, text string) {
	s.Do(func(srv *core.Server) { srv.HostOutput([]byte(text)) })
}

// fbBytes returns the canonical serialization of the session's screen.
func fbBytes(s *Session) []byte {
	var b []byte
	s.Do(func(srv *core.Server) {
		b = srv.Terminal().Framebuffer().AppendSnapshot(nil)
	})
	return b
}

// segSuffix is what internal/journal puts in a segment file's name.
const segSuffix = ".seg."

// dirListing returns the sorted file names of a state directory.
func dirListing(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// TestIncrementalJournalRestoreRoundTrip drives several sessions through
// multiple incremental flushes (full records, then row deltas), kills the
// daemon without a final flush, and requires the restored screens to be
// byte-identical to the live ones — checkpoint + segment replay loses
// nothing.
func TestIncrementalJournalRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := journalTestDaemon(t, dir, nil)
	var sessions []*Session
	for i := 0; i < 3; i++ {
		s, err := d.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		dirtyOutput(s, fmt.Sprintf("\x1b[1;3%dmsession %d banner\x1b[0m\r\n", i+1, i))
		sessions = append(sessions, s)
	}
	if err := d.FlushJournal(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		for i, s := range sessions {
			dirtyOutput(s, fmt.Sprintf("round %d output on session %d\r\n", round, i))
		}
		if err := d.FlushJournal(); err != nil {
			t.Fatal(err)
		}
	}
	if segs := d.metrics.JournalSegments.Value(); segs < 5 {
		t.Fatalf("journal_segments = %d after 5 incremental flushes, want >= 5", segs)
	}

	live := make(map[uint64][]byte, len(sessions))
	for _, s := range sessions {
		live[s.ID] = fbBytes(s)
	}
	// Hard kill: no Close, no final flush. Boot a second daemon on the
	// same directory.
	d2 := journalTestDaemon(t, dir, nil)
	if got := d2.Metrics().SessionsRestored.Value(); got != int64(len(sessions)) {
		t.Fatalf("restored %d/%d sessions", got, len(sessions))
	}
	for id, want := range live {
		s2 := d2.Lookup(id)
		if s2 == nil {
			t.Fatalf("session %d missing after restore", id)
		}
		if got := fbBytes(s2); !bytes.Equal(got, want) {
			t.Fatalf("session %d: restored screen differs from live screen (%d vs %d bytes)", id, len(got), len(want))
		}
	}
	// Counters restored at-or-above the live ones (the reservation bump).
	for _, s := range sessions {
		var liveSeq, restSeq uint64
		s.Do(func(srv *core.Server) { liveSeq = srv.Transport().Connection().NextSeq() })
		d2.Lookup(s.ID).Do(func(srv *core.Server) { restSeq = srv.Transport().Connection().NextSeq() })
		if restSeq < liveSeq {
			t.Fatalf("session %d: restored NextSeq %d below live %d", s.ID, restSeq, liveSeq)
		}
	}
}

// TestJournalIdleSessionsZeroFlushBytes pins the dirty-tracking contract:
// once flushed, idle sessions cost ZERO bytes (and zero I/O of any kind)
// on subsequent flushes, and a single busy session among many costs only
// its own delta.
func TestJournalIdleSessionsZeroFlushBytes(t *testing.T) {
	dir := t.TempDir()
	d := journalTestDaemon(t, dir, nil)
	var sessions []*Session
	for i := 0; i < 8; i++ {
		s, err := d.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		dirtyOutput(s, fmt.Sprintf("user@host:~$ session %d ready\r\n", i))
		sessions = append(sessions, s)
	}
	preBatch := d.metrics.JournalBytes.Value()
	if err := d.FlushJournal(); err != nil {
		t.Fatal(err)
	}
	batchBytes := d.metrics.JournalBytes.Value() - preBatch
	if batchBytes <= 0 {
		t.Fatal("first incremental flush wrote nothing")
	}

	bytes0 := d.metrics.JournalBytes.Value()
	flushes0 := d.metrics.JournalFlushes.Value()
	listing0 := dirListing(t, dir)
	for i := 0; i < 5; i++ {
		if err := d.FlushJournal(); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.metrics.JournalBytes.Value(); got != bytes0 {
		t.Fatalf("idle flushes wrote %d bytes, want 0", got-bytes0)
	}
	if got := d.metrics.JournalFlushes.Value(); got != flushes0 {
		t.Fatalf("idle flushes counted as %d real flushes, want 0", got-flushes0)
	}
	if got := dirListing(t, dir); !equalStrings(got, listing0) {
		t.Fatalf("idle flushes touched the state directory: %v -> %v", listing0, got)
	}

	// One busy session among eight: the flush costs only that session's
	// delta, far below re-recording the whole batch.
	dirtyOutput(sessions[0], "one more line\r\n")
	if err := d.FlushJournal(); err != nil {
		t.Fatal(err)
	}
	delta := d.metrics.JournalBytes.Value() - bytes0
	if delta <= 0 {
		t.Fatal("busy-session flush wrote nothing")
	}
	if delta*4 > batchBytes {
		t.Fatalf("single-session delta %dB is not small against the 8-session batch %dB", delta, batchBytes)
	}
}

func equalStrings(a, b []string) bool {
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

// TestJournalCompaction drives the segment tail past the compaction
// threshold and verifies the fold: a fresh checkpoint supersedes the tail,
// the old segments are deleted, and a restart restores the exact state.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	d := journalTestDaemon(t, dir, nil, JournalCompactMinBytes(1))
	s, err := d.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	runs0 := d.metrics.CompactionRuns.Value()
	line := strings.Repeat("compaction fodder line of output ", 4) + "\r\n"
	compacted := false
	for i := 0; i < 300; i++ {
		dirtyOutput(s, fmt.Sprintf("%04d %s", i, line))
		if err := d.FlushJournal(); err != nil {
			t.Fatal(err)
		}
		if d.metrics.CompactionRuns.Value() > runs0 {
			compacted = true
			break
		}
	}
	if !compacted {
		t.Fatal("segment tail never triggered compaction")
	}
	if got := d.metrics.JournalSegments.Value(); got != 0 {
		t.Fatalf("journal_segments = %d right after compaction, want 0", got)
	}
	for _, name := range dirListing(t, dir) {
		if strings.Contains(name, segSuffix) {
			t.Fatalf("stale segment %q survived compaction", name)
		}
	}
	want := fbBytes(s)
	d2 := journalTestDaemon(t, dir, nil)
	s2 := d2.Lookup(s.ID)
	if s2 == nil {
		t.Fatal("session missing after post-compaction restore")
	}
	if got := fbBytes(s2); !bytes.Equal(got, want) {
		t.Fatal("post-compaction restore differs from live screen")
	}
}

// TestMidCompactionCrashRestore simulates dying between the two steps of a
// compaction — the new-epoch checkpoint is durable but the superseded
// segments were never deleted — and requires the next boot to restore
// purely from the checkpoint, ignore the stale epoch, and clean it up.
func TestMidCompactionCrashRestore(t *testing.T) {
	dir := t.TempDir()
	d := journalTestDaemon(t, dir, nil, JournalCompactMinBytes(1))
	s, err := d.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	runs0 := d.metrics.CompactionRuns.Value()
	stale := make(map[string][]byte)
	compacted := false
	for i := 0; i < 300; i++ {
		dirtyOutput(s, fmt.Sprintf("line %04d with enough content to add up\r\n", i))
		// Remember the segment files that exist BEFORE each flush: when
		// the compacting flush lands, these are exactly the files its
		// second step deletes.
		for _, name := range dirListing(t, dir) {
			if strings.Contains(name, segSuffix) {
				if _, seen := stale[name]; !seen {
					data, err := os.ReadFile(filepath.Join(dir, name))
					if err != nil {
						t.Fatal(err)
					}
					stale[name] = data
				}
			}
		}
		if err := d.FlushJournal(); err != nil {
			t.Fatal(err)
		}
		if d.metrics.CompactionRuns.Value() > runs0 {
			compacted = true
			break
		}
	}
	if !compacted || len(stale) == 0 {
		t.Fatalf("no compaction observed (compacted=%v staleSegs=%d)", compacted, len(stale))
	}
	want := fbBytes(s)
	// Crash happened before the deletes: put the superseded segments back.
	for name, data := range stale {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	d2 := journalTestDaemon(t, dir, nil)
	s2 := d2.Lookup(s.ID)
	if s2 == nil {
		t.Fatal("session missing after mid-compaction-crash restore")
	}
	if got := fbBytes(s2); !bytes.Equal(got, want) {
		t.Fatal("mid-compaction-crash restore differs from live screen")
	}
	// The stale epoch was recognized and cleaned up.
	for _, name := range dirListing(t, dir) {
		if _, wasStale := stale[name]; wasStale {
			t.Fatalf("stale segment %q survived the restoring boot", name)
		}
	}
}

// TestTornSegmentRestoresWithoutPoison pins the torn-tail policy: a short
// write tears the newest segment, and the next boot still restores EVERY
// session — the untouched ones exactly, the torn one at its last durable
// state — because truncation damage never poisons the replay.
func TestTornSegmentRestoresWithoutPoison(t *testing.T) {
	dir := t.TempDir()
	ffs := faultinject.NewFaultFS(nil, 21)
	d := journalTestDaemon(t, dir, func(c *Config) { c.FS = ffs })
	sA, err := d.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	sB, err := d.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	dirtyOutput(sA, "session A durable base\r\n")
	dirtyOutput(sB, "session B durable base\r\n")
	if err := d.FlushJournal(); err != nil {
		t.Fatal(err)
	}
	durableA, durableB := fbBytes(sA), fbBytes(sB)

	dirtyOutput(sA, "doomed update that the disk will tear\r\n")
	ffs.SetFaults(faultinject.FSFaults{ShortWriteProb: 1})
	if err := d.FlushJournal(); err == nil {
		t.Fatal("short-written flush reported success")
	}
	ffs.SetFaults(faultinject.FSFaults{})

	// Hard kill, healthy boot.
	d2 := journalTestDaemon(t, dir, nil)
	if got := d2.Metrics().SessionsRestored.Value(); got != 2 {
		t.Fatalf("restored %d/2 sessions after a torn segment — torn damage must not poison", got)
	}
	gotB := fbBytes(d2.Lookup(sB.ID))
	if !bytes.Equal(gotB, durableB) {
		t.Fatal("untouched session B changed across the torn-segment restore")
	}
	gotA := fbBytes(d2.Lookup(sA.ID))
	liveA := fbBytes(sA)
	if !bytes.Equal(gotA, durableA) && !bytes.Equal(gotA, liveA) {
		t.Fatal("session A restored to neither its durable base nor the torn update")
	}
}
