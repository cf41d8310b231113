package telemetry

import (
	"strings"
	"testing"
	"time"
)

var recT0 = time.Date(2012, 4, 1, 0, 0, 0, 0, time.UTC)

func TestRecorderRoundTrip(t *testing.T) {
	r := NewRecorder(16)
	r.Record(EvKeystroke, 7, 1, recT0)
	r.Record(EvEcho, 7, 4200, recT0.Add(12*time.Millisecond))
	r.Record(EvRoam, 9, 2, recT0.Add(5*time.Millisecond))
	evs := r.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("snapshot has %d events, want 3", len(evs))
	}
	// Oldest first regardless of shard interleaving.
	want := []struct {
		code Code
		sess uint64
		arg  uint64
	}{{EvKeystroke, 7, 1}, {EvRoam, 9, 2}, {EvEcho, 7, 4200}}
	for i, w := range want {
		if evs[i].Code != w.code || evs[i].Session != w.sess || evs[i].Arg != w.arg {
			t.Fatalf("event %d = %+v, want %+v", i, evs[i], w)
		}
	}
	if !evs[2].At.Equal(recT0.Add(12 * time.Millisecond)) {
		t.Fatalf("timestamp not preserved: %v", evs[2].At)
	}
}

// TestRecorderWrap proves the ring keeps only the newest slots-per-shard
// events for a session: one session hashes to one shard.
func TestRecorderWrap(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Record(EvBatchIn, 8, uint64(i), recT0.Add(time.Duration(i)*time.Second))
	}
	evs := r.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("snapshot has %d events, want ring size 4", len(evs))
	}
	for i, ev := range evs {
		if ev.Arg != uint64(6+i) {
			t.Fatalf("event %d arg = %d, want %d (oldest overwritten)", i, ev.Arg, 6+i)
		}
	}
}

// TestRecordAllocFree is the CI alloc gate for the record path:
// storing an event must never allocate.
func TestRecordAllocFree(t *testing.T) {
	r := NewRecorder(0)
	ts := recT0
	if n := testing.AllocsPerRun(1000, func() { r.Record(EvEcho, 42, 7, ts) }); n != 0 {
		t.Fatalf("Record allocates %v per call", n)
	}
}

func TestRecorderDumpFormats(t *testing.T) {
	r := NewRecorder(16)
	r.Record(EvDropAuth, 3, 0, recT0)
	r.Record(EvShedTrip, 0, 256, recT0.Add(time.Second))
	now := recT0.Add(2 * time.Second)

	text := string(r.AppendDump(nil, "unit-test", now))
	for _, want := range []string{"reason: unit-test", "2 events", "drop_auth", "shed_trip", "arg=256"} {
		if !strings.Contains(text, want) {
			t.Errorf("text dump missing %q:\n%s", want, text)
		}
	}
}

// TestRecorderConcurrent hammers all shards under -race.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(64)
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(sess uint64) {
			for i := 0; i < 5000; i++ {
				r.Record(EvBatchIn, sess, uint64(i), recT0.Add(time.Duration(i)))
			}
			done <- struct{}{}
		}(uint64(w))
	}
	for i := 0; i < 100; i++ {
		r.Snapshot()
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	if evs := r.Snapshot(); len(evs) != 8*64 {
		t.Fatalf("final snapshot has %d events, want full rings (%d)", len(evs), 8*64)
	}
}
