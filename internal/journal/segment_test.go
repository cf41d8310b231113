package journal

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func TestSegmentNameRoundTrip(t *testing.T) {
	for _, c := range []struct{ epoch, seq uint64 }{{0, 0}, {1, 0}, {7, 123}, {1 << 40, 1 << 50}} {
		name := segmentFileName(c.epoch, c.seq)
		ep, sq, ok := parseSegmentName(name)
		if !ok || ep != c.epoch || sq != c.seq {
			t.Fatalf("%q parsed to (%d, %d, %v), want (%d, %d)", name, ep, sq, ok, c.epoch, c.seq)
		}
	}
	for _, bad := range []string{
		"sessions.journal", "sessions.journal.tmp", "sessions.journal.seg.",
		"sessions.journal.seg.1", "sessions.journal.seg.1.", "sessions.journal.seg..2",
		"sessions.journal.seg.x.2", "sessions.journal.seg.1.y", "other.seg.1.2",
	} {
		if _, _, ok := parseSegmentName(bad); ok {
			t.Fatalf("%q parsed as a segment name", bad)
		}
	}
}

// TestSegmentRecordsTornVsCorrupt pins the damage taxonomy the replay
// relies on: every truncation of the record region is classified torn
// (recoverable prefix), while in-place byte damage on a complete frame is
// classified corruption.
func TestSegmentRecordsTornVsCorrupt(t *testing.T) {
	bodies := [][]byte{
		append([]byte{recMeta}, binary.AppendUvarint(nil, 99)...),
		append([]byte{recClose}, binary.AppendUvarint(nil, 7)...),
		append([]byte{recFull}, appendSnapshot(nil, sampleSnapshot(11))...),
	}
	var region []byte
	boundary := map[int]int{0: 0} // byte offset -> complete records before it
	for i, b := range bodies {
		region = appendFramedRecord(region, b)
		boundary[len(region)] = i + 1
	}
	recs, bad, torn := decodeSegmentRecords(region)
	if bad != 0 || torn || len(recs) != len(bodies) {
		t.Fatalf("pristine region: recs=%d bad=%d torn=%v", len(recs), bad, torn)
	}
	for i, rec := range recs {
		if !bytes.Equal(rec, bodies[i]) {
			t.Fatalf("record %d did not round-trip", i)
		}
	}
	for n := 0; n < len(region); n++ {
		recs, bad, torn := decodeSegmentRecords(region[:n])
		if whole, atBoundary := boundary[n]; atBoundary {
			// A cut on a frame boundary is a clean, shorter segment.
			if bad != 0 || torn || len(recs) != whole {
				t.Fatalf("boundary cut at %d: recs=%d bad=%d torn=%v, want %d clean records", n, len(recs), bad, torn, whole)
			}
		} else if bad == 0 || !torn {
			t.Fatalf("mid-frame cut at %d: recs=%d bad=%d torn=%v, want torn damage", n, len(recs), bad, torn)
		}
		for i, rec := range recs {
			if !bytes.Equal(rec, bodies[i]) {
				t.Fatalf("truncation at %d: surviving record %d altered", n, i)
			}
		}
	}
	// Flip one byte inside the LAST record's frame: the complete-frame CRC
	// check must classify it as corruption, and earlier records survive.
	mut := append([]byte(nil), region...)
	mut[len(mut)-5] ^= 0x20
	recs, bad, torn = decodeSegmentRecords(mut)
	if bad == 0 || torn || len(recs) != len(bodies)-1 {
		t.Fatalf("corrupted tail frame: recs=%d bad=%d torn=%v, want prefix + corruption", len(recs), bad, torn)
	}
}

// FuzzSegmentDecode: arbitrary segment files — and every truncation of a
// valid one — must never panic the replay, whatever mix of full, delta,
// tombstone and meta records they decode into.
func FuzzSegmentDecode(f *testing.F) {
	base := sampleSnapshot(6)
	var file []byte
	file = appendSegmentHeader(file, 3, 7)
	file = appendFramedRecord(file, append([]byte{recMeta}, binary.AppendUvarint(nil, 42)...))
	file = appendFramedRecord(file, append([]byte{recClose}, binary.AppendUvarint(nil, 9)...))
	file = appendFramedRecord(file, append([]byte{recFull}, appendSnapshot(nil, base)...))
	file = appendFramedRecord(file, appendDeltaBody(nil, base, []int{0, 2, 5}))
	f.Add(file)
	f.Add(file[:len(file)/2])
	f.Add(file[:11])
	f.Add([]byte(segMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, body, err := decodeSegmentHeader(data)
		if err != nil {
			return
		}
		recs, _, _ := decodeSegmentRecords(body)
		replay := newReplay(header{NextID: 1}, []*Snapshot{sampleSnapshot(6)})
		for _, rec := range recs {
			if !replay.applyRecord(rec) {
				break
			}
		}
	})
}
