package journal

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/sspcrypto"
	"repro/internal/terminal"
)

// sampleSnapshot builds a realistic snapshot: a screen driven through the
// emulator (colors, wide characters, combining marks, scrolled lines) plus
// every counter field populated.
func sampleSnapshot(seed int64) *Snapshot {
	rng := rand.New(rand.NewSource(seed))
	emu := terminal.NewEmulator(80, 24)
	emu.Write([]byte("\x1b]0;resume torture\x07"))
	emu.Write([]byte("\x1b[1;31mbold red\x1b[0m plain \x1b[44mblue bg\x1b[0m\r\n"))
	emu.Write([]byte("cjk: 你好世界 emoji: 🙂 combining: ȩ́\r\n"))
	for i := 0; i < 30; i++ {
		emu.Write([]byte("scrolled line with content\r\n"))
	}
	emu.Write([]byte("\x1b[5;10H\x1b[4mcursor parked here"))

	key, _ := sspcrypto.KeyFromBytes(bytes.Repeat([]byte{byte(seed)}, sspcrypto.KeySize))
	sn := &Snapshot{
		ID:           rng.Uint64(),
		Key:          key,
		OrigW:        80,
		OrigH:        24,
		NextSeq:      rng.Uint64() >> 1,
		ExpectedSeq:  rng.Uint64() >> 1,
		NextStateNum: rng.Uint64() >> 1,
		RecvNum:      rng.Uint64() >> 1,
		StreamSize:   rng.Uint64() >> 1,
		HaveRemote:   seed%2 == 0,
		Remote:       netem.Addr{Host: rng.Uint32(), Port: uint16(rng.Uint32())},
		Heard:        seed%3 == 0,
		LastActive:   time.Unix(0, rng.Int63()),
		PendingOut: []TimedOutput{
			{At: time.Unix(0, rng.Int63()), Data: []byte("queued host output\r\n")},
			{At: time.Unix(0, rng.Int63()), Data: []byte{0x1b, '[', '2', 'J'}},
		},
		FB: emu.Framebuffer(),
	}
	return sn
}

// appendJournal assembles a checkpoint file the way a flush does.
func appendJournal(buf []byte, hdr header, records [][]byte) []byte {
	buf = appendCheckpointHeader(buf, hdr, len(records))
	for _, rec := range records {
		buf = appendFramedRecord(buf, rec)
	}
	return buf
}

// TestSessionSnapshotRoundTrip: decode(encode(s)) == s, field by field,
// with the framebuffer compared through its canonical serialization.
func TestSessionSnapshotRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		sn := sampleSnapshot(seed)
		enc := appendSnapshot(nil, sn)
		got, err := decodeSnapshot(enc)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if got.ID != sn.ID || got.Key != sn.Key || got.OrigW != sn.OrigW || got.OrigH != sn.OrigH ||
			got.NextSeq != sn.NextSeq || got.ExpectedSeq != sn.ExpectedSeq ||
			got.NextStateNum != sn.NextStateNum || got.RecvNum != sn.RecvNum ||
			got.StreamSize != sn.StreamSize || got.HaveRemote != sn.HaveRemote ||
			got.Remote != sn.Remote || got.Heard != sn.Heard ||
			!got.LastActive.Equal(sn.LastActive) {
			t.Fatalf("seed %d: scalar fields did not round-trip: %+v vs %+v", seed, got, sn)
		}
		if len(got.PendingOut) != len(sn.PendingOut) {
			t.Fatalf("seed %d: pending out length %d != %d", seed, len(got.PendingOut), len(sn.PendingOut))
		}
		for i := range got.PendingOut {
			if !got.PendingOut[i].At.Equal(sn.PendingOut[i].At) ||
				!bytes.Equal(got.PendingOut[i].Data, sn.PendingOut[i].Data) {
				t.Fatalf("seed %d: pending out %d did not round-trip", seed, i)
			}
		}
		// The codec is canonical for decoded values: re-encoding the
		// decoded snapshot reproduces the bytes exactly (framebuffer
		// included — cells, draw state, tabs, title).
		re := appendSnapshot(nil, got)
		if !bytes.Equal(enc, re) {
			t.Fatalf("seed %d: re-encode differs (%d vs %d bytes)", seed, len(enc), len(re))
		}
	}
}

// TestSessionSnapshotTruncation: every strict prefix of a valid encoding
// must error — never panic, never decode.
func TestSessionSnapshotTruncation(t *testing.T) {
	enc := appendSnapshot(nil, sampleSnapshot(1))
	for n := 0; n < len(enc); n++ {
		if _, err := decodeSnapshot(enc[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(enc))
		}
	}
}

// TestSessionSnapshotVersionSkew: an unknown snapshot version errors.
func TestSessionSnapshotVersionSkew(t *testing.T) {
	enc := appendSnapshot(nil, sampleSnapshot(2))
	enc[0] = snapshotVersion + 1
	if _, err := decodeSnapshot(enc); err == nil {
		t.Fatal("version-skewed snapshot decoded without error")
	}
}

// TestJournalDetectsCorruption: flipping any byte of a journal file is
// detected — a header error or a skipped (CRC-failed) record — and never
// silently accepted or panicking.
func TestJournalDetectsCorruption(t *testing.T) {
	recs := [][]byte{
		appendSnapshot(nil, sampleSnapshot(3)),
		appendSnapshot(nil, sampleSnapshot(4)),
	}
	hdr := header{NextID: 7, FlushedAt: time.Unix(0, 12345)}
	file := appendJournal(nil, hdr, recs)

	if _, snaps, bad, err := decodeCheckpoint(file); err != nil || bad != 0 || len(snaps) != 2 {
		t.Fatalf("pristine journal: snaps=%d bad=%d err=%v", len(snaps), bad, err)
	}
	for pos := 0; pos < len(file); pos++ {
		mut := append([]byte(nil), file...)
		mut[pos] ^= 0x40
		_, snaps, bad, err := decodeCheckpoint(mut)
		if err == nil && bad == 0 && len(snaps) == 2 {
			t.Fatalf("corruption at byte %d/%d went undetected", pos, len(file))
		}
	}
	// Truncation is always detected, and a torn record section must not
	// take down the whole load: once the header is intact, every record
	// that fully survived is still recovered.
	for n := 0; n < len(file); n++ {
		_, snaps, bad, err := decodeCheckpoint(file[:n])
		if err == nil && bad == 0 {
			t.Fatalf("truncated journal (%d/%d bytes) went undetected", n, len(file))
		}
		if err != nil && len(snaps) > 0 {
			t.Fatalf("truncation at %d returned fatal error despite %d recovered records", n, len(snaps))
		}
	}
	// A torn tail right after the first complete record keeps that record:
	// strip the second record (its uvarint length prefix, bytes, CRC).
	rec1Framed := len(binary.AppendUvarint(nil, uint64(len(recs[1])))) + len(recs[1]) + 4
	cut := len(file) - rec1Framed
	if _, snaps, bad, err := decodeCheckpoint(file[:cut]); err != nil || bad != 1 || len(snaps) != 1 {
		t.Fatalf("torn tail: snaps=%d bad=%d err=%v, want 1 recovered + 1 bad", len(snaps), bad, err)
	}
}

// FuzzSessionSnapshotCodec is the round-trip fuzz harness: arbitrary
// input must never panic; anything that decodes must re-encode to a
// stable canonical form.
func FuzzSessionSnapshotCodec(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(appendSnapshot(nil, sampleSnapshot(seed)))
	}
	f.Add([]byte{})
	f.Add([]byte{snapshotVersion})
	f.Fuzz(func(t *testing.T, data []byte) {
		sn, err := decodeSnapshot(data)
		if err != nil {
			return // rejected is fine; panicking is not
		}
		enc := appendSnapshot(nil, sn)
		sn2, err := decodeSnapshot(enc)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		enc2 := appendSnapshot(nil, sn2)
		if !bytes.Equal(enc, enc2) {
			t.Fatal("canonical encoding is not a fixed point")
		}
	})
}

// FuzzJournalDecode: arbitrary journal files must never panic the loader.
func FuzzJournalDecode(f *testing.F) {
	recs := [][]byte{appendSnapshot(nil, sampleSnapshot(5))}
	f.Add(appendJournal(nil, header{NextID: 1, FlushedAt: time.Unix(0, 1)}, recs))
	f.Add([]byte(journalMagic))
	// Segment files land in the same state directory; feeding one to the
	// checkpoint decoder (and vice versa, see FuzzSegmentDecode) must fail
	// cleanly, never panic.
	seg := appendSegmentHeader(nil, 1, 2)
	seg = appendFramedRecord(seg, append([]byte{recFull}, appendSnapshot(nil, sampleSnapshot(5))...))
	f.Add(seg)
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _, _ = func() (header, []*Snapshot, int, error) {
			return decodeCheckpoint(data)
		}()
		if _, _, body, err := decodeSegmentHeader(data); err == nil {
			decodeSegmentRecords(body)
		}
	})
}
