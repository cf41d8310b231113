package journal

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"maps"
	"slices"
	"strconv"
	"strings"

	"repro/internal/binio"
)

// This file is the log-segment codec of the incremental journal. The
// durable layout is a full checkpoint (sessions.journal — the version-2
// file codec.go encodes) plus an ordered tail of append-only segment
// files, one per flush batch:
//
//	sessions.journal.seg.<epoch>.<seq>
//
// Each segment carries a CRC-protected header naming the checkpoint epoch
// it extends, followed by CRC-framed records: counter/watermark deltas and
// screen row deltas for the sessions whose durable core actually changed
// since the previous flush, tombstones for closed sessions, and the
// session-ID issuance floor when it moved. Boot replays checkpoint +
// matching-epoch segments in sequence order; compaction folds the tail
// into a fresh checkpoint at epoch+1 and deletes the old segments — a
// crash between those two steps leaves stale-epoch segments that the next
// boot ignores and removes.
//
// Every record body is one of:
//
//	recMeta  — uvarint NextID (session-ID issuance floor)
//	recClose — uvarint ID (tombstone: the session closed)
//	recFull  — a complete appendSnapshot record (new session, or a
//	           session whose screen changed too much for a delta to pay)
//	recDelta — counters, watermarks, pending output and only the screen
//	           rows whose generation moved since the last durable record
//
// The framing (uvarint length + body + CRC32-Castagnoli) matches the
// checkpoint's record framing, so the fuzz corpus and torn-tail recovery
// logic cover both.

// Segment record types (first body byte).
const (
	recMeta  = 1
	recClose = 2
	recFull  = 3
	recDelta = 4
)

const (
	segMagic   = "MOSHSEG1"
	segVersion = 1
)

// segSuffix builds segment file names under fileName; see
// segmentFileName.
const segSuffix = ".seg."

// segmentFileName names the segment file for one flush batch.
func segmentFileName(epoch, seq uint64) string {
	return fileName + segSuffix +
		strconv.FormatUint(epoch, 10) + "." + strconv.FormatUint(seq, 10)
}

// parseSegmentName recovers (epoch, seq) from a directory entry, rejecting
// everything that is not a well-formed segment file name.
func parseSegmentName(name string) (epoch, seq uint64, ok bool) {
	rest, ok := strings.CutPrefix(name, fileName+segSuffix)
	if !ok {
		return 0, 0, false
	}
	e, q, _ := strings.Cut(rest, ".")
	epoch, errE := strconv.ParseUint(e, 10, 64)
	seq, errQ := strconv.ParseUint(q, 10, 64)
	return epoch, seq, errE == nil && errQ == nil
}

// appendSegmentHeader encodes the segment file prefix: magic, version,
// epoch, sequence, and a CRC over all of it. A header that fails any check
// invalidates the whole file (it cannot be placed in the log order).
func appendSegmentHeader(buf []byte, epoch, seq uint64) []byte {
	start := len(buf)
	buf = append(buf, segMagic...)
	buf = binary.AppendUvarint(buf, segVersion)
	buf = binary.AppendUvarint(buf, epoch)
	buf = binary.AppendUvarint(buf, seq)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start:], crcTable))
}

// decodeSegmentHeader validates a segment file prefix and returns the
// record region that follows it.
func decodeSegmentHeader(data []byte) (epoch, seq uint64, records []byte, err error) {
	r := binio.NewReader(data)
	magic, ok := r.Bytes(len(segMagic))
	if !ok || string(magic) != segMagic {
		return 0, 0, nil, fmt.Errorf("%w: bad segment magic", ErrBad)
	}
	ver, ok := r.Uvarint()
	if !ok || ver != segVersion {
		return 0, 0, nil, fmt.Errorf("%w: segment version", ErrBad)
	}
	if epoch, ok = r.Uvarint(); !ok {
		return 0, 0, nil, ErrBad
	}
	if seq, ok = r.Uvarint(); !ok {
		return 0, 0, nil, ErrBad
	}
	hdrLen := len(data) - r.Len()
	sum, ok := r.Bytes(4)
	if !ok || binary.LittleEndian.Uint32(sum) != crc32.Checksum(data[:hdrLen], crcTable) {
		return 0, 0, nil, fmt.Errorf("%w: segment header checksum", ErrBad)
	}
	return epoch, seq, r.Rest(), nil
}

// decodeSegmentRecords splits a segment's record region into CRC-verified
// record bodies. It stops at the first failure: a torn append leaves a
// valid prefix and unlocatable bytes after it, and within one file
// everything after damage is untrustworthy. bad counts the abandonment
// (0 or 1). torn classifies the damage: true when the input simply ran
// out mid-frame (the shape a crashed append leaves — the prefix is a
// consistent smaller batch), false when a complete frame failed its
// checksum or carried a nonsense length (corruption of once-durable
// bytes, which the caller escalates to poisoning).
func decodeSegmentRecords(data []byte) (recs [][]byte, bad int, torn bool) {
	r := binio.NewReader(data)
	for r.Len() > 0 {
		rlen, lenOK := r.Uvarint()
		if !lenOK {
			return recs, 1, true // truncated length varint
		}
		if rlen > maxSnapshotLen || rlen == 0 {
			return recs, 1, false // nonsense length: corruption
		}
		body, bodyOK := r.Bytes(int(rlen))
		sum, sumOK := r.Bytes(4)
		if !bodyOK || !sumOK {
			return recs, 1, true // frame runs past the end: torn append
		}
		if binary.LittleEndian.Uint32(sum) != crc32.Checksum(body, crcTable) {
			return recs, 1, false // complete frame, bad sum: corruption
		}
		recs = append(recs, body)
	}
	return recs, 0, false
}

// appendDeltaBody encodes a recDelta record body for sn, carrying the
// changed grid rows named by rowIdx (ascending). The caller guarantees the
// last durable record for this session has the same dimensions. With a
// warmed buffer the encode performs no allocations.
func appendDeltaBody(buf []byte, sn *Snapshot, rowIdx []int) []byte {
	buf = append(buf, recDelta)
	buf = binary.AppendUvarint(buf, sn.ID)
	buf = appendMutable(buf, sn)
	buf = sn.FB.AppendMetaSnapshot(buf)
	buf = binary.AppendUvarint(buf, uint64(len(rowIdx)))
	for _, i := range rowIdx {
		buf = binary.AppendUvarint(buf, uint64(i))
		buf = sn.FB.AppendRowSnapshot(buf, i)
	}
	return buf
}

// replay accumulates the boot-time replay of checkpoint + segments.
//
// Poisoning is how replay stays consistent across a damaged middle: when a
// segment loses records to corruption (see applySegment), every session
// restored so far moves to the poisoned set — later deltas
// for it may build on updates the gap swallowed, so they are ignored until
// a full record (or tombstone) re-establishes the session. Dropping a
// session is always nonce-safe: an unrestored session reseals nothing.
type replay struct {
	snaps    map[uint64]*Snapshot
	poisoned map[uint64]struct{}
	// nextID is the highest session-ID issuance floor seen (checkpoint
	// header and recMeta records).
	nextID uint64
}

func newReplay(hdr header, snaps []*Snapshot) *replay {
	jr := &replay{
		snaps:    make(map[uint64]*Snapshot, len(snaps)),
		poisoned: make(map[uint64]struct{}),
		nextID:   hdr.NextID,
	}
	for _, sn := range snaps {
		jr.snaps[sn.ID] = sn
	}
	return jr
}

// poisonAll marks every session restored so far as unextendable by deltas.
func (jr *replay) poisonAll() {
	for id := range jr.snaps {
		jr.poisoned[id] = struct{}{}
	}
	clear(jr.snaps)
}

// applySegment folds one segment file of the checkpoint's epoch into the
// replay state and returns how many records it had to give up on.
//
// Damage policy: truncation is benign, corruption is not. A torn tail
// (framing that runs out mid-record — the shape a crashed or short-write
// append leaves, since each segment gets exactly one Write call) keeps
// every CRC-complete record before it; that is consistent because a failed
// append requeues its whole batch, so every session the tear touched
// reappears as a full record in a later segment. The same goes for a file
// whose header never finished (short or inconsistent): the write that
// created it reported failure, so the file is skipped whole. Real
// corruption — a record that fails its CRC or decodes malformed with INTACT
// framing, which one truncated Write can never produce — poisons every
// session restored so far: later deltas might build on updates the gap
// swallowed, so they are ignored until a full record re-establishes their
// session. Dropping a session is always nonce-safe. (A file that cannot be
// READ is neither: Open refuses to boot on it.)
func (jr *replay) applySegment(data []byte, epoch uint64) (bad int) {
	ep, _, body, err := decodeSegmentHeader(data)
	if err != nil || ep != epoch {
		return 1
	}
	recs, bad, torn := decodeSegmentRecords(body)
	poison := bad > 0 && !torn
	for _, rec := range recs {
		if !jr.applyRecord(rec) {
			// The CRC passed but the body is malformed: corruption, not a
			// tear. Nothing after it in this file can be trusted either.
			bad++
			poison = true
			break
		}
	}
	if poison {
		jr.poisonAll()
	}
	return bad
}

// applyRecord folds one verified segment record into the replay state.
// false means the record body itself is malformed (the caller treats it
// like a CRC failure: abandon the rest of the segment).
func (jr *replay) applyRecord(body []byte) bool {
	switch body[0] {
	case recMeta, recClose:
		r := binio.NewReader(body[1:])
		id, ok := r.Uvarint()
		if !ok || r.Len() != 0 {
			return false
		}
		if body[0] == recMeta {
			jr.nextID = max(jr.nextID, id)
		} else {
			delete(jr.snaps, id)
			delete(jr.poisoned, id)
		}
		return true
	case recFull:
		sn, err := decodeSnapshot(body[1:])
		if err != nil {
			return false
		}
		jr.snaps[sn.ID] = sn
		delete(jr.poisoned, sn.ID)
		return true
	case recDelta:
		return jr.applyDelta(body[1:])
	default:
		return false
	}
}

// applyDelta folds one recDelta body onto its base snapshot. Deltas for
// poisoned or unknown sessions are parsed for well-formedness cheaply and
// ignored (the session stays dropped until a recFull revives it).
func (jr *replay) applyDelta(body []byte) bool {
	r := binio.NewReader(body)
	id, ok := r.Uvarint()
	if !ok {
		return false
	}
	sn := jr.snaps[id]
	if sn == nil {
		// Unknown base. After poisoning this is the expected shape (the
		// full record that introduced the session was lost with the gap);
		// otherwise the log itself is inconsistent. Either way the delta
		// cannot apply and the session stays dropped — always nonce-safe.
		_, poisoned := jr.poisoned[id]
		return poisoned
	}
	// Parse into a copy and commit it whole: a delta that fails half way
	// must leave its base's scalars as the last good record had them.
	next := *sn
	next.PendingOut = nil
	if !decodeMutable(&r, &next) {
		return false
	}
	rest, err := sn.FB.ApplyMetaSnapshot(r.Rest())
	if err != nil {
		return false
	}
	rr := binio.NewReader(rest)
	rowCount, ok := rr.BoundedUvarint(uint64(sn.FB.H))
	if !ok {
		return false
	}
	rest = rr.Rest()
	for i := uint64(0); i < rowCount; i++ {
		ri := binio.NewReader(rest)
		idx, ok := ri.BoundedUvarint(uint64(sn.FB.H) - 1)
		if !ok {
			return false
		}
		rest = ri.Rest()
		if rest, err = sn.FB.ApplyRowSnapshot(rest, int(idx)); err != nil {
			return false
		}
	}
	if len(rest) != 0 {
		return false
	}
	*sn = next
	return true
}

// sessionsSorted returns the surviving snapshots in ascending ID order
// (deterministic restore order, like the monolithic journal's record
// order).
func (jr *replay) sessionsSorted() []*Snapshot {
	return slices.SortedFunc(maps.Values(jr.snaps), func(a, b *Snapshot) int { return cmp.Compare(a.ID, b.ID) })
}
