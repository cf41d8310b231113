package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"repro/internal/binio"
	"repro/internal/netem"
	"repro/internal/sspcrypto"
	"repro/internal/terminal"
)

// This file defines the versioned binary codec for session snapshots and
// the checkpoint file that aggregates them — the durable core that lets a
// restarted daemon resume every session instead of stranding its clients.
//
// A snapshot holds exactly what SSP needs to treat the restart as packet
// loss: the session key and ID, the per-direction counter reservations
// (outgoing sequence/nonce ceiling, state-number ceiling, incoming replay
// floor), the newest client state number and delivered-event count, a
// remote-address hint, the session's original terminal dimensions (the
// fresh-baseline diff target), and the serialized screen.
//
// Decode is hardened: every length is validated against the remaining
// input and hard bounds, every record carries a CRC, and any inconsistency
// returns an error — corrupted, truncated, or version-skewed journals can
// never panic the daemon.

// Checkpoint file layout: header (magic, version, daemon fields), then
// sessionCount length-prefixed snapshot records, each followed by a CRC32
// (Castagnoli) of its bytes.
const (
	journalMagic = "MOSHJRNL"
	// journalVersion 2 added the checkpoint epoch (the log-structured
	// journal: checkpoint + segment tail). Version-1 files fail decode and
	// boot empty — always nonce-safe.
	journalVersion = 2

	// snapshotVersion tags each session record independently of the file
	// header, so individual records can evolve.
	snapshotVersion = 1

	// maxSnapshotLen bounds one session record; a corrupted length can
	// never force a huge allocation.
	maxSnapshotLen = 16 << 20
)

// ErrBad reports a corrupted, truncated, or version-skewed journal file or
// session snapshot.
var ErrBad = errors.New("journal: malformed session journal")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// TimedOutput is one host-application write waiting for its due time.
type TimedOutput struct {
	At   time.Time
	Data []byte
}

// Snapshot is the durable core of one session.
type Snapshot struct {
	ID  uint64
	Key sspcrypto.Key

	// OrigW, OrigH are the session's dimensions at creation: the blank
	// baseline (state 0) the resume repaint diffs from, which must match
	// the client's pristine initial state exactly.
	OrigW, OrigH int

	// NextSeq is the outgoing nonce reservation ceiling: strictly above
	// every sequence number the recording incarnation could seal.
	NextSeq uint64
	// ExpectedSeq is the incoming replay floor at flush time.
	ExpectedSeq uint64
	// NextStateNum is the state-number reservation ceiling (same two-phase
	// rule as NextSeq).
	NextStateNum uint64
	// RecvNum is the newest client state number received.
	RecvNum uint64
	// StreamSize is the user-input stream's global event count: everything
	// at or below it was delivered to the application.
	StreamSize uint64

	// Remote address hint for immediate post-restore sending.
	HaveRemote bool
	Remote     netem.Addr
	// Heard marks that authentic client traffic had arrived.
	Heard bool
	// LastActive is the session's idle-eviction clock, for boot-time
	// eviction of stale snapshots.
	LastActive time.Time

	// PendingOut carries host output that was queued (application think
	// time) but not yet interpreted at flush time, so a restart drops no
	// bytes between the application and the terminal.
	PendingOut []TimedOutput

	// FB is the serialized screen.
	FB *terminal.Framebuffer
}

// Bounds for PendingOut decode.
const (
	maxPendingOut      = 1 << 12
	maxPendingOutBytes = 1 << 20
)

// appendMutable encodes what a session changes as it runs, apart from its
// screen: counters, watermarks, the address hint, the idle clock and the
// pending host output (tiny, and churning as a unit). A full record and a
// delta record carry it in the same bytes.
func appendMutable(buf []byte, sn *Snapshot) []byte {
	buf = binary.AppendUvarint(buf, sn.NextSeq)
	buf = binary.AppendUvarint(buf, sn.ExpectedSeq)
	buf = binary.AppendUvarint(buf, sn.NextStateNum)
	buf = binary.AppendUvarint(buf, sn.RecvNum)
	buf = binary.AppendUvarint(buf, sn.StreamSize)
	var fl byte
	if sn.HaveRemote {
		fl |= 1
	}
	if sn.Heard {
		fl |= 2
	}
	buf = append(buf, fl)
	buf = binary.AppendUvarint(buf, uint64(sn.Remote.Host))
	buf = binary.AppendUvarint(buf, uint64(sn.Remote.Port))
	buf = binary.AppendVarint(buf, sn.LastActive.UnixNano())
	buf = binary.AppendUvarint(buf, uint64(len(sn.PendingOut)))
	for _, po := range sn.PendingOut {
		buf = binary.AppendVarint(buf, po.At.UnixNano())
		buf = binary.AppendUvarint(buf, uint64(len(po.Data)))
		buf = append(buf, po.Data...)
	}
	return buf
}

// decodeMutable reverses appendMutable into sn, appending the pending
// output to sn.PendingOut. It never panics on malformed input.
func decodeMutable(r *binio.Reader, sn *Snapshot) bool {
	var ok bool
	for _, dst := range []*uint64{&sn.NextSeq, &sn.ExpectedSeq, &sn.NextStateNum, &sn.RecvNum, &sn.StreamSize} {
		if *dst, ok = r.Uvarint(); !ok {
			return false
		}
	}
	fl, ok := r.Byte()
	if !ok {
		return false
	}
	sn.HaveRemote = fl&1 != 0
	sn.Heard = fl&2 != 0
	host, ok := r.BoundedUvarint(uint64(^uint32(0)))
	if !ok {
		return false
	}
	port, ok := r.BoundedUvarint(uint64(^uint16(0)))
	if !ok {
		return false
	}
	sn.Remote = netem.Addr{Host: uint32(host), Port: uint16(port)}
	nanos, ok := r.Varint()
	if !ok {
		return false
	}
	sn.LastActive = time.Unix(0, nanos)
	poCount, ok := r.BoundedUvarint(maxPendingOut)
	if !ok {
		return false
	}
	for i := uint64(0); i < poCount; i++ {
		at, ok := r.Varint()
		if !ok {
			return false
		}
		dlen, ok := r.BoundedUvarint(maxPendingOutBytes)
		if !ok {
			return false
		}
		data, ok := r.Bytes(int(dlen))
		if !ok {
			return false
		}
		sn.PendingOut = append(sn.PendingOut, TimedOutput{
			At:   time.Unix(0, at),
			Data: append([]byte(nil), data...),
		})
	}
	return true
}

// appendSnapshot encodes one snapshot record (without the length prefix or
// CRC the journal wraps around it). With a warmed buffer the steady-state
// encode performs no heap allocations.
func appendSnapshot(buf []byte, sn *Snapshot) []byte {
	buf = append(buf, snapshotVersion)
	buf = binary.AppendUvarint(buf, sn.ID)
	buf = append(buf, sn.Key[:]...)
	buf = binary.AppendUvarint(buf, uint64(sn.OrigW))
	buf = binary.AppendUvarint(buf, uint64(sn.OrigH))
	buf = appendMutable(buf, sn)
	return sn.FB.AppendSnapshot(buf)
}

// decodeSnapshot reverses appendSnapshot. It never panics on malformed
// input and requires the record to be fully consumed.
func decodeSnapshot(data []byte) (*Snapshot, error) {
	r := binio.NewReader(data)
	ver, ok := r.Byte()
	if !ok {
		return nil, ErrBad
	}
	if ver != snapshotVersion {
		return nil, fmt.Errorf("%w: snapshot version %d", ErrBad, ver)
	}
	sn := &Snapshot{}
	if sn.ID, ok = r.Uvarint(); !ok {
		return nil, ErrBad
	}
	rawKey, ok := r.Bytes(sspcrypto.KeySize)
	if !ok {
		return nil, ErrBad
	}
	key, err := sspcrypto.KeyFromBytes(rawKey)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBad, err)
	}
	sn.Key = key
	w, ok := r.BoundedUvarint(1 << 12)
	if !ok || w < 1 {
		return nil, ErrBad
	}
	h, ok := r.BoundedUvarint(1 << 12)
	if !ok || h < 1 {
		return nil, ErrBad
	}
	sn.OrigW, sn.OrigH = int(w), int(h)
	if !decodeMutable(&r, sn) {
		return nil, ErrBad
	}
	fb, rest, err := terminal.DecodeSnapshot(r.Rest())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBad, err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBad, len(rest))
	}
	sn.FB = fb
	return sn, nil
}

// header is the daemon-level state a checkpoint carries besides the
// per-session records.
type header struct {
	// NextID resumes session-ID issuance so sessions opened after a restart
	// never collide with restored ones.
	NextID uint64
	// Epoch names the checkpoint generation. Log segments carry the epoch
	// of the checkpoint they extend; boot replays only segments whose
	// epoch matches the checkpoint on disk, so a crash between writing a
	// compacted checkpoint and deleting the old segments can never replay
	// a stale tail.
	Epoch uint64
	// FlushedAt stamps the snapshot (diagnostics; eviction uses each
	// session's own LastActive).
	FlushedAt time.Time
}

// appendFramedRecord wraps one record body in the journal's record
// framing, the checkpoint's and the segments' alike: uvarint length, body,
// CRC32 of the body.
func appendFramedRecord(buf, body []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	buf = append(buf, body...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(body, crcTable))
}

// appendCheckpointHeader encodes a checkpoint file's CRC-protected header;
// count framed records follow it.
func appendCheckpointHeader(buf []byte, hdr header, count int) []byte {
	start := len(buf)
	buf = append(buf, journalMagic...)
	buf = binary.AppendUvarint(buf, journalVersion)
	buf = binary.AppendUvarint(buf, hdr.NextID)
	buf = binary.AppendUvarint(buf, hdr.Epoch)
	buf = binary.AppendVarint(buf, hdr.FlushedAt.UnixNano())
	buf = binary.AppendUvarint(buf, uint64(count))
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start:], crcTable))
}

// decodeCheckpoint parses a checkpoint file. Records that fail their CRC or
// their own decode are skipped, and a truncated or garbled record section
// abandons only the remainder — both reported via badRecords — so one
// corrupted session (or a torn tail) cannot strand every other. Only
// header corruption fails the whole load: the header's CRC covers the
// session count and the NextID issuance floor, which must be trusted
// before any session is revived.
func decodeCheckpoint(data []byte) (hdr header, snaps []*Snapshot, badRecords int, err error) {
	r := binio.NewReader(data)
	magic, ok := r.Bytes(len(journalMagic))
	if !ok || string(magic) != journalMagic {
		return hdr, nil, 0, fmt.Errorf("%w: bad magic", ErrBad)
	}
	ver, ok := r.Uvarint()
	if !ok {
		return hdr, nil, 0, ErrBad
	}
	if ver != journalVersion {
		return hdr, nil, 0, fmt.Errorf("%w: journal version %d", ErrBad, ver)
	}
	if hdr.NextID, ok = r.Uvarint(); !ok {
		return hdr, nil, 0, ErrBad
	}
	if hdr.Epoch, ok = r.Uvarint(); !ok {
		return hdr, nil, 0, ErrBad
	}
	nanos, ok := r.Varint()
	if !ok {
		return hdr, nil, 0, ErrBad
	}
	hdr.FlushedAt = time.Unix(0, nanos)
	count, ok := r.BoundedUvarint(1 << 20)
	if !ok {
		return hdr, nil, 0, ErrBad
	}
	hdrLen := len(data) - r.Len()
	sum, ok := r.Bytes(4)
	if !ok || binary.LittleEndian.Uint32(sum) != crc32.Checksum(data[:hdrLen], crcTable) {
		return hdr, nil, 0, fmt.Errorf("%w: header checksum", ErrBad)
	}
	for i := uint64(0); i < count; i++ {
		rlen, lenOK := r.Uvarint()
		rec, recOK := r.Bytes(int(rlen))
		sum, sumOK := r.Bytes(4)
		if !lenOK || rlen > maxSnapshotLen || !recOK || !sumOK {
			// Torn tail: the record framing itself is gone, so nothing
			// after this point can be located. Count the remainder as bad
			// and keep what already verified.
			badRecords += int(count - i)
			return hdr, snaps, badRecords, nil
		}
		if binary.LittleEndian.Uint32(sum) != crc32.Checksum(rec, crcTable) {
			badRecords++
			continue
		}
		sn, err := decodeSnapshot(rec)
		if err != nil {
			badRecords++
			continue
		}
		snaps = append(snaps, sn)
	}
	if r.Len() != 0 {
		badRecords++ // trailing garbage past the CRC-verified count
	}
	return hdr, snaps, badRecords, nil
}
