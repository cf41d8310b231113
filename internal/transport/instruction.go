package transport

import (
	"compress/zlib"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// protocolVersion identifies this wire format. It travels in the high bits
// of every payload's flag byte, so a peer of another version fails with
// ErrVersion before anything is inflated. Version 4 numbers a fragment by
// the datagram that carries it and sends the state numbers as steps down
// from NewNum; nothing reads version 3.
const protocolVersion = 4

// Instruction is the transport layer's only message: a self-contained
// statement that "state NewNum is state OldNum plus this diff", along with
// acknowledgment (AckNum: the newest remote state we have received) and
// history trimming (ThrowawayNum: the receiver may discard every state
// numbered below it, because the sender will never again diff from them).
// Every sender mints ThrowawayNum ≤ OldNum ≤ NewNum, and the encoding
// cannot express anything else.
type Instruction struct {
	OldNum       uint64
	NewNum       uint64
	AckNum       uint64
	ThrowawayNum uint64
	Diff         []byte
}

var (
	// ErrBadInstruction marks a syntactically invalid instruction.
	ErrBadInstruction = errors.New("transport: malformed instruction")
	// ErrVersion marks an instruction from an incompatible peer.
	ErrVersion = errors.New("transport: unsupported protocol version")
)

// appendMarshal encodes the instruction onto buf: NewNum, NewNum−OldNum,
// OldNum−ThrowawayNum and AckNum, each a uvarint, then the raw diff to the
// end of the buffer.
func (inst *Instruction) appendMarshal(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, inst.NewNum)
	buf = binary.AppendUvarint(buf, inst.NewNum-inst.OldNum)
	buf = binary.AppendUvarint(buf, inst.OldNum-inst.ThrowawayNum)
	buf = binary.AppendUvarint(buf, inst.AckNum)
	return append(buf, inst.Diff...)
}

// unmarshalInstruction decodes a buffer produced by appendMarshal.
func unmarshalInstruction(b []byte) (*Instruction, error) {
	var v [4]uint64
	for i := range v {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, ErrBadInstruction
		}
		v[i], b = x, b[n:]
	}
	newNum, toOld, toThrowaway := v[0], v[1], v[2]
	if toOld > newNum || toThrowaway > newNum-toOld {
		return nil, ErrBadInstruction
	}
	oldNum := newNum - toOld
	return &Instruction{OldNum: oldNum, NewNum: newNum, AckNum: v[3], ThrowawayNum: oldNum - toThrowaway, Diff: b}, nil
}

// Compression. Like the reference implementation, instructions are
// zlib-compressed before fragmentation when that actually helps (screen
// repaints are full of runs and repeated escape sequences). A one-byte
// flag, the protocol version over a compressed bit, distinguishes the
// encodings.

const (
	encodingRaw  = protocolVersion << 1
	encodingZlib = encodingRaw | 1
	// compressThreshold skips compression for tiny instructions
	// (keystrokes, acks) where the zlib header would only add bytes.
	compressThreshold = 64
	// maxDecompressed bounds decompression output defensively.
	maxDecompressed = 16 << 20
)

// Deflate state belongs to the process, not to a session: a zlib.Writer is
// ≈ 1.2 MB, an endpoint needs one only while it encodes one instruction, and
// Reset makes a borrowed one indistinguishable from a fresh one — the bytes
// on the wire do not depend on who used it last. The frame-sized buffers an
// instruction is built or rebuilt in are lent the same way (scratch). The
// receive side needs no such state: inflate decodes on its own stack.

// deflater is a pooled zlib.Writer that deflates into out, which encode
// lends it for one instruction (the writer never points into a session).
type deflater struct {
	zw  *zlib.Writer
	out []byte
}

func (d *deflater) Write(p []byte) (int, error) {
	d.out = append(d.out, p...)
	return len(p), nil
}

var deflaters = sync.Pool{New: func() any {
	d := new(deflater)
	d.zw = zlib.NewWriter(d)
	return d
}}

// scratch is the frame-sized working memory of one instruction on its way
// to or from the wire. It belongs to a call, not to an endpoint: a fragmenter
// or an assembly borrows one from the process-wide pool when a call first
// needs it and gives it back before the call returns, so a session between
// sweeps holds none, and the scratch in use scales with frames in flight,
// not with sessions. The one exception is a frame prepared ahead of its
// deadline, whose payload waits in its scratch until it is sent or
// discarded. Like the deflate state, a borrowed scratch carries nothing from
// its last user into the bytes on the wire: every buffer is truncated before
// it is written.
type scratch struct {
	diff []byte // the local object's diff (sender)
	// raw is the marshalled instruction: what encode deflates, or what a
	// received payload inflates to.
	raw []byte
	// enc is the encoded payload, a flag and then raw or deflated bytes: what
	// the sender splits, or what the receiver joins from fragments.
	enc   []byte
	frags []fragment // the payload's fragments, their contents in enc
	out   []byte     // one marshalled fragment, on its way to the seal
}

var scratches = sync.Pool{New: func() any { return new(scratch) }}

// maxRetainedScratch is the most a scratch may hold and still go back to the
// pool; screen frames are far smaller, and one hostile instruction inflating
// to maxDecompressed is left to the collector instead of parked for the next
// borrower.
const maxRetainedScratch = 1 << 20

// lease is the scratch a fragmenter or an assembly has borrowed for the call
// in progress; lent is nil between calls.
type lease struct {
	lent *scratch
}

// borrow returns the leased scratch, taking one from the pool if none is.
func (l *lease) borrow() *scratch {
	if l.lent == nil {
		l.lent = scratches.Get().(*scratch)
	}
	return l.lent
}

// release gives the scratch back to the pool; what was built in it is dead
// after.
func (l *lease) release() {
	if sc := l.lent; sc != nil {
		if cap(sc.diff)+cap(sc.raw)+cap(sc.enc)+cap(sc.out) <= maxRetainedScratch {
			scratches.Put(sc)
		}
		l.lent = nil
	}
}

// Fragmentation. An instruction larger than the MTU is split into numbered
// fragments; the last fragment carries a final bit. A fragment names no
// instruction: the sender seals an instruction's fragments back to back, so
// the instruction's id is the sequence number of the datagram carrying its
// fragment 0, which the receiver derives as seq − num. The datagram layer
// accepts sequence numbers only in increasing order, and a restarted sender
// seals above its journaled reservation, so ids only grow. Fragments of a
// newer instruction abandon any partial older one — SSP never needs the old
// instruction because a newer diff supersedes it.

// maxFragments bounds a single instruction's fragment count; combined with
// the MTU this caps instruction size defensively.
const maxFragments = 1 << 14

// fragment is one wire piece of an instruction.
type fragment struct {
	id       uint64 // the instruction's, derived on receipt; the sender leaves it 0
	num      uint16
	final    bool
	contents []byte
}

// appendMarshal encodes the fragment onto dst: uvarint(num<<1 | final),
// then the contents.
func (f *fragment) appendMarshal(dst []byte) []byte {
	hdr := uint64(f.num) << 1
	if f.final {
		hdr |= 1
	}
	return append(binary.AppendUvarint(dst, hdr), f.contents...)
}

// parseFragment decodes the fragment the datagram with sequence number seq
// carried, deriving its instruction's id. The contents alias b.
func parseFragment(seq uint64, b []byte) (fragment, error) {
	hdr, n := binary.Uvarint(b)
	num := hdr >> 1
	if n <= 0 || num >= maxFragments || num > seq {
		return fragment{}, ErrBadInstruction
	}
	return fragment{id: seq - num, num: uint16(num), final: hdr&1 != 0, contents: b[n:]}, nil
}

// fragmenter numbers and splits instructions for transmission, in a scratch
// it holds only while a call uses it: fragments returned by makeFragments
// (and their contents) are valid until the next call or release, which is
// all the sender needs — each instruction's fragments are sealed and emitted
// before the next instruction exists.
type fragmenter struct {
	lease
	// prepared marks the leased scratch as holding an instruction encoded
	// ahead of its send (prepare), which keeps it past release; any later
	// encode overwrites it, so there is never a second payload buffer.
	prepared bool
}

// release gives the scratch back unless a prepared payload waits in it. What
// the fragmenter returned since it was borrowed is dead after.
func (fr *fragmenter) release() {
	if !fr.prepared {
		fr.lease.release()
	}
}

// encode marshals and, when profitable, compresses the instruction into the
// fragmenter's scratch. The returned slice aliases it.
func (fr *fragmenter) encode(inst *Instruction) []byte {
	fr.prepared = false
	sc := fr.borrow()
	sc.raw = inst.appendMarshal(sc.raw[:0])
	raw := sc.raw
	if len(raw) >= compressThreshold {
		d := deflaters.Get().(*deflater)
		d.out = append(sc.enc[:0], encodingZlib)
		d.zw.Reset(d)
		d.zw.Write(raw) // deflater.Write cannot fail
		d.zw.Close()
		sc.enc, d.out = d.out, nil
		deflaters.Put(d)
		if len(sc.enc) < len(raw)+1 {
			return sc.enc
		}
	}
	sc.enc = append(append(sc.enc[:0], encodingRaw), raw...)
	return sc.enc
}

// makeFragments splits the marshalled instruction into fragments whose
// contents are at most mtu bytes each. The result aliases the fragmenter's
// scratch and is invalidated by the next call.
func (fr *fragmenter) makeFragments(inst *Instruction, mtu int) []fragment {
	return fr.split(fr.encode(inst), mtu)
}

// prepare encodes inst now for a send that comes later: the payload waits in
// the scratch, marked, until preparedFragments claims it or unprepare drops
// it.
func (fr *fragmenter) prepare(inst *Instruction) {
	fr.encode(inst)
	fr.prepared = true
}

// preparedFragments is makeFragments for the instruction prepare encoded.
// The caller has checked that it is still there (prepared).
func (fr *fragmenter) preparedFragments(mtu int) []fragment {
	fr.prepared = false
	return fr.split(fr.lent.enc, mtu)
}

// split numbers an encoded payload's fragments.
func (fr *fragmenter) split(payload []byte, mtu int) []fragment {
	if mtu < 1 {
		mtu = 1
	}
	sc := fr.borrow()
	sc.frags = sc.frags[:0]
	for num := 0; ; num++ {
		n := len(payload)
		if n > mtu {
			n = mtu
		}
		sc.frags = append(sc.frags, fragment{
			num:      uint16(num),
			final:    n == len(payload),
			contents: payload[:n],
		})
		payload = payload[n:]
		if len(payload) == 0 {
			break
		}
	}
	return sc.frags
}

// marshal encodes one fragment into the scratch, valid until the next.
func (fr *fragmenter) marshal(f *fragment) []byte {
	sc := fr.borrow()
	sc.out = f.appendMarshal(sc.out[:0])
	return sc.out
}

// assembly reassembles fragments into instructions. It holds at most one
// instruction in progress; fragments from a newer id reset it. An
// instruction that has to be joined from several fragments or inflated is
// rebuilt in a scratch borrowed when it completes, so its Diff is valid only
// until release or the next add — processInstruction applies it first, and
// Apply copies what it keeps. The common lone, uncompressed fragment is
// decoded where it lies and borrows nothing.
type assembly struct {
	id     uint64
	active bool
	parts  [][]byte // by fragment number; nil = not yet seen
	held   int      // non-nil entries of parts
	total  int      // fragment count once the final fragment is seen, else -1

	lease // where the last completed instruction was rebuilt, until release
}

// add consumes one fragment; when it completes an instruction, the decoded
// instruction is returned.
func (a *assembly) add(f *fragment) (*Instruction, error) {
	if !a.active || f.id != a.id {
		if a.active && f.id < a.id {
			return nil, nil // stale fragment of an abandoned instruction
		}
		if f.num == 0 && f.final {
			// Almost every instruction is a lone fragment: decode it where it
			// lies. It still abandons an older partial instruction.
			if a.active {
				clear(a.parts)
			}
			a.id, a.active = f.id, false
			return a.decode(f.contents)
		}
		a.id = f.id
		a.active = true
		clear(a.parts)
		a.parts = a.parts[:0]
		a.held = 0
		a.total = -1
	}
	for int(f.num) >= len(a.parts) {
		a.parts = append(a.parts, nil)
	}
	if a.parts[f.num] == nil {
		a.held++
	}
	a.parts[f.num] = f.contents
	if f.final {
		a.total = int(f.num) + 1
	}
	if a.total < 0 || a.held < a.total {
		return nil, nil
	}
	sc := a.borrow()
	sc.enc = sc.enc[:0]
	for _, part := range a.parts[:a.total] {
		if part == nil {
			return nil, nil
		}
		sc.enc = append(sc.enc, part...)
	}
	a.active = false
	clear(a.parts)
	return a.decode(sc.enc)
}

// decode reverses fragmenter.encode.
func (a *assembly) decode(buf []byte) (*Instruction, error) {
	if len(buf) < 1 {
		return nil, ErrBadInstruction
	}
	if v := buf[0] >> 1; v != protocolVersion {
		return nil, fmt.Errorf("%w: %d", ErrVersion, v)
	}
	if buf[0] == encodingRaw {
		return unmarshalInstruction(buf[1:])
	}
	sc := a.borrow()
	var err error
	if sc.raw, err = inflate(sc.raw, buf[1:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInstruction, err)
	}
	return unmarshalInstruction(sc.raw)
}
