package transport

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// marshal encodes the instruction into a fresh buffer.
func (inst *Instruction) marshal() []byte { return inst.appendMarshal(nil) }

func TestInstructionRoundTrip(t *testing.T) {
	in := &Instruction{
		OldNum:       3,
		NewNum:       9,
		AckNum:       17,
		ThrowawayNum: 2,
		Diff:         []byte("diff-bytes"),
	}
	out, err := unmarshalInstruction(in.marshal())
	if err != nil {
		t.Fatal(err)
	}
	if out.OldNum != 3 || out.NewNum != 9 || out.AckNum != 17 || out.ThrowawayNum != 2 ||
		!bytes.Equal(out.Diff, in.Diff) {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

// TestInstructionRoundTripProperty: every instruction a sender can mint
// (ThrowawayNum ≤ OldNum ≤ NewNum) survives the round trip, and no buffer
// decodes to one that breaks that order.
func TestInstructionRoundTripProperty(t *testing.T) {
	f := func(x, y, z, ack uint64, equal uint8, diff []byte) bool {
		nums := []uint64{x, y, z}
		switch equal % 4 { // the orders a sender mints most: resends and acks
		case 1:
			nums[1] = nums[0]
		case 2:
			nums[1], nums[2] = nums[0], nums[0]
		}
		slices.Sort(nums)
		in := &Instruction{ThrowawayNum: nums[0], OldNum: nums[1], NewNum: nums[2], AckNum: ack, Diff: diff}
		out, err := unmarshalInstruction(in.marshal())
		if err != nil {
			return false
		}
		return out.OldNum == in.OldNum && out.NewNum == in.NewNum && out.AckNum == ack &&
			out.ThrowawayNum == in.ThrowawayNum && bytes.Equal(out.Diff, diff)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	ordered := func(b []byte) bool {
		inst, err := unmarshalInstruction(b)
		return err != nil || (inst.ThrowawayNum <= inst.OldNum && inst.OldNum <= inst.NewNum)
	}
	if err := quick.Check(ordered, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// NewNum 5, then a step of 6 down to OldNum: below zero.
	if _, err := unmarshalInstruction([]byte{5, 6, 0, 0}); !errors.Is(err, ErrBadInstruction) {
		t.Fatalf("OldNum below zero: err = %v, want ErrBadInstruction", err)
	}
	// NewNum 5, OldNum 3, then a step of 4 down to ThrowawayNum.
	if _, err := unmarshalInstruction([]byte{5, 2, 4, 0}); !errors.Is(err, ErrBadInstruction) {
		t.Fatalf("ThrowawayNum below zero: err = %v, want ErrBadInstruction", err)
	}
}

// TestInstructionBadVersion: the version rides in the flag byte, so a
// version-3 payload (flag 0 raw, 1 zlib) is refused before it is inflated
// or parsed, whatever follows.
func TestInstructionBadVersion(t *testing.T) {
	body := (&Instruction{OldNum: 1, NewNum: 2}).marshal()
	for _, flag := range []byte{0, 1, 3<<1 | 1, 5 << 1, 0xff} {
		if _, err := decodeInstruction(append([]byte{flag}, body...)); !errors.Is(err, ErrVersion) {
			t.Fatalf("flag byte %#x: err = %v, want ErrVersion", flag, err)
		}
	}
	if _, err := decodeInstruction(append([]byte{encodingRaw}, body...)); err != nil {
		t.Fatalf("this version's flag byte: %v", err)
	}
}

func TestInstructionTruncated(t *testing.T) {
	if _, err := unmarshalInstruction([]byte{9, 1, 0}); err == nil {
		t.Fatal("accepted truncated instruction")
	}
	if _, err := unmarshalInstruction([]byte{9, 1, 0, 0x80}); err == nil {
		t.Fatal("accepted instruction ending inside a uvarint")
	}
	if _, err := unmarshalInstruction(nil); err == nil {
		t.Fatal("accepted empty instruction")
	}
}

// instOfSize builds an instruction with n bytes of incompressible diff
// (compression would otherwise collapse it under the fragmentation MTU).
func instOfSize(n int) *Instruction {
	diff := make([]byte, n)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range diff {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		diff[i] = byte(x)
	}
	return &Instruction{OldNum: 1, NewNum: 2, AckNum: 3, ThrowawayNum: 0, Diff: diff}
}

func TestFragmentationSingle(t *testing.T) {
	var fr fragmenter
	frags := fr.makeFragments(instOfSize(100), 1200)
	if len(frags) != 1 || !frags[0].final {
		t.Fatalf("got %d fragments", len(frags))
	}
}

func TestFragmentationSplitAndReassemble(t *testing.T) {
	var fr fragmenter
	in := instOfSize(5000)
	frags := fr.makeFragments(in, 1200)
	if len(frags) < 5 {
		t.Fatalf("got %d fragments for 5000-byte diff at mtu 1200", len(frags))
	}
	var a assembly
	var w seqWire
	for i, back := range w.carry(t, frags) {
		inst, err := a.add(back)
		if err != nil {
			t.Fatal(err)
		}
		if i < len(frags)-1 && inst != nil {
			t.Fatal("assembled before final fragment")
		}
		if i == len(frags)-1 {
			if inst == nil {
				t.Fatal("did not assemble after final fragment")
			}
			if !bytes.Equal(inst.Diff, in.Diff) {
				t.Fatal("reassembled diff mismatch")
			}
		}
	}
}

func TestFragmentReassemblyOutOfOrder(t *testing.T) {
	var fr fragmenter
	in := instOfSize(3000)
	frags := fr.makeFragments(in, 1000)
	var a assembly
	order := []int{2, 0, 3, 1}
	if len(frags) != 4 {
		t.Fatalf("expected 4 fragments, got %d", len(frags))
	}
	var got *Instruction
	for _, idx := range order {
		inst, err := a.add(&frags[idx])
		if err != nil {
			t.Fatal(err)
		}
		if inst != nil {
			got = inst
		}
	}
	if got == nil || !bytes.Equal(got.Diff, in.Diff) {
		t.Fatal("out-of-order reassembly failed")
	}
}

// seqWire stands in for the datagram layer under fragment-level tests: it
// carries fragments as the sender seals them, back to back under
// consecutive sequence numbers, and parses each as the receiver does, into
// buffers of its own, so a test can hold them across a later makeFragments
// call (which reuses the scratch).
type seqWire struct{ seq uint64 }

func (w *seqWire) carry(t testing.TB, frags []fragment) []*fragment {
	t.Helper()
	out := make([]*fragment, len(frags))
	for i := range frags {
		f, err := parseFragment(w.seq, frags[i].appendMarshal(nil))
		if err != nil {
			t.Fatal(err)
		}
		w.seq++
		out[i] = &f
	}
	return out
}

func TestNewerInstructionAbandonsOlder(t *testing.T) {
	var fr fragmenter
	var w seqWire
	old := w.carry(t, fr.makeFragments(instOfSize(3000), 1000))
	fresh := w.carry(t, fr.makeFragments(instOfSize(50), 1000))
	var a assembly
	if inst, _ := a.add(old[0]); inst != nil {
		t.Fatal("premature assembly")
	}
	inst, err := a.add(fresh[0])
	if err != nil || inst == nil {
		t.Fatalf("fresh single-fragment instruction should assemble: %v", err)
	}
	// A late fragment of the abandoned instruction must not resurrect it.
	if inst, _ := a.add(old[1]); inst != nil {
		t.Fatal("stale fragment assembled")
	}
}

func TestFragmentLossLeavesInstructionIncomplete(t *testing.T) {
	var fr fragmenter
	frags := fr.makeFragments(instOfSize(3000), 1000)
	var a assembly
	for i := range frags {
		if i == 1 {
			continue // lost
		}
		if inst, _ := a.add(&frags[i]); inst != nil {
			t.Fatal("assembled despite missing fragment")
		}
	}
}

func TestFragmentMarshalRoundTrip(t *testing.T) {
	f := &fragment{num: 3, final: true, contents: []byte("abc")}
	wire := f.appendMarshal(nil)
	if len(wire) != 1+3 {
		t.Fatalf("fragment 3 of an instruction is %d bytes on the wire, want a 1-byte header", len(wire))
	}
	back, err := parseFragment(80, wire)
	if err != nil {
		t.Fatal(err)
	}
	if back.id != 77 || back.num != 3 || !back.final || string(back.contents) != "abc" {
		t.Fatalf("round trip: %+v", back)
	}
}

// TestFragmentTooShort: a fragment needs at least its header, a whole
// uvarint.
func TestFragmentTooShort(t *testing.T) {
	for _, b := range [][]byte{nil, {}, {0x80}, {0xff, 0xff}} {
		if _, err := parseFragment(100, b); !errors.Is(err, ErrBadInstruction) {
			t.Fatalf("fragment % x: err = %v, want ErrBadInstruction", b, err)
		}
	}
}

func TestInstructionCompression(t *testing.T) {
	// A repetitive screen repaint must compress.
	in := &Instruction{OldNum: 1, NewNum: 2,
		Diff: []byte(strings.Repeat("\x1b[K all work and no play ", 100))}
	enc := encodeInstruction(in)
	if enc[0] != encodingZlib {
		t.Fatalf("large repetitive instruction not compressed")
	}
	if len(enc) >= len(in.marshal()) {
		t.Fatalf("compression grew the payload: %d vs %d", len(enc), len(in.marshal()))
	}
	out, err := decodeInstruction(enc)
	if err != nil || !bytes.Equal(out.Diff, in.Diff) {
		t.Fatalf("compressed round trip failed: %v", err)
	}
	// A keystroke-sized instruction stays raw.
	small := &Instruction{Diff: []byte("x")}
	if enc := encodeInstruction(small); enc[0] != encodingRaw {
		t.Fatal("tiny instruction pointlessly compressed")
	}
}

func TestDecodeInstructionRejectsGarbage(t *testing.T) {
	if _, err := decodeInstruction(nil); err == nil {
		t.Fatal("accepted empty buffer")
	}
	if _, err := decodeInstruction([]byte{encodingZlib, 0xde, 0xad}); err == nil {
		t.Fatal("accepted broken zlib stream")
	}
	if _, err := decodeInstruction([]byte{99, 1, 2, 3}); err == nil {
		t.Fatal("accepted unknown encoding")
	}
}

// encodeInstruction marshals and, when profitable, compresses, into a
// buffer the caller keeps: the scratch it is encoded in is never given back.
// The sender's hot path goes through a fragmenter, which returns its scratch
// to the pool once the instruction is on the wire.
func encodeInstruction(inst *Instruction) []byte {
	var fr fragmenter
	return fr.encode(inst)
}

// decodeInstruction reverses encodeInstruction into fresh buffers. The
// receive path goes through assembly.decode, which borrows a scratch.
func decodeInstruction(buf []byte) (*Instruction, error) {
	var a assembly
	return a.decode(buf)
}
