package transport

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestInstructionRoundTrip(t *testing.T) {
	in := &Instruction{
		ProtocolVersion: protocolVersion,
		OldNum:          3,
		NewNum:          9,
		AckNum:          17,
		ThrowawayNum:    2,
		Diff:            []byte("diff-bytes"),
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

func TestInstructionRoundTripProperty(t *testing.T) {
	f := func(oldN, newN, ack, throw uint64, diff []byte) bool {
		in := &Instruction{ProtocolVersion: protocolVersion, OldNum: oldN, NewNum: newN, AckNum: ack, ThrowawayNum: throw, Diff: diff}
		out, err := unmarshalInstruction(in.marshal())
		if err != nil {
			return false
		}
		return out.OldNum == oldN && out.NewNum == newN && out.AckNum == ack &&
			out.ThrowawayNum == throw && bytes.Equal(out.Diff, diff)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestInstructionBadVersion(t *testing.T) {
	in := &Instruction{ProtocolVersion: 99}
	if _, err := unmarshalInstruction(in.marshal()); err == nil {
		t.Fatal("accepted wrong protocol version")
	}
}

func TestInstructionTruncated(t *testing.T) {
	if _, err := unmarshalInstruction([]byte{protocolVersion, 1}); err == nil {
		t.Fatal("accepted truncated instruction")
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
	return &Instruction{ProtocolVersion: protocolVersion, OldNum: 1, NewNum: 2, AckNum: 3, ThrowawayNum: 0, Diff: diff}
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
	for i := range frags {
		back, err := unmarshalFragment(frags[i].marshal())
		if err != nil {
			t.Fatal(err)
		}
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

// copyFragments deep-copies makeFragments output so a test can hold it
// across a later makeFragments call (which reuses the scratch buffers).
func copyFragments(frags []fragment) []*fragment {
	out := make([]*fragment, len(frags))
	for i, f := range frags {
		f.contents = append([]byte(nil), f.contents...)
		out[i] = &f
	}
	return out
}

func TestNewerInstructionAbandonsOlder(t *testing.T) {
	var fr fragmenter
	old := copyFragments(fr.makeFragments(instOfSize(3000), 1000))
	fresh := fr.makeFragments(instOfSize(50), 1000)
	var a assembly
	if inst, _ := a.add(old[0]); inst != nil {
		t.Fatal("premature assembly")
	}
	inst, err := a.add(&fresh[0])
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
	f := &fragment{id: 77, num: 3, final: true, contents: []byte("abc")}
	back, err := unmarshalFragment(f.marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.id != 77 || back.num != 3 || !back.final || string(back.contents) != "abc" {
		t.Fatalf("round trip: %+v", back)
	}
}

func TestFragmentTooShort(t *testing.T) {
	if _, err := unmarshalFragment(make([]byte, 5)); err == nil {
		t.Fatal("accepted short fragment")
	}
}

func TestInstructionCompression(t *testing.T) {
	// A repetitive screen repaint must compress.
	in := &Instruction{ProtocolVersion: protocolVersion, OldNum: 1, NewNum: 2,
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
	small := &Instruction{ProtocolVersion: protocolVersion, Diff: []byte("x")}
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
