package transport

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// appendDatagram appends one record of a FuzzAssembly stream: how far the
// sequence number moves past the previous datagram's successor, then the
// payload, length first.
func appendDatagram(stream []byte, gap uint64, payload []byte) []byte {
	stream = binary.AppendUvarint(stream, gap)
	stream = binary.AppendUvarint(stream, uint64(len(payload)))
	return append(stream, payload...)
}

// FuzzAssembly drives the receive path's decoder as Transport.Receive does,
// from a stream of (sequence number, payload) pairs the datagram layer has
// accepted, so in increasing order: parseFragment derives each fragment's
// instruction id, and assembly.add joins, inflates and decodes in place. It
// must not panic; every instruction it yields satisfies the number order
// and re-encodes to itself; it never holds more than maxFragments
// fragments; and no scratch grown past maxRetainedScratch goes back to the
// pool.
func FuzzAssembly(f *testing.F) {
	var fr fragmenter
	var lone []byte
	for _, frag := range fr.makeFragments(&Instruction{OldNum: 1, NewNum: 2, AckNum: 7, ThrowawayNum: 1, Diff: []byte("a")}, 1200) {
		lone = appendDatagram(lone, 3, frag.appendMarshal(nil))
	}
	f.Add(lone)
	var joined []byte
	for _, frag := range fr.makeFragments(repaint("x"), 40) {
		joined = appendDatagram(joined, 0, frag.appendMarshal(nil))
	}
	f.Add(joined)
	fr.release()

	f.Fuzz(func(t *testing.T, stream []byte) {
		var a assembly
		var seq uint64
		for first := true; len(stream) > 0; first = false {
			gap, n := binary.Uvarint(stream)
			if n <= 0 {
				return
			}
			stream = stream[n:]
			size, n := binary.Uvarint(stream)
			if n <= 0 || size > uint64(len(stream)-n) {
				return
			}
			payload := stream[n : n+int(size)]
			stream = stream[n+int(size):]
			if !first {
				gap++ // the datagram layer accepts only a later sequence number
			}
			if seq+gap < seq {
				return
			}
			seq += gap

			frag, err := parseFragment(seq, payload)
			if err != nil {
				continue
			}
			inst, err := a.add(&frag)
			if a.held > maxFragments || len(a.parts) > maxFragments {
				t.Fatalf("holding %d fragments in %d slots", a.held, len(a.parts))
			}
			if err == nil && inst != nil {
				if inst.ThrowawayNum > inst.OldNum || inst.OldNum > inst.NewNum {
					t.Fatalf("decoded an instruction out of order: throwaway %d, old %d, new %d", inst.ThrowawayNum, inst.OldNum, inst.NewNum)
				}
				again, err := decodeInstruction(encodeInstruction(inst))
				if err != nil || again.OldNum != inst.OldNum || again.NewNum != inst.NewNum ||
					again.AckNum != inst.AckNum || again.ThrowawayNum != inst.ThrowawayNum || !bytes.Equal(again.Diff, inst.Diff) {
					t.Fatalf("re-encoding %+v decoded to %+v (%v)", *inst, again, err)
				}
			}
			sc := a.lent
			a.release()
			if sc != nil && cap(sc.diff)+cap(sc.raw)+cap(sc.enc)+cap(sc.out) > maxRetainedScratch {
				if back := scratches.Get().(*scratch); back == sc {
					t.Fatalf("a scratch of %d bytes went back to the pool", cap(sc.raw)+cap(sc.enc))
				}
			}
		}
	})
}
