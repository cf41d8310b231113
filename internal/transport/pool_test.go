package transport

import (
	"bytes"
	"compress/zlib"
	"errors"
	"strings"
	"testing"

	"repro/internal/statesync"
)

// repaint is a compressible, screen-frame-shaped instruction.
func repaint(tag string) *Instruction {
	return &Instruction{OldNum: 1, NewNum: 2,
		Diff: []byte(strings.Repeat("\x1b[K all work and no play "+tag, 40))}
}

// TestPooledDeflateIsByteIdentical is the wire-compatibility pin for the
// shared deflate state: whichever fragmenter borrowed the pooled writer
// last, and whatever it compressed, the next instruction encodes to exactly
// the bytes a private, fresh zlib.Writer produces.
func TestPooledDeflateIsByteIdentical(t *testing.T) {
	var a, b fragmenter
	for i, inst := range []*Instruction{repaint("a"), repaint("bb"), instOfSize(700), repaint("a"), instOfSize(64)} {
		fr := &a
		if i%2 == 1 {
			fr = &b
		}
		var want bytes.Buffer
		want.WriteByte(encodingZlib)
		zw := zlib.NewWriter(&want)
		zw.Write(inst.marshal())
		zw.Close()
		if raw := inst.marshal(); want.Len() >= len(raw)+1 { // incompressible: sent raw
			want.Reset()
			want.WriteByte(encodingRaw)
			want.Write(raw)
		}
		if got := fr.encode(inst); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("instruction %d: pooled encode differs from a fresh writer (%d vs %d bytes)", i, len(got), want.Len())
		}
	}
}

// TestEncodeWarmPoolAllocFree: with deflate state borrowed from the
// process-wide pool, encoding a compressed instruction allocates nothing —
// and, the point of the pool, the fragmenter holds no compressor.
func TestEncodeWarmPoolAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under -race; CI runs this guard without it")
	}
	var fr fragmenter
	inst := repaint("x")
	if enc := fr.encode(inst); enc[0] != encodingZlib {
		t.Fatal("guard instruction was not compressed")
	}
	if allocs := testing.AllocsPerRun(200, func() { fr.encode(inst) }); allocs != 0 {
		t.Fatalf("encode with a warm pool = %.1f allocs per instruction, want 0", allocs)
	}
}

// TestDecodeWarmPoolAllocsBounded: reassembling and inflating a
// multi-fragment compressed instruction borrows its buffers from the scratch
// pool, and gives them back, as Transport.Receive does, and inflates on the
// decoder's stack; what is left is the Instruction itself.
func TestDecodeWarmPoolAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under -race; CI runs this guard without it")
	}
	var fr fragmenter
	var w seqWire
	frags := w.carry(t, fr.makeFragments(repaint("x"), 40))
	if len(frags) < 2 || frags[0].contents[0] != encodingZlib {
		t.Fatalf("guard wants a compressed multi-fragment instruction, got %d fragments", len(frags))
	}
	var a assembly
	run := func() {
		for i, f := range frags {
			f.id++
			if inst, err := a.add(f); err != nil || (inst != nil) != (i == len(frags)-1) {
				t.Fatalf("fragment %d: inst=%v err=%v", i, inst, err)
			}
		}
		a.release()
	}
	run()
	if allocs := testing.AllocsPerRun(200, run); allocs > 1 {
		t.Fatalf("reassemble+inflate with warm buffers = %.1f allocs per instruction, want <= 1 (the Instruction)", allocs)
	}
}

// TestReceiverKeystrokeAllocsBounded: the server's steady state. One
// keystroke arrives as a one-event UserStream diff from the acknowledged
// state; the receiver retires and recycles the previous state, clones into
// the recycled storage, applies, and appends to a history that was
// compacted in place. The only allocation left is the event's payload —
// and the cost must not depend on how many keystrokes came before.
func TestReceiverKeystrokeAllocsBounded(t *testing.T) {
	const warm, runs = 64, 500
	client := statesync.NewUserStream()
	var insts []*Instruction
	for n := uint64(1); n <= warm+runs+1; n++ {
		prev := client.Clone()
		client.PushBytes([]byte{'k'})
		insts = append(insts, mkInst(n-1, n, n-1, client.DiffFrom(prev)))
		client.Subtract(prev)
	}
	r := newReceiver[*statesync.UserStream](statesync.NewUserStream())
	delivered, next := uint64(0), 0
	step := func() {
		isNew, err := r.processInstruction(insts[next])
		next++
		if err != nil || !isNew {
			t.Fatalf("keystroke %d: isNew=%v err=%v", next, isNew, err)
		}
		if evs := r.Latest().EventsSince(delivered); len(evs) != 1 || string(evs[0].Data) != "k" {
			t.Fatalf("keystroke %d delivered %d events", next, len(evs))
		}
		delivered = r.Latest().Size()
	}
	for i := 0; i < warm; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(runs, step); allocs > 1 {
		t.Fatalf("steady-state keystroke = %.1f allocs per instruction, want <= 1 (the event payload)", allocs)
	}
	if held := len(r.Latest().EventsSince(0)); held > 2 || len(r.states) > 2 {
		t.Fatalf("after %d keystrokes the receiver retains %d events in %d states", next, held, len(r.states))
	}
}

// TestDecodeRejectsOverLimitStream: a stream that inflates past
// maxDecompressed used to be silently truncated at the limit and the
// truncated bytes unmarshalled as if complete. It is an error, and the
// oversized scratch is not kept.
func TestDecodeRejectsOverLimitStream(t *testing.T) {
	bomb := func(n int) []byte {
		var buf bytes.Buffer
		buf.WriteByte(encodingZlib)
		zw := zlib.NewWriter(&buf)
		// NewNum 1, one step down to OldNum 0, ThrowawayNum 0, AckNum 0.
		hdr := (&Instruction{NewNum: 1}).marshal()
		if !bytes.Equal(hdr, []byte{1, 1, 0, 0}) {
			t.Fatalf("header % x, want the 4 bytes 01 01 00 00", hdr)
		}
		zw.Write(hdr)
		zw.Write(make([]byte, n-len(hdr)))
		zw.Close()
		return buf.Bytes()
	}
	var a assembly
	inst, err := a.decode(bomb(maxDecompressed))
	if err != nil || len(inst.Diff) != maxDecompressed-4 {
		t.Fatalf("a stream of exactly the limit must decode: %v", err)
	}
	if _, err := a.decode(bomb(maxDecompressed + 1)); !errors.Is(err, ErrBadInstruction) {
		t.Fatalf("over-limit stream: err = %v, want ErrBadInstruction", err)
	}
	if _, err := a.decode(encodeInstruction(repaint("x"))); err != nil {
		t.Fatalf("decode after an over-limit stream: %v", err)
	}
	// The scratch the streams were inflated in has grown past what the pool
	// keeps: released, it goes to the collector, and no later borrower gets
	// it. (A pool that lost it at random, as under -race, passes vacuously.)
	big := a.lent
	a.release()
	if sc := scratches.Get().(*scratch); sc == big {
		t.Fatalf("a scratch of %d bytes went back to the pool", cap(big.raw))
	}
}

// TestAssemblyDuplicateAndStrayFragments pins the multi-fragment path's
// bookkeeping now that it is a reused slice, not a map per instruction: a
// duplicate fragment is counted once, and a fragment numbered past the
// final one cannot stand in for a missing one.
func TestAssemblyDuplicateAndStrayFragments(t *testing.T) {
	var fr fragmenter
	in := instOfSize(3000)
	var w seqWire
	frags := w.carry(t, fr.makeFragments(in, 1000)) // 4 fragments
	var a assembly
	stray := &fragment{id: frags[0].id, num: 7, contents: []byte("stray")}
	for _, f := range []*fragment{frags[0], frags[0], stray, frags[3], frags[1], frags[1]} {
		if inst, err := a.add(f); inst != nil || err != nil {
			t.Fatalf("assembled without fragment 2 (after fragment %d): %v", f.num, err)
		}
	}
	if a.held != 4 { // 0, 1, 3 and the stray
		t.Fatalf("holding %d fragments, want 4", a.held)
	}
	inst, err := a.add(frags[2])
	if err != nil || inst == nil || !bytes.Equal(inst.Diff, in.Diff) {
		t.Fatalf("did not assemble once complete: %v", err)
	}
	// The next multi-fragment instruction starts from a clean slate.
	next := w.carry(t, fr.makeFragments(in, 1000))
	if inst, _ := a.add(next[3]); inst != nil || a.held != 1 {
		t.Fatalf("reused assembly started with %d fragments held", a.held)
	}
}
