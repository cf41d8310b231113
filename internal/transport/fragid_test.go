package transport

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/sspcrypto"
)

// handSealer is a client that seals fragments by hand, each in its own
// datagram under its connection's next sequence number, as Sender does.
type handSealer struct {
	t    *testing.T
	conn *network.Connection
	fr   fragmenter
}

func newHandSealer(t *testing.T, r *prepRig) *handSealer {
	conn, err := network.NewConnection(network.Config{Direction: sspcrypto.ToServer, Key: prepKey, Clock: r.clk})
	if err != nil {
		t.Fatal(err)
	}
	return &handSealer{t: t, conn: conn}
}

// seal returns inst's datagrams, one per fragment of at most mtu bytes.
func (s *handSealer) seal(inst *Instruction, mtu int) [][]byte {
	var wires [][]byte
	for _, f := range s.fr.makeFragments(inst, mtu) {
		wires = append(wires, s.sealFragment(f))
	}
	s.fr.release()
	return wires
}

func (s *handSealer) sealFragment(f fragment) []byte {
	wire, err := s.conn.AppendPacket(nil, f.appendMarshal(nil))
	if err != nil {
		s.t.Fatal(err)
	}
	return wire
}

// receive hands one datagram to the rig's server and reports what it holds.
func receive(t *testing.T, r *prepRig, wire []byte) (held int, num uint64, got string) {
	t.Helper()
	if _, err := r.server.Receive(wire, prepClientAddr); err != nil {
		t.Fatalf("Receive: %v", err)
	}
	return r.server.FragmentsHeld(), r.server.RemoteStateNum(), string(r.server.RemoteState().data)
}

// TestFragmentIDFollowsSequence pins what a fragment's instruction id rests
// on: it is seq − num, the sequence number of the datagram carrying the
// instruction's fragment 0, which holds because a sender seals an
// instruction's fragments back to back and the datagram layer accepts
// sequence numbers only in increasing order.
func TestFragmentIDFollowsSequence(t *testing.T) {
	const mtu = 16
	diff := func(tag string) []byte { return bytes.Repeat([]byte(tag), 40/len(tag)) }

	t.Run("lost middle fragment", func(t *testing.T) {
		r := newBareRig(t)
		c := newHandSealer(t, r)
		first := c.seal(&Instruction{OldNum: 0, NewNum: 1, Diff: diff("first")}, mtu)
		second := c.seal(&Instruction{OldNum: 0, NewNum: 2, Diff: diff("second")}, mtu)
		if len(first) != 3 || len(second) != 3 {
			t.Fatalf("want two three-fragment instructions, got %d and %d", len(first), len(second))
		}
		for _, w := range [][]byte{first[0], first[2]} { // first[1] is lost
			if _, num, _ := receive(t, r, w); num != 0 {
				t.Fatalf("an instruction missing its middle fragment was applied as state %d", num)
			}
		}
		for i, w := range second {
			held, num, got := receive(t, r, w)
			if i < 2 && (num != 0 || held != i+1) {
				t.Fatalf("second instruction, fragment %d: %d held, state %d", i, held, num)
			}
			if i == 2 && (held != 0 || num != 2 || got != string(diff("second"))) {
				t.Fatalf("second instruction not assembled alone: %d held, state %d %q", held, num, got)
			}
		}
	})

	t.Run("fresh id after a suppressed fragment", func(t *testing.T) {
		r := newBareRig(t)
		timing := ClientTiming()
		timing.MTU = mtu
		timing.HeartbeatInterval = time.Hour // nothing but frames is sealed
		var err error
		r.client, err = New(Config[*countedLog, *countedLog]{
			Direction: sspcrypto.ToServer, Key: prepKey, Clock: r.clk, Timing: &timing,
			MinRTO: 100 * time.Millisecond, MaxRTO: 100 * time.Millisecond,
			LocalInitial: newCountedLog(), RemoteInitial: newCountedLog(),
			Emit: func(wire []byte) { r.toServer = append(r.toServer, bytes.Clone(wire)) },
		})
		if err != nil {
			t.Fatal(err)
		}
		send := func(b []byte) [][]byte {
			r.client.CurrentState().Append(b)
			r.client.TickChangedAt(r.clk.Now())
			for len(r.toServer) == 0 {
				at, _ := r.client.NextDeadline()
				r.clk.RunUntil(at)
				r.client.Tick()
			}
			wires := r.toServer
			r.toServer = nil
			return wires
		}
		r.client.Connection().SetSeqCeiling(2) // room for two of the three fragments
		cut := send(diff("first"))
		if len(cut) != 2 || r.client.Sender().Stats().Suppressed != 1 {
			t.Fatalf("%d datagrams sealed, %d suppressed; want 2 and the third refused", len(cut), r.client.Sender().Stats().Suppressed)
		}
		for _, w := range cut {
			receive(t, r, w)
		}
		if held := r.server.FragmentsHeld(); held != 2 {
			t.Fatalf("server holds %d fragments of the cut instruction, want 2", held)
		}
		// The journal extends the reservation; once state 1's assumed
		// delivery has expired, state 2 goes out as a diff from state 0,
		// numbered from sequence number 2.
		r.client.Connection().SetSeqCeiling(0)
		r.clk.RunFor(time.Second)
		wires := send(diff("second"))
		for i, w := range wires {
			held, num, got := receive(t, r, w)
			if i == 0 && held != 1 {
				t.Fatalf("the first fragment sealed after the suppression joined the cut instruction: %d held", held)
			}
			if i == len(wires)-1 && (held != 0 || num != 2 || got != string(diff("first"))+string(diff("second"))) {
				t.Fatalf("state 2 not assembled: %d held, state %d %q", held, num, got)
			}
		}
	})

	t.Run("replay after restore", func(t *testing.T) {
		r := newBareRig(t)
		c := newHandSealer(t, r)
		hello := c.seal(&Instruction{}, mtu)[0]
		cut := c.seal(&Instruction{OldNum: 0, NewNum: 1, Diff: diff("first")}, mtu)
		receive(t, r, hello)
		receive(t, r, cut[0])
		receive(t, r, cut[1])
		if r.server.FragmentsHeld() != 2 {
			t.Fatal("the server should hold two fragments when it dies")
		}
		// The journal was flushed after the hello: its replay floor admits
		// every fragment of the cut instruction again, once.
		floor := r.server.Connection().ExpectedSeq() - 2
		restored, err := New(Config[*countedLog, *countedLog]{
			Direction: sspcrypto.ToClient, Key: prepKey, Clock: r.clk,
			LocalInitial: newCountedLog(), LocalBaseline: newCountedLog(), RemoteInitial: newCountedLog(),
			Resume: &Resume{SendNumFloor: 10, NextSeq: 100, ExpectedSeq: floor, Heard: true, RemoteAddr: &prepClientAddr},
		})
		if err != nil {
			t.Fatal(err)
		}
		r.server = restored
		// Replayed: the cut instruction's second fragment, then its final
		// third, which the dead process never saw. Neither may complete it.
		for _, w := range [][]byte{cut[1], cut[2]} {
			if held, num, _ := receive(t, r, w); num != 0 || held == 0 {
				t.Fatalf("replayed fragment: %d held, state %d", held, num)
			}
		}
		second := c.seal(&Instruction{OldNum: 0, NewNum: 2, Diff: diff("second")}, mtu)
		for i, w := range second {
			held, num, got := receive(t, r, w)
			if i < 2 && (num != 0 || held != i+1) {
				t.Fatalf("fragment %d of the instruction in progress: %d held, state %d", i, held, num)
			}
			if i == 2 && (held != 0 || num != 2 || got != string(diff("second"))) {
				t.Fatalf("instruction in progress not assembled alone: %d held, state %d %q", held, num, got)
			}
		}
		// The window is spent: the cut instruction's first fragment comes too late.
		if _, err := r.server.Receive(cut[0], prepClientAddr); !errors.Is(err, network.ErrOldPacket) {
			t.Fatalf("replay after the window: err = %v, want ErrOldPacket", err)
		}
	})

	t.Run("num beyond seq", func(t *testing.T) {
		r := newBareRig(t)
		c := newHandSealer(t, r)
		// Sequence number 0 cannot carry fragment 1: its fragment 0 would
		// have needed sequence number −1.
		if _, err := r.server.Receive(c.sealFragment(fragment{num: 1, final: true, contents: []byte("x")}), prepClientAddr); !errors.Is(err, ErrBadInstruction) {
			t.Fatalf("fragment 1 at sequence number 0: err = %v, want ErrBadInstruction", err)
		}
		if _, err := parseFragment(1, []byte{2 << 1}); !errors.Is(err, ErrBadInstruction) {
			t.Fatalf("fragment 2 at sequence number 1: err = %v, want ErrBadInstruction", err)
		}
		if f, err := parseFragment(2, []byte{2 << 1}); err != nil || f.id != 0 {
			t.Fatalf("fragment 2 at sequence number 2: id %d, err = %v; want id 0", f.id, err)
		}
		if _, err := parseFragment(1<<20, []byte{0x80, 0x80, 0x02}); !errors.Is(err, ErrBadInstruction) { // num 1<<14
			t.Fatalf("fragment maxFragments: err = %v, want ErrBadInstruction", err)
		}
	})
}
