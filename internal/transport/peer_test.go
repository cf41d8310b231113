package transport

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/simclock"
	"repro/internal/sspcrypto"
)

// openWire opens a datagram one of the rig's endpoints sealed and returns
// its sequence number and, when it completes one, the instruction it carries.
func openWire(t *testing.T, asm *assembly, wire []byte) (seq uint64, inst *Instruction) {
	t.Helper()
	sess, err := sspcrypto.NewSession(prepKey)
	if err != nil {
		t.Fatal(err)
	}
	_, seq, pt, err := sess.Decrypt(wire)
	if err != nil {
		t.Fatal(err)
	}
	frag, err := parseFragment(seq, pt[4:]) // past the two timestamps
	if err != nil {
		t.Fatal(err)
	}
	if inst, err = asm.add(&frag); err != nil {
		t.Fatal(err)
	}
	return seq, inst
}

// hello makes the client introduce itself and returns the datagram.
func (r *prepRig) hello() []byte {
	r.t.Helper()
	r.client.Sender().ForceAckSoon()
	r.client.Tick()
	if len(r.toServer) != 1 {
		r.t.Fatalf("the client's introduction is %d datagrams, want 1", len(r.toServer))
	}
	wire := r.toServer[0]
	r.toServer = nil
	return wire
}

// TestPeerlessServerIsMuteUntilFirstContact is the contract of the
// first-contact gate at this layer. A server endpoint nobody has contacted
// mints nothing, seals nothing, builds nothing ahead and asks for no wake-up,
// however busy its object is; the first authentic datagram gets the first
// frame — state 0 → 1 under sequence number 0 — from the Receive that carried
// it. (Sent into the void at open + 250 ms instead, that frame was assumed
// delivered for RTO + ack delay, and a client arriving inside those 1.1 s
// waited them out.)
func TestPeerlessServerIsMuteUntilFirstContact(t *testing.T) {
	r := newBareRig(t)
	live := r.server.CurrentState()
	conn := r.server.Connection()
	if conn.HasPeer() {
		t.Fatal("a fresh server endpoint has a peer")
	}
	const writes = 3000 // one every 20 ms for 60 s
	for i := 0; i < writes; i++ {
		r.write("x", r.clk.Now())
		if r.server.Prepare(time.Time{}) {
			t.Fatalf("write %d: a frame was built ahead for nobody", i)
		}
		if at, ok := r.server.NextDeadline(); ok {
			t.Fatalf("write %d: a peerless endpoint wants a tick at +%v", i, at.Sub(t0))
		}
		r.clk.RunFor(20 * time.Millisecond)
		r.server.Tick()
	}
	if w := r.server.WaitTime(); w != NoDeadline {
		t.Fatalf("WaitTime %v, want NoDeadline", w)
	}
	if len(r.toClient) != 0 || conn.NextSeq() != 0 {
		t.Fatalf("%d datagrams sealed for nobody, next sequence number %d", len(r.toClient), conn.NextSeq())
	}
	if n := r.server.Sender().SentStateCount(); n != 1 {
		t.Fatalf("%d states retained, want the initial one", n)
	}
	if st := r.stats(); st != (SenderStats{}) {
		t.Fatalf("sender counters moved: %+v", st)
	}
	if *live.clones != 1 || *live.diffs != 0 { // the clone is state 0
		t.Fatalf("%d clones and %d diffs for nobody", *live.clones, *live.diffs)
	}

	r.server.Receive(r.hello(), prepClientAddr)
	if !conn.HasPeer() {
		t.Fatal("an authentic datagram did not give the server its peer")
	}
	if len(r.toClient) != 1 {
		t.Fatalf("the hello's Receive sent %d datagrams, want the first frame", len(r.toClient))
	}
	var asm assembly
	seq, inst := openWire(t, &asm, r.toClient[0])
	if seq != 0 || inst == nil || inst.OldNum != 0 || inst.NewNum != 1 {
		t.Fatalf("first frame: sequence %d, instruction %+v; want sequence 0 carrying 0 → 1", seq, inst)
	}
	r.deliver()
	if want := strings.Repeat("x", writes); string(r.clientGot) != want {
		t.Fatalf("client has %d bytes, want %d", len(r.clientGot), len(want))
	}
	if _, ok := r.server.NextDeadline(); !ok {
		t.Fatal("an endpoint with a peer has no deadline")
	}
}

// TestFirstFrameKeepsFrameRateRule: a hello earlier than the frame-rate rule
// allows a frame (250 ms from state 0 with no RTT sample) does not pull the
// first frame forward; it leaves on that deadline.
func TestFirstFrameKeepsFrameRateRule(t *testing.T) {
	r := newBareRig(t)
	r.write("banner", r.clk.Now())
	r.clk.RunFor(100 * time.Millisecond)
	r.server.Receive(r.hello(), prepClientAddr)
	if len(r.toClient) != 0 {
		t.Fatalf("a frame left %v after state 0", r.clk.Now().Sub(t0))
	}
	if at := r.due(); !at.Equal(t0.Add(DefaultTiming().SendIntervalMax)) {
		t.Fatalf("first frame due at +%v, want +%v", at.Sub(t0), DefaultTiming().SendIntervalMax)
	}
	r.serveDeadline()
	if string(r.clientGot) != "banner" {
		t.Fatalf("client has %q", r.clientGot)
	}
}

// TestClientNeedsNoRemoteAddr: a client endpoint is built knowing its server.
// An embedder that routes the client's datagrams itself never tells the
// datagram layer the address (the benchmark's load generator does not), and
// the client introduces itself and types all the same.
func TestClientNeedsNoRemoteAddr(t *testing.T) {
	r := newBareRig(t)
	conn := r.client.Connection()
	if _, known := conn.RemoteAddr(); known || !conn.HasPeer() {
		t.Fatalf("client: address known %v, has peer %v; want false, true", known, conn.HasPeer())
	}
	r.server.Receive(r.hello(), prepClientAddr)
	r.client.CurrentState().Append([]byte("k"))
	r.client.Tick()
	at, ok := r.client.NextDeadline()
	if !ok {
		t.Fatal("a client with a keystroke pending has no deadline")
	}
	r.clk.RunUntil(at)
	r.client.Tick()
	if len(r.toServer) != 1 {
		t.Fatalf("the keystroke left in %d datagrams, want 1", len(r.toServer))
	}
	r.deliver()
	if got := r.server.RemoteState().Since(0); string(got) != "k" {
		t.Fatalf("server has %q", got)
	}
}

// TestResumedServerSpeaksOnlyWithAddressHint: a journal that recorded where
// the client was gives the restored endpoint its peer, and the resume repaint
// goes out unprompted; one that did not leaves it as mute as a fresh one,
// under its restored counters.
func TestResumedServerSpeaksOnlyWithAddressHint(t *testing.T) {
	build := func(resume Resume) (*Transport[*countedLog, *countedLog], *[][]byte) {
		clk := simclock.NewScheduler(t0)
		sent := new([][]byte)
		live := newCountedLog()
		live.Append([]byte("restored screen"))
		resume.SendNumFloor, resume.NextSeq = 40, 100
		tr, err := New(Config[*countedLog, *countedLog]{
			Direction: sspcrypto.ToClient, Key: prepKey, Clock: clk,
			LocalInitial: live, LocalBaseline: newCountedLog(), RemoteInitial: newCountedLog(),
			Resume: &resume,
			Emit:   func(wire []byte) { *sent = append(*sent, bytes.Clone(wire)) },
		})
		if err != nil {
			t.Fatal(err)
		}
		// Five seconds of an event loop: tick, sleep to the deadline if
		// there is one.
		for end := clk.Now().Add(5 * time.Second); clk.Now().Before(end); {
			tr.Tick()
			at, ok := tr.NextDeadline()
			if !ok || !at.After(clk.Now()) {
				at = clk.Now().Add(50 * time.Millisecond)
			}
			clk.RunUntil(at)
		}
		return tr, sent
	}

	tr, sent := build(Resume{Resume: network.Resume{RemoteAddr: &prepClientAddr}})
	if len(*sent) == 0 {
		t.Fatal("a server restored with its client's address never repainted")
	}
	var asm assembly
	if seq, inst := openWire(t, &asm, (*sent)[0]); seq != 100 || inst == nil || inst.OldNum != 0 || inst.NewNum != 40 {
		t.Fatalf("resume repaint: sequence %d, instruction %+v; want sequence 100 carrying 0 → 40", seq, inst)
	}
	if !tr.Connection().HasPeer() {
		t.Fatal("an address hint is not a peer")
	}

	tr, sent = build(Resume{Resume: network.Resume{Heard: true}})
	if len(*sent) != 0 || tr.Connection().NextSeq() != 100 {
		t.Fatalf("a server restored with no address sealed %d datagrams (next sequence number %d)", len(*sent), tr.Connection().NextSeq())
	}
	if _, ok := tr.NextDeadline(); ok {
		t.Fatal("a server restored with no address wants a tick")
	}
}

// TestQuietPeerIsStillAPeer: the gate is "never had a peer", not "the peer
// is quiet". A client silent for longer than ActiveRetryTimeout still gets
// its heartbeats, and a new state still goes to its last address, once.
func TestQuietPeerIsStillAPeer(t *testing.T) {
	r := newPrepRig(t)
	tm := DefaultTiming()
	before := r.stats()
	quietFrom := r.clk.Now()
	for r.clk.Now().Sub(quietFrom) < ActiveRetryTimeout+5*time.Second {
		at, ok := r.server.NextDeadline()
		if !ok {
			t.Fatalf("no deadline +%v into the silence", r.clk.Now().Sub(quietFrom))
		}
		r.clk.RunUntil(at)
		r.server.Tick()
	}
	r.toClient = nil // the client hears none of it
	heartbeats := r.stats().EmptyAcks - before.EmptyAcks
	if want := int((ActiveRetryTimeout + 5*time.Second) / tm.HeartbeatInterval); heartbeats < want-1 {
		t.Fatalf("%d heartbeats in %v of silence, want about %d", heartbeats, r.clk.Now().Sub(quietFrom), want)
	}
	r.write("still here", r.clk.Now())
	r.clk.RunUntil(r.due())
	r.server.Tick()
	if got := r.stats().Instructions - before.Instructions; got != 1 || len(r.toClient) != 1 {
		t.Fatalf("a new state for a quiet peer: %d instructions in %d datagrams, want 1 in 1", got, len(r.toClient))
	}
	if addr, ok := r.server.Connection().RemoteAddr(); !ok || addr != prepClientAddr {
		t.Fatalf("reply target %v (known %v), want the last address heard from", addr, ok)
	}
	r.deliver()
	if string(r.clientGot) != "still here" {
		t.Fatalf("client has %q", r.clientGot)
	}
}
