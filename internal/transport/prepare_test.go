package transport

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/simclock"
	"repro/internal/sspcrypto"
)

// prepRig is a server and a client Transport on one Scheduler, wired back
// to back with the test playing network and event loop: datagrams wait in
// toClient/toServer until the test delivers them.
type prepRig struct {
	t              *testing.T
	clk            *simclock.Scheduler
	server, client *Transport[*countedLog, *countedLog]
	toClient       [][]byte
	toServer       [][]byte
	clientGot      []byte
	prepared       int // frames the server's Prepare calls built
}

// countedLog is logState counting the calls a prepared frame costs.
type countedLog struct {
	*logState
	clones, diffs *int
}

func (s *countedLog) Clone() *countedLog {
	*s.clones++
	return &countedLog{logState: s.logState.Clone(), clones: s.clones, diffs: s.diffs}
}
func (s *countedLog) Equal(o *countedLog) bool      { return s.logState.Equal(o.logState) }
func (s *countedLog) DiffFrom(o *countedLog) []byte { return s.AppendDiff(nil, o) }
func (s *countedLog) Subtract(o *countedLog)        { s.logState.Subtract(o.logState) }
func (s *countedLog) AppendDiff(buf []byte, o *countedLog) []byte {
	*s.diffs++
	return s.logState.AppendDiff(buf, o.logState)
}

func newCountedLog() *countedLog {
	return &countedLog{logState: newLog(), clones: new(int), diffs: new(int)}
}

var (
	prepClientAddr = netem.Addr{Host: 1, Port: 1000}
	prepServerAddr = netem.Addr{Host: 2, Port: 2000}
	prepKey        = sspcrypto.Key{4, 5, 6}
)

// newBareRig builds the two endpoints and exchanges nothing: the server has
// never heard from its client.
func newBareRig(t *testing.T) *prepRig {
	t.Helper()
	r := &prepRig{t: t, clk: simclock.NewScheduler(t0)}
	key := prepKey
	var err error
	r.server, err = New(Config[*countedLog, *countedLog]{
		Direction: sspcrypto.ToClient, Key: key, Clock: r.clk,
		LocalInitial: newCountedLog(), RemoteInitial: newCountedLog(),
		Emit: func(wire []byte) { r.toClient = append(r.toClient, bytes.Clone(wire)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	r.client, err = New(Config[*countedLog, *countedLog]{
		Direction: sspcrypto.ToServer, Key: key, Clock: r.clk,
		LocalInitial: newCountedLog(), RemoteInitial: newCountedLog(),
		Emit: func(wire []byte) { r.toServer = append(r.toServer, bytes.Clone(wire)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func newPrepRig(t *testing.T) *prepRig {
	t.Helper()
	r := newBareRig(t)
	// The client introduces itself; a few quiet exchanges settle the RTT
	// estimate at the floor, then both sides go idle for longer than any
	// frame interval so the next send waits only for its collection interval.
	r.client.Sender().ForceAckSoon()
	for i := 0; i < 10; i++ {
		r.client.Tick()
		r.server.Tick()
		r.deliver()
		r.clk.RunFor(30 * time.Millisecond)
	}
	r.clk.RunFor(500 * time.Millisecond)
	r.server.Tick()
	r.client.Tick()
	r.deliver()
	return r
}

// deliver hands every datagram in flight to its destination.
func (r *prepRig) deliver() {
	for len(r.toServer) > 0 || len(r.toClient) > 0 {
		up, down := r.toServer, r.toClient
		r.toServer, r.toClient = nil, nil
		for _, w := range up {
			r.server.Receive(w, prepClientAddr)
		}
		for _, w := range down {
			r.client.Receive(w, prepServerAddr)
			r.clientGot = consume(r.t, r.clientGot, r.client.RemoteState().logState)
		}
	}
}

// write appends to the server's object and ticks it the way a host write
// does: announced, as of at.
func (r *prepRig) write(b string, at time.Time) {
	r.server.CurrentState().Append([]byte(b))
	r.server.TickChangedAt(at)
}

// due returns the server's pending send deadline.
func (r *prepRig) due() time.Time {
	r.t.Helper()
	at, _ := r.server.NextDeadline()
	if r.server.sender.nextSendTime.IsZero() || !at.Equal(r.server.sender.nextSendTime) {
		r.t.Fatalf("no send is pending (next deadline +%v)", at.Sub(r.clk.Now()))
	}
	return at
}

// serveDeadline advances to the pending send deadline, ticks the server and
// delivers what it sent.
func (r *prepRig) serveDeadline() {
	r.t.Helper()
	r.clk.RunUntil(r.due())
	r.server.Tick()
	r.deliver()
}

func (r *prepRig) stats() SenderStats { return r.server.Sender().Stats() }

// prepare offers the server to build its next frame ahead, counting the
// frames it builds.
func (r *prepRig) prepare(quietUntil time.Time) {
	if r.server.Prepare(quietUntil) {
		r.prepared++
	}
}

// TestIntervalCountsFromHostWrite pins when a collection interval starts:
// at the instant the caller says the object changed, when it says; at the
// tick that notices, when it does not; and never so that a frame leaves
// sooner than the paper's rules allow.
func TestIntervalCountsFromHostWrite(t *testing.T) {
	ci := DefaultTiming().CollectionInterval

	t.Run("a hint starts the interval at the write", func(t *testing.T) {
		r := newPrepRig(t)
		wrote := r.clk.Now()
		r.server.CurrentState().Append([]byte("a"))
		r.clk.RunFor(700 * time.Microsecond) // the emulator at work
		r.server.TickChangedAt(wrote)
		if got := r.due(); !got.Equal(wrote.Add(ci)) {
			t.Fatalf("frame due +%v after the write, want +%v", got.Sub(wrote), ci)
		}
		// Not a tick sooner.
		r.clk.RunUntil(wrote.Add(ci - time.Nanosecond))
		r.server.Tick()
		if len(r.toClient) != 0 {
			t.Fatalf("a frame left %v after the write", r.clk.Now().Sub(wrote))
		}
		r.serveDeadline()
		if string(r.clientGot) != "a" {
			t.Fatalf("client has %q", r.clientGot)
		}
	})

	t.Run("a plain tick starts it when it notices", func(t *testing.T) {
		r := newPrepRig(t)
		r.server.CurrentState().Append([]byte("a"))
		r.clk.RunFor(700 * time.Microsecond)
		noticed := r.clk.Now()
		r.server.Tick()
		if got := r.due(); !got.Equal(noticed.Add(ci)) {
			t.Fatalf("frame due +%v after the tick that noticed, want +%v", got.Sub(noticed), ci)
		}
	})

	t.Run("the hint lives for one tick", func(t *testing.T) {
		r := newPrepRig(t)
		r.server.TickChangedAt(r.clk.Now()) // announced, but nothing changed
		r.clk.RunFor(5 * time.Millisecond)
		r.server.CurrentState().Append([]byte("a"))
		noticed := r.clk.Now()
		r.server.Tick()
		if got := r.due(); !got.Equal(noticed.Add(ci)) {
			t.Fatalf("frame due +%v after the tick that noticed, want +%v: a stale hint moved it", got.Sub(noticed), ci)
		}
	})

	t.Run("a hint cannot move a running interval", func(t *testing.T) {
		r := newPrepRig(t)
		first := r.clk.Now()
		r.write("a", first)
		r.clk.RunFor(3 * time.Millisecond)
		r.write("b", first.Add(-time.Second)) // older than the first write
		r.write("c", r.clk.Now())             // newer
		if got := r.due(); !got.Equal(first.Add(ci)) {
			t.Fatalf("frame due +%v after the first write, want +%v", got.Sub(first), ci)
		}
		r.serveDeadline()
		if string(r.clientGot) != "abc" {
			t.Fatalf("client has %q", r.clientGot)
		}
	})

	t.Run("a hint from the future is now", func(t *testing.T) {
		r := newPrepRig(t)
		now := r.clk.Now()
		r.write("a", now.Add(time.Hour))
		if got := r.due(); !got.Equal(now.Add(ci)) {
			t.Fatalf("frame due +%v from now, want +%v", got.Sub(now), ci)
		}
	})

	t.Run("an old hint cannot beat the frame rate", func(t *testing.T) {
		r := newPrepRig(t)
		r.write("a", r.clk.Now())
		r.serveDeadline()
		sent := r.clk.Now()
		// A write announced as older than the frame just sent: its interval
		// is long over, so only the frame-rate rule holds the next frame.
		r.clk.RunFor(time.Millisecond)
		r.write("b", sent.Add(-time.Second))
		want := sent.Add(r.server.Sender().SendInterval())
		if got := r.due(); !got.Equal(want) {
			t.Fatalf("frame due +%v after the previous one, want the frame interval +%v", got.Sub(sent), want.Sub(sent))
		}
		r.clk.RunUntil(want.Add(-time.Nanosecond))
		r.server.Tick()
		if len(r.toClient) != 0 {
			t.Fatal("a frame left inside the frame interval")
		}
	})

	t.Run("a change nobody announced gets a full interval", func(t *testing.T) {
		// core.Server's echo acknowledgment reaches the object inside Tick,
		// with no write to date it from.
		r := newPrepRig(t)
		r.write("a", r.clk.Now())
		r.serveDeadline()
		r.clk.RunFor(time.Second) // past the frame interval
		r.server.CurrentState().Append([]byte("e"))
		noticed := r.clk.Now()
		r.server.Tick()
		if got := r.due(); !got.Equal(noticed.Add(ci)) {
			t.Fatalf("frame due +%v after the tick that noticed, want +%v", got.Sub(noticed), ci)
		}
	})
}

// TestPrepareIsIdempotentAndCheapWhenIdle: with no send pending Prepare
// neither clones nor diffs; with one pending it builds the frame once,
// however often it is asked, and the deadline then sends that frame without
// cloning or diffing again.
func TestPrepareIsIdempotentAndCheapWhenIdle(t *testing.T) {
	r := newPrepRig(t)
	live := r.server.CurrentState()
	clones, diffs := *live.clones, *live.diffs
	for i := 0; i < 5; i++ {
		r.prepare(time.Time{})
	}
	if *live.clones != clones || *live.diffs != diffs || r.prepared != 0 {
		t.Fatalf("idle Prepare cost %d clones and %d diffs", *live.clones-clones, *live.diffs-diffs)
	}

	// A change nobody announced (core.Server's echo acknowledgment) makes
	// a send pending, but carries no host write: not worth building ahead.
	live.Append([]byte("e"))
	r.server.Tick()
	r.prepare(time.Time{})
	if *live.clones != clones || *live.diffs != diffs || r.prepared != 0 {
		t.Fatalf("an unannounced change was built ahead: %+v", r.stats())
	}
	r.serveDeadline()
	r.clk.RunFor(time.Second)
	r.client.Tick() // its acknowledgment, so that none is owed below
	r.deliver()
	clones, diffs = *live.clones, *live.diffs

	r.write("hello", r.clk.Now())
	for i := 0; i < 5; i++ {
		r.prepare(time.Time{})
		r.clk.RunFor(time.Millisecond)
		r.server.NextDeadline()
	}
	if got := r.prepared; got != 1 {
		t.Fatalf("five Prepare calls built %d frames, want 1", got)
	}
	if *live.clones != clones+1 || *live.diffs != diffs+1 {
		t.Fatalf("building one frame cost %d clones and %d diffs, want 1 and 1", *live.clones-clones, *live.diffs-diffs)
	}
	r.serveDeadline()
	if st := r.stats(); st.PreparedSent != 1 || st.Instructions != 2 {
		t.Fatalf("the deadline did not send the prepared frame: %+v", st)
	}
	if *live.clones != clones+1 || *live.diffs != diffs+1 {
		t.Fatalf("sending the prepared frame cost %d more clones and %d more diffs", *live.clones-clones-1, *live.diffs-diffs-1)
	}
	if string(r.clientGot) != "ehello" {
		t.Fatalf("client has %q", r.clientGot)
	}
	if _, ok := r.server.Sender().PreparedState(); ok {
		t.Fatal("a sent frame is still held as prepared")
	}

	// A change the caller knows is coming before the deadline: not built.
	r.clk.RunFor(time.Second)
	r.write("x", r.clk.Now())
	r.prepare(r.due())
	if got := r.prepared; got != 1 {
		t.Fatal("a frame was built although the caller expects a change before its deadline")
	}
	r.prepare(r.due().Add(time.Nanosecond))
	if got := r.prepared; got != 2 {
		t.Fatal("a frame whose deadline precedes the next expected change was not built")
	}
}

// TestPreparedFrameDiscards: one sub-test per way a prepared frame stops
// being the frame the deadline would mint. Each asserts that it was
// discarded — never sent — and that the deadline path then conveyed the right
// state.
func TestPreparedFrameDiscards(t *testing.T) {
	// prepared returns a rig with "a" written, announced, and its frame
	// built and waiting.
	prepared := func(t *testing.T) *prepRig {
		r := newPrepRig(t)
		r.write("a", r.clk.Now())
		r.prepare(time.Time{})
		if _, ok := r.server.Sender().PreparedState(); !ok || r.prepared != 1 {
			t.Fatalf("no frame was prepared: %+v", r.stats())
		}
		return r
	}
	// discarded checks the frame built by prepared was never sent and the
	// client converged on want regardless.
	discarded := func(t *testing.T, r *prepRig, want string) {
		t.Helper()
		for i := 0; i < 50 && string(r.clientGot) != want; i++ {
			r.clk.RunFor(5 * time.Millisecond)
			r.server.Tick()
			r.client.Tick()
			r.deliver()
		}
		if string(r.clientGot) != want {
			t.Fatalf("client has %q, want %q", r.clientGot, want)
		}
		if st := r.stats(); st.PreparedSent != 0 {
			t.Fatalf("a stale prepared frame was sent: %+v", st)
		}
		if _, ok := r.server.Sender().PreparedState(); ok {
			t.Fatal("the stale frame is still held")
		}
	}

	t.Run("a second announced write", func(t *testing.T) {
		r := prepared(t)
		r.clk.RunFor(2 * time.Millisecond)
		r.write("b", r.clk.Now())
		if _, ok := r.server.Sender().PreparedState(); ok {
			t.Fatal("the frame survived a second write")
		}
		r.prepare(time.Time{})
		if got := r.prepared; got != 1 {
			t.Fatalf("a second frame was built in an interval that already saw two writes (%d)", got)
		}
		discarded(t, r, "ab")
	})

	t.Run("a change nobody announced", func(t *testing.T) {
		r := prepared(t)
		r.server.CurrentState().Append([]byte("b"))
		discarded(t, r, "ab")
	})

	t.Run("an unannounced change found by the next Prepare is rebuilt", func(t *testing.T) {
		r := prepared(t)
		r.server.CurrentState().Append([]byte("b"))
		r.server.Tick()
		r.prepare(time.Time{})
		r.serveDeadline()
		if st := r.stats(); r.prepared != 2 || st.PreparedSent != 1 || string(r.clientGot) != "ab" {
			t.Fatalf("want the first frame discarded and the second sent, client at %q: %+v", r.clientGot, st)
		}
	})

	t.Run("an ack that moved the baseline", func(t *testing.T) {
		// An earlier frame is still unacknowledged when the next is built
		// (ThrowawayNum names the old baseline); its ack lands mid-interval.
		r := newPrepRig(t)
		r.write("a", r.clk.Now())
		r.clk.RunUntil(r.due())
		r.server.Tick()
		held := r.toClient
		r.toClient = nil
		r.clk.RunFor(40 * time.Millisecond)
		r.write("b", r.clk.Now())
		r.prepare(time.Time{})
		if r.prepared != 1 {
			t.Fatal("no frame was prepared")
		}
		r.toClient = held
		r.deliver() // the client acks "a"; the ack reaches the server
		for i := 0; len(r.toServer) == 0 && i < 200; i++ {
			r.clk.RunFor(time.Millisecond)
			r.client.Tick()
		}
		r.deliver()
		if _, ok := r.server.Sender().PreparedState(); ok {
			t.Fatal("the frame survived the acknowledgment that moved its baseline")
		}
		if got := r.server.Sender().LastAckedNum(); got != 1 {
			t.Fatalf("the baseline is state %d, want 1", got)
		}
		discarded(t, r, "ab")
	})

	t.Run("a new remote state to acknowledge", func(t *testing.T) {
		r := prepared(t)
		r.client.CurrentState().Append([]byte("k"))
		r.client.Tick()
		r.clk.RunFor(time.Millisecond)
		r.client.Tick()
		r.deliver() // AckNum moves under the prepared frame
		r.serveDeadline()
		discarded(t, r, "a")
	})

	t.Run("the assumed receiver state flips at its horizon", func(t *testing.T) {
		// "a" goes out and is lost. A frame for "ab" built while "a" is
		// still assumed delivered diffs from it; if the deadline falls past
		// the horizon the sender no longer assumes so, and must diff from
		// the acknowledged baseline.
		r := newPrepRig(t)
		r.write("a", r.clk.Now())
		r.clk.RunUntil(r.due())
		r.server.Tick()
		r.toClient = nil // lost
		s := r.server.sender
		horizon := s.back().at.Add(s.conn.RTO() + s.timing.AckDelay)
		r.clk.RunUntil(horizon.Add(-time.Millisecond))
		r.write("b", r.clk.Now())
		if s.assumedIdx != 1 {
			t.Fatalf("assumed state index %d, want the unacknowledged frame", s.assumedIdx)
		}
		r.prepare(time.Time{})
		if r.prepared != 1 || s.prep.hdr.OldNum != 1 {
			t.Fatalf("want a frame diffed from state 1: %+v %+v", r.stats(), s.prep)
		}
		r.clk.RunUntil(r.due())
		r.server.Tick()
		if st := r.stats(); st.PreparedSent != 0 || st.Instructions != 2 {
			t.Fatalf("want the deadline to mint its own frame: %+v", st)
		}
		r.deliver()
		discarded(t, r, "ab")
	})

	t.Run("an exhausted reservation", func(t *testing.T) {
		r := prepared(t)
		snd := r.server.Sender()
		snd.SetNumCeiling(snd.NumHighWater())
		r.clk.RunUntil(r.due())
		r.server.Tick()
		if st := r.stats(); st.Suppressed != 1 || st.PreparedSent != 0 || st.Instructions != 0 {
			t.Fatalf("want the send suppressed: %+v", st)
		}
		// Nothing is built under an exhausted reservation; once it is
		// extended the next frame is, and goes out.
		r.prepare(time.Time{})
		if got := r.prepared; got != 1 {
			t.Fatalf("a frame was built under an exhausted reservation (%d)", got)
		}
		snd.SetNumCeiling(0)
		r.server.NextDeadline()
		r.prepare(time.Time{})
		r.clk.RunFor(time.Millisecond)
		r.server.Tick()
		r.deliver()
		if st := r.stats(); r.prepared != 2 || st.PreparedSent != 1 || string(r.clientGot) != "a" {
			t.Fatalf("after the reservation was extended: client %q, %+v", r.clientGot, st)
		}
	})

	t.Run("another instruction encoded meanwhile", func(t *testing.T) {
		r := prepared(t)
		r.server.sender.frag.encode(&Instruction{})
		r.serveDeadline()
		discarded(t, r, "a")
	})
}

// TestFloodSwitchesPreparingOff: many announced writes per interval cost one
// discarded frame when the burst starts and nothing after, and the first
// quiet interval switches preparing back on.
func TestFloodSwitchesPreparingOff(t *testing.T) {
	r := newPrepRig(t)
	want := ""
	// quiet is one interval with a single write; flood one with a write
	// every 2 ms. Both ask for a prepared frame after every write, as an
	// event loop does after every sweep.
	interval := func(writes int) {
		for i := 0; i < writes; i++ {
			b := string(seq(len(want), 1))
			want += b
			r.write(b, r.clk.Now())
			r.prepare(time.Time{})
			if i < writes-1 {
				r.clk.RunFor(2 * time.Millisecond)
			}
		}
		r.serveDeadline()
		r.clk.RunFor(100 * time.Millisecond)
		r.server.Tick()
		r.client.Tick()
		r.deliver()
	}
	interval(1)
	interval(1)
	if st := r.stats(); r.prepared != 2 || st.PreparedSent != 2 {
		t.Fatalf("two quiet intervals: %d prepared, %+v", r.prepared, st)
	}
	for i := 0; i < 10; i++ {
		interval(3)
	}
	if st := r.stats(); r.prepared != 3 || st.PreparedSent != 2 {
		t.Fatalf("a ten-interval flood should cost one discarded frame: %d prepared, %+v", r.prepared, st)
	}
	interval(1) // the first quiet interval: not prepared, but it is the forecast
	if r.prepared != 3 {
		t.Fatalf("the interval after a flood was speculated on: %d prepared, %+v", r.prepared, r.stats())
	}
	interval(1)
	if st := r.stats(); r.prepared != 4 || st.PreparedSent != 3 {
		t.Fatalf("preparing did not come back after a quiet interval: %d prepared, %+v", r.prepared, st)
	}
	if string(r.clientGot) != want {
		t.Fatalf("client has %q, want %q", r.clientGot, want)
	}
}
