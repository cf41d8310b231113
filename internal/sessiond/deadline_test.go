package sessiond

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/netem"
	"repro/internal/network"
	"repro/internal/simclock"
	"repro/internal/terminal"
)

// slowApp is a host application whose keystroke handling takes real (well:
// clock) time: Input advances the clock by took before answering, so the
// sweep that delivered the keystroke is took old by the time the session
// re-arms — what 0.15 ms of host.Input plus 0.75 ms of Emulator.Write do to
// a bulk reply on a real clock.
type slowApp struct {
	clk  *simclock.Scheduler
	took time.Duration
}

func (a *slowApp) Start() []byte { return nil }
func (a *slowApp) Input(data []byte) ([]byte, time.Duration) {
	a.clk.RunFor(a.took)
	return append([]byte("echo:"), data...), 0
}

// deadlineRig is one daemon session and its client on a Scheduler, driven
// by hand: the test plays network, tick loop and time.
type deadlineRig struct {
	t      *testing.T
	clk    *simclock.Scheduler
	d      *Daemon
	s      *Session
	client *core.Client
	addr   netem.Addr
	toSrv  [][]byte // datagrams the client emitted, not yet delivered
	toCli  [][]byte // datagrams the daemon emitted, not yet delivered
}

// newBareDeadlineRig opens the session (app nil: one with no application)
// and builds its client, and exchanges nothing: the session is unconnected.
func newBareDeadlineRig(t *testing.T, app host.App, clk *simclock.Scheduler) *deadlineRig {
	r := &deadlineRig{t: t, clk: clk, addr: netem.Addr{Host: 7, Port: 7007}}
	cfg := Config{
		Clock:       clk,
		IdleTimeout: -1,
		Send:        func(_ netem.Addr, wire []byte) { r.toCli = append(r.toCli, append([]byte(nil), wire...)) },
	}
	if app != nil {
		cfg.NewApp = func(uint64) host.App { return app }
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	client, err := core.NewClient(core.ClientConfig{
		Key:      s.Key(),
		Clock:    clk,
		Envelope: &network.Envelope{ID: s.ID},
		Emit:     func(wire []byte) { r.toSrv = append(r.toSrv, append([]byte(nil), wire...)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	r.d, r.s, r.client = d, s, client
	return r
}

func newDeadlineRig(t *testing.T, app host.App, clk *simclock.Scheduler) *deadlineRig {
	r := newBareDeadlineRig(t, app, clk)
	d, client := r.d, r.client
	// Introduce the client and let both sides settle until the only
	// deadline left is the heartbeat, then go quiet for longer than any
	// frame interval so the next send waits for nothing but its collection
	// interval.
	for i := 0; i < 20; i++ {
		client.Tick()
		r.deliver()
		clk.RunFor(10 * time.Millisecond)
		d.TickDue()
	}
	clk.RunFor(500 * time.Millisecond)
	d.TickDue()
	client.Tick()
	r.deliver()
	return r
}

// deliver hands every datagram in flight to its destination.
func (r *deadlineRig) deliver() {
	for len(r.toSrv) > 0 || len(r.toCli) > 0 {
		up, down := r.toSrv, r.toCli
		r.toSrv, r.toCli = nil, nil
		for _, w := range up {
			r.d.HandlePacket(w, r.addr)
		}
		for _, w := range down {
			r.client.Receive(w, netem.Addr{})
		}
	}
}

// typeKey types one key and returns the datagram that carries it.
func (r *deadlineRig) typeKey() []byte {
	r.t.Helper()
	r.client.UserBytes([]byte("x"))
	r.clk.RunFor(time.Millisecond) // the client's send delay
	r.client.Tick()
	if len(r.toSrv) != 1 {
		r.t.Fatalf("keystroke produced %d datagrams, want 1", len(r.toSrv))
	}
	wire := r.toSrv[0]
	r.toSrv = nil
	return wire
}

func (r *deadlineRig) armed() time.Time {
	r.t.Helper()
	at, ok := r.d.NextDeadline()
	if !ok {
		r.t.Fatal("no deadline armed")
	}
	return at
}

func (r *deadlineRig) lastSent() (n uint64) {
	r.s.Do(func(srv *core.Server) { n = srv.Transport().Sender().LastSentNum() })
	return n
}

// TestSessionArmedAtAbsoluteDeadline: a keystroke whose handling takes 1 ms
// leaves the session armed at exactly the sender's send deadline, and the
// reply costs one tick sweep. Armed as sweep start + WaitTime() the entry
// was early by the handling time: the tick loop woke a millisecond before
// the sender was due, swept for nothing, and re-armed a minTickInterval out.
func TestSessionArmedAtAbsoluteDeadline(t *testing.T) {
	clk := simclock.NewScheduler(loopEpoch)
	r := newDeadlineRig(t, &slowApp{clk: clk, took: time.Millisecond}, clk)
	wire := r.typeKey()
	arrived := clk.Now()
	before := r.lastSent()
	r.d.HandlePacket(wire, r.addr)

	// The reply's collection interval counts from the sweep's clock reading
	// — when the daemon learned the host had something to write — and not
	// from a millisecond later, when the application and the emulator have
	// finished with it: that millisecond is spent inside the interval.
	want := arrived.Add(8 * time.Millisecond)
	var sender time.Time
	r.s.Do(func(srv *core.Server) { sender, _ = srv.Transport().NextDeadline() })
	if !sender.Equal(want) {
		t.Fatalf("sender due at +%v, want +%v", sender.Sub(arrived), want.Sub(arrived))
	}
	if at := r.armed(); !at.Equal(sender) {
		t.Fatalf("session armed at +%v, sender due at +%v", at.Sub(arrived), sender.Sub(arrived))
	}

	sweeps := 0
	for r.lastSent() == before {
		if sweeps++; sweeps > 5 {
			t.Fatal("the reply frame was never minted")
		}
		clk.RunUntil(r.armed())
		r.d.TickDue()
	}
	if sweeps != 1 {
		t.Fatalf("the reply frame took %d tick sweeps, want 1", sweeps)
	}
	if at := clk.Now(); !at.Equal(sender) {
		t.Fatalf("frame minted at +%v, sender was due at +%v", at.Sub(arrived), sender.Sub(arrived))
	}
}

// TestNearDeadlineNotFloored: a deadline 300 µs ahead is armed 300 µs ahead.
// minTickInterval is for deadlines that have passed, not for near ones.
func TestNearDeadlineNotFloored(t *testing.T) {
	clk := simclock.NewScheduler(loopEpoch)
	r := newDeadlineRig(t, &slowApp{clk: clk}, clk)
	wire := r.typeKey()
	r.d.HandlePacket(wire, r.addr)
	due := r.armed()

	// Any datagram re-arms the session; a replay is the cheapest one.
	clk.RunUntil(due.Add(-300 * time.Microsecond))
	r.d.HandlePacket(wire, r.addr)
	if at := r.armed(); !at.Equal(due) {
		t.Fatalf("deadline 300µs ahead re-armed %v ahead", at.Sub(clk.Now()))
	}
}

// TestStaleDeadlineCannotSpin: a deadline the tick cannot serve — here a
// send the state-number reservation suppresses — is re-armed a whole
// minTickInterval out, every time.
func TestStaleDeadlineCannotSpin(t *testing.T) {
	clk := simclock.NewScheduler(loopEpoch)
	r := newDeadlineRig(t, &slowApp{clk: clk}, clk)
	r.s.Do(func(srv *core.Server) {
		snd := srv.Transport().Sender()
		snd.SetNumCeiling(snd.NumHighWater())
	})
	before := r.lastSent()
	r.d.HandlePacket(r.typeKey(), r.addr)
	clk.RunUntil(r.armed())
	for i := 0; i < 5; i++ {
		r.d.TickDue()
		if got := r.lastSent(); got != before {
			t.Fatalf("frame %d minted past the reservation ceiling", got)
		}
		if ahead := r.armed().Sub(clk.Now()); ahead != minTickInterval {
			t.Fatalf("sweep %d: stale deadline re-armed %v ahead, want %v", i, ahead, minTickInterval)
		}
		r.d.TickDue() // nothing is due until time moves
		clk.RunFor(minTickInterval)
	}
}

// TestDoRearmsSession: a frame made pending inside Session.Do — a banner fed
// as host output, the way internal/bench's journal experiment feeds them —
// is armed when Do returns and leaves on its collection interval. Do used to
// leave the heap where it was, so the banner waited for whatever had been
// armed before: here the heartbeat, seconds away.
func TestDoRearmsSession(t *testing.T) {
	clk := simclock.NewScheduler(loopEpoch)
	r := newDeadlineRig(t, &slowApp{clk: clk}, clk)
	if ahead := r.armed().Sub(clk.Now()); ahead < time.Second {
		t.Fatalf("the settled rig is armed %v ahead, want only its heartbeat", ahead)
	}
	before := r.lastSent()
	wrote := clk.Now()
	r.s.Do(func(srv *core.Server) { srv.HostOutput([]byte("banner")) })
	if at, want := r.armed(), wrote.Add(8*time.Millisecond); !at.Equal(want) {
		t.Fatalf("after Do the session is armed at +%v, want the banner's collection interval, +%v", at.Sub(wrote), want.Sub(wrote))
	}

	// A caller that polls through Do faster than minTickInterval re-arms a
	// session whose deadline has just passed every time; the floor that
	// keeps a stale deadline from spinning the tick loop must not turn that
	// into never serving it.
	clk.RunUntil(wrote.Add(8*time.Millisecond + 100*time.Microsecond))
	for i := 0; i < 20 && r.lastSent() == before; i++ {
		clk.RunFor(minTickInterval / 2)
		r.d.TickDue()
	}
	if r.lastSent() == before {
		t.Fatal("the banner's frame never left while Do was being polled")
	}
	r.deliver()
	if got := r.client.ServerState().Text(0); !strings.HasPrefix(got, "banner") {
		t.Fatalf("the client shows %q, want the banner", got)
	}
}

// TestPreparedFrameIsCountedAndChargedOnce: the sweep that leaves a frame
// waiting out its collection interval builds it once its replies are out;
// the daemon's counters see it built and then sent, and the resident gauge,
// which walks the waiting frame's snapshot like any other state the session
// keeps reachable, charges the rows it shares with the live screen once.
func TestPreparedFrameIsCountedAndChargedOnce(t *testing.T) {
	clk := simclock.NewScheduler(loopEpoch)
	r := newDeadlineRig(t, &slowApp{clk: clk}, clk)
	m := r.d.Metrics()
	built, sent := m.FramesPrepared.Value(), m.FramesPreparedSent.Value()
	before := r.lastSent()
	resident := r.d.ScreenStateStats().ResidentBytes

	r.d.HandlePacket(r.typeKey(), r.addr)
	if got := m.FramesPrepared.Value() - built; got != 1 {
		t.Fatalf("the keystroke's sweep prepared %d frames, want 1", got)
	}
	r.s.mu.Lock()
	_, waiting := r.s.srv.Transport().Sender().PreparedState()
	r.s.mu.Unlock()
	if !waiting {
		t.Fatal("no frame is waiting for the deadline")
	}
	// The echo rewrote one row of the live screen; the acknowledged baseline
	// still holds the old one. The waiting snapshot shares every row with
	// the live screen and adds nothing.
	row := terminal.RowHeaderBytes + 80*terminal.NarrowCellBytes
	waitingBytes := r.d.ScreenStateStats().ResidentBytes
	if waitingBytes != resident+row {
		t.Fatalf("resident bytes %d with a frame waiting, want the %d before the keystroke plus one %d B row", waitingBytes, resident, row)
	}

	clk.RunUntil(r.armed())
	r.d.TickDue()
	if r.lastSent() == before {
		t.Fatal("the deadline's sweep sent nothing")
	}
	if got := m.FramesPreparedSent.Value() - sent; got != 1 {
		t.Fatalf("frames_prepared_sent grew by %d, want 1", got)
	}
	if got := r.d.ScreenStateStats().ResidentBytes; got != waitingBytes {
		t.Fatalf("resident bytes %d once the snapshot is a sent state, %d while it waited", got, waitingBytes)
	}
	r.deliver()
	if got := r.client.ServerState().Text(0); !strings.HasPrefix(got, "echo:x") {
		t.Fatalf("the client shows %q", got)
	}
}
