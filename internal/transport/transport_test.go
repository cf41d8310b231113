package transport

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/simclock"
	"repro/internal/sspcrypto"
)

var t0 = time.Date(2012, 4, 1, 0, 0, 0, 0, time.UTC)

// logState is the toy transport.State (ROADMAP 3(b)): an append-only byte
// log held as base + suffix, with the user-input stream's diff algebra — a
// diff is the bytes the source lacks, Subtract drops a shared prefix and
// advances base, and Size is global.
type logState struct {
	base int // bytes subtracted so far
	data []byte
}

func newLog() *logState { return &logState{} }

func (s *logState) Append(b []byte) { s.data = append(s.data, b...) }
func (s *logState) Size() int       { return s.base + len(s.data) }

// Since returns the retained bytes at global offsets >= from.
func (s *logState) Since(from int) []byte {
	return s.data[min(max(from, s.base), s.Size())-s.base:]
}

func (s *logState) Clone() *logState {
	return &logState{base: s.base, data: bytes.Clone(s.data)}
}
func (s *logState) Equal(o *logState) bool {
	return s.base == o.base && bytes.Equal(s.data, o.data)
}
func (s *logState) DiffFrom(src *logState) []byte { return s.AppendDiff(nil, src) }
func (s *logState) AppendDiff(buf []byte, src *logState) []byte {
	return append(buf, s.Since(src.Size())...)
}
func (s *logState) Apply(diff []byte) error { s.Append(diff); return nil }
func (s *logState) Subtract(o *logState) {
	drop := len(s.data) - len(s.Since(o.Size()))
	s.data, s.base = s.data[drop:], s.base+drop
}

// consume is how a reader takes a rationalized remote object: by global
// offset, after every Receive. It appends to got whatever st holds beyond
// len(got); a state that starts past what was consumed lost bytes, and one
// that ends before it went backwards.
func consume(t testing.TB, got []byte, st *logState) []byte {
	t.Helper()
	if st.base > len(got) || st.Size() < len(got) {
		t.Fatalf("remote state spans [%d,%d) with %d bytes consumed", st.base, st.Size(), len(got))
	}
	return append(got, st.Since(len(got))...)
}

// seq returns n position-dependent bytes starting at offset from, so a
// duplicated, dropped or reordered byte changes the received string.
func seq(from, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + (from+i)%26)
	}
	return b
}

// harness wires a client and server Transport over an emulated path and
// pumps both with self-rescheduling tick timers.
type harness struct {
	sched          *simclock.Scheduler
	net            *netem.Network
	path           *netem.Path
	client, server *Transport[*logState, *logState]
	clientAddr     netem.Addr
	serverAddr     netem.Addr
	clientDrops    bool // when true, stop delivering to client (disconnection)
	wirePackets    int
	// serverGot/clientGot accumulate what each endpoint consumed from its
	// remote object after every Receive (see consume).
	serverGot, clientGot []byte
	// wakeClient/wakeServer tick an endpoint and reschedule its pump
	// timer, as a real event loop does after local activity.
	wakeClient, wakeServer func()
}

func newHarness(t *testing.T, params netem.LinkParams, timing Timing) *harness {
	t.Helper()
	h := &harness{
		sched:      simclock.NewScheduler(t0),
		clientAddr: netem.Addr{Host: 1, Port: 1000},
		serverAddr: netem.Addr{Host: 2, Port: 2000},
	}
	h.net = netem.NewNetwork(h.sched)
	h.path = netem.NewPath(h.net, params, 7)
	key := sspcrypto.Key{1, 2, 3}

	var err error
	h.client, err = New(Config[*logState, *logState]{
		Direction:     sspcrypto.ToServer,
		Key:           key,
		Clock:         h.sched,
		Timing:        timing,
		LocalInitial:  newLog(),
		RemoteInitial: newLog(),
		Emit: func(wire []byte) {
			h.wirePackets++
			h.path.Up.Send(netem.Packet{Src: h.clientAddr, Dst: h.serverAddr, Payload: wire})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.server, err = New(Config[*logState, *logState]{
		Direction:     sspcrypto.ToClient,
		Key:           key,
		Clock:         h.sched,
		Timing:        timing,
		LocalInitial:  newLog(),
		RemoteInitial: newLog(),
		Emit: func(wire []byte) {
			h.wirePackets++
			if dst, ok := h.server.Connection().RemoteAddr(); ok {
				h.path.Down.Send(netem.Packet{Src: h.serverAddr, Dst: dst, Payload: wire})
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	h.net.Attach(h.serverAddr, func(p netem.Packet) {
		h.server.Receive(p.Payload, p.Src)
		h.serverGot = consume(t, h.serverGot, h.server.RemoteState())
	})
	h.net.Attach(h.clientAddr, h.clientReceive(t))

	// Self-rescheduling pumps, mimicking each endpoint's event loop.
	var pumpClient, pumpServer func()
	clientTimer := h.sched.NewEventTimer(func() { pumpClient() })
	serverTimer := h.sched.NewEventTimer(func() { pumpServer() })
	pumpClient = func() {
		h.client.Tick()
		clientTimer.ResetAfter(clampWait(h.client.WaitTime()))
	}
	pumpServer = func() {
		h.server.Tick()
		serverTimer.ResetAfter(clampWait(h.server.WaitTime()))
	}
	h.wakeClient = pumpClient
	h.wakeServer = pumpServer
	h.sched.AfterFunc(0, pumpClient)
	h.sched.AfterFunc(0, pumpServer)

	// Client introduces itself so the server learns its address.
	h.client.Sender().ForceAckSoon()
	return h
}

// clientReceive is the client's datagram handler (re-attached on a roam).
func (h *harness) clientReceive(t *testing.T) func(netem.Packet) {
	return func(p netem.Packet) {
		if !h.clientDrops {
			h.client.Receive(p.Payload, p.Src)
			h.clientGot = consume(t, h.clientGot, h.client.RemoteState())
		}
	}
}

// clampWait keeps the pump from busy-looping while still being responsive.
func clampWait(d time.Duration) time.Duration {
	const floor = time.Millisecond
	if d < floor {
		return floor
	}
	return d
}

func (h *harness) run(d time.Duration) { h.sched.RunFor(d) }

func TestBasicSynchronizationClientToServer(t *testing.T) {
	h := newHarness(t, netem.LinkParams{Delay: 40 * time.Millisecond}, Timing{})
	h.run(time.Second)
	h.client.CurrentState().Append([]byte("hello"))
	h.wakeClient()
	h.run(2 * time.Second)
	if got := string(h.serverGot); got != "hello" {
		t.Fatalf("server sees %q, want %q", got, "hello")
	}
}

func TestBasicSynchronizationServerToClient(t *testing.T) {
	h := newHarness(t, netem.LinkParams{Delay: 40 * time.Millisecond}, Timing{})
	h.run(time.Second) // let the client introduce itself first
	h.server.CurrentState().Append([]byte("screen-update"))
	h.wakeServer()
	h.run(2 * time.Second)
	if got := string(h.clientGot); got != "screen-update" {
		t.Fatalf("client sees %q", got)
	}
}

func TestBidirectionalConcurrentSync(t *testing.T) {
	h := newHarness(t, netem.LinkParams{Delay: 30 * time.Millisecond}, Timing{})
	h.run(500 * time.Millisecond)
	for i := 0; i < 20; i++ {
		h.client.CurrentState().Append(seq(i, 1))
		h.wakeClient()
		h.server.CurrentState().Append(seq(5*i, 5))
		h.wakeServer()
		h.run(57 * time.Millisecond)
	}
	h.run(3 * time.Second)
	if got := len(h.serverGot); got != 20 {
		t.Fatalf("server received %d keystroke bytes, want 20", got)
	}
	if got := len(h.clientGot); got != 100 {
		t.Fatalf("client received %d echo bytes, want 100", got)
	}
	if !bytes.Equal(h.serverGot, seq(0, 20)) || !bytes.Equal(h.clientGot, seq(0, 100)) {
		t.Fatalf("bytes not delivered exactly once in order: server %q client %q", h.serverGot, h.clientGot)
	}
}

func TestConvergenceUnderHeavyLoss(t *testing.T) {
	h := newHarness(t, netem.LinkParams{Delay: 50 * time.Millisecond, LossProb: 0.29}, Timing{})
	h.run(time.Second)
	want := string(seq(0, 50))
	for i := 0; i < 50; i++ {
		h.client.CurrentState().Append(seq(i, 1))
		h.wakeClient()
		h.run(40 * time.Millisecond)
	}
	h.run(20 * time.Second)
	if got := string(h.serverGot); got != want {
		t.Fatalf("server converged to %q (%d bytes), want %q", got, len(got), want)
	}
}

func TestSkipsIntermediateStates(t *testing.T) {
	// On a long-RTT path the sender must coalesce many quick changes into
	// few instructions — the receiver should see far fewer distinct
	// states than there were changes.
	h := newHarness(t, netem.LinkParams{Delay: 250 * time.Millisecond}, Timing{})
	h.run(time.Second)
	for i := 0; i < 100; i++ {
		h.server.CurrentState().Append(seq(5*i, 5))
		h.wakeServer()
		h.run(5 * time.Millisecond)
	}
	h.run(5 * time.Second)
	if got := len(h.clientGot); got != 500 {
		t.Fatalf("client state has %d bytes, want 500", got)
	}
	if !bytes.Equal(h.clientGot, seq(0, 500)) {
		t.Fatalf("bytes not delivered exactly once in order: %q", h.clientGot)
	}
	// 100 changes over 500ms on a 500ms-RTT path: at ~2 frames in flight
	// per RTT the receiver should have seen a small number of jumps.
	if states := h.server.Sender().Stats().Instructions; states > 30 {
		t.Fatalf("sent %d instructions for 100 rapid changes; expected coalescing", states)
	}
}

func TestFrameRateRespectsRTT(t *testing.T) {
	// RTT 500ms → send interval clamped to 250ms; 10 changes in 2.5s
	// should produce at most ~2.5s/250ms + slack instructions.
	h := newHarness(t, netem.LinkParams{Delay: 250 * time.Millisecond}, Timing{})
	h.run(2 * time.Second) // settle RTT estimate via heartbeats
	base := h.server.Sender().Stats().Instructions
	for i := 0; i < 25; i++ {
		h.server.CurrentState().Append(seq(i, 1))
		h.wakeServer()
		h.run(100 * time.Millisecond)
	}
	h.run(2 * time.Second)
	sent := h.server.Sender().Stats().Instructions - base
	if sent > 14 {
		t.Fatalf("sent %d instructions in 2.5s on a 500ms-RTT path; frame rate not limited", sent)
	}
	if got := len(h.clientGot); got != 25 {
		t.Fatalf("client has %d bytes, want 25", got)
	}
	if !bytes.Equal(h.clientGot, seq(0, 25)) {
		t.Fatalf("bytes not delivered exactly once in order: %q", h.clientGot)
	}
}

func TestCollectionIntervalCoalescesClumpedWrites(t *testing.T) {
	h := newHarness(t, netem.LinkParams{Delay: 10 * time.Millisecond}, Timing{})
	h.run(5 * time.Second) // settle: short RTT → send interval at floor
	base := h.server.Sender().Stats().Instructions
	// Three writes 2ms apart land inside one 8ms collection window.
	for i := 0; i < 3; i++ {
		h.server.CurrentState().Append([]byte("w"))
		h.wakeServer()
		h.run(2 * time.Millisecond)
	}
	h.run(time.Second)
	if sent := h.server.Sender().Stats().Instructions - base; sent != 1 {
		t.Fatalf("clumped writes produced %d instructions, want 1", sent)
	}
	if got := string(h.clientGot); got != "www" {
		t.Fatalf("client has %q, want www", got)
	}
}

func TestAcksPruneSenderHistory(t *testing.T) {
	h := newHarness(t, netem.LinkParams{Delay: 20 * time.Millisecond}, Timing{})
	h.run(500 * time.Millisecond)
	for i := 0; i < 30; i++ {
		h.client.CurrentState().Append([]byte("z"))
		h.wakeClient()
		h.run(300 * time.Millisecond)
	}
	h.run(2 * time.Second)
	if n := h.client.Sender().SentStateCount(); n > 3 {
		t.Fatalf("sender retains %d states after full acknowledgment", n)
	}
	// The append-only stream must also have been garbage collected.
	if n := len(h.client.CurrentState().data); n != 0 {
		t.Fatalf("current state retains %d acked bytes; Subtract GC failed", n)
	}
}

func TestHeartbeatsWhenIdle(t *testing.T) {
	h := newHarness(t, netem.LinkParams{Delay: 20 * time.Millisecond}, Timing{})
	h.run(500 * time.Millisecond)
	before := h.client.Sender().Stats().EmptyAcks
	h.run(10 * time.Second)
	after := h.client.Sender().Stats().EmptyAcks
	// ~3s heartbeat interval → about 3 heartbeats in 10s.
	if got := after - before; got < 2 || got > 6 {
		t.Fatalf("sent %d heartbeats in 10 idle seconds, want ~3", got)
	}
}

func TestLargeDiffFragmentsAndReassembles(t *testing.T) {
	h := newHarness(t, netem.LinkParams{Delay: 20 * time.Millisecond}, Timing{})
	h.run(500 * time.Millisecond)
	big := bytes.Repeat([]byte("0123456789"), 1000) // 10 kB > MTU
	h.server.CurrentState().Append(big)
	h.wakeServer()
	h.run(3 * time.Second)
	if !bytes.Equal(h.clientGot, big) {
		t.Fatalf("client has %d bytes, want %d", len(h.clientGot), len(big))
	}
}

func TestReconnectAfterSilence(t *testing.T) {
	h := newHarness(t, netem.LinkParams{Delay: 20 * time.Millisecond}, Timing{})
	h.run(500 * time.Millisecond)
	// Client goes dark (e.g. suspended laptop) while the server's state
	// keeps changing.
	h.clientDrops = true
	h.server.CurrentState().Append([]byte("missed-while-away"))
	h.wakeServer()
	h.run(30 * time.Second)
	h.clientDrops = false
	// More activity plus heartbeats should fast-forward the client.
	h.server.CurrentState().Append([]byte("+back"))
	h.wakeServer()
	h.run(10 * time.Second)
	if got := string(h.clientGot); got != "missed-while-away+back" {
		t.Fatalf("client state after reconnect = %q", got)
	}
}

func TestRoamingMidSession(t *testing.T) {
	h := newHarness(t, netem.LinkParams{Delay: 20 * time.Millisecond}, Timing{})
	h.run(500 * time.Millisecond)
	h.client.CurrentState().Append([]byte("before"))
	h.wakeClient()
	h.run(time.Second)

	// Client roams: new address, same session.
	newAddr := netem.Addr{Host: 77, Port: 7777}
	h.net.Detach(h.clientAddr)
	h.clientAddr = newAddr
	h.net.Attach(newAddr, h.clientReceive(t))

	h.client.CurrentState().Append([]byte("+after"))
	h.wakeClient()
	h.run(2 * time.Second)
	if got := string(h.serverGot); got != "before+after" {
		t.Fatalf("server state after roam = %q", got)
	}
	if h.server.Connection().RemoteAddrChanges() != 1 {
		t.Fatalf("server observed %d roams, want 1", h.server.Connection().RemoteAddrChanges())
	}
	// And the server can still reach the client at its new address.
	h.server.CurrentState().Append([]byte("reply"))
	h.wakeServer()
	h.run(2 * time.Second)
	if got := string(h.clientGot); got != "reply" {
		t.Fatalf("client did not hear server after roam: %q", got)
	}
}

func TestWaitTimeBounded(t *testing.T) {
	h := newHarness(t, netem.LinkParams{Delay: 20 * time.Millisecond}, Timing{})
	h.run(time.Second)
	if w := h.client.WaitTime(); w > DefaultTiming().HeartbeatInterval {
		t.Fatalf("idle wait time %v exceeds heartbeat interval", w)
	}
	h.client.CurrentState().Append([]byte("x"))
	if w := h.client.WaitTime(); w > DefaultTiming().SendIntervalMax {
		t.Fatalf("wait time with pending data = %v", w)
	}
}

func TestReceiveRejectsGarbage(t *testing.T) {
	h := newHarness(t, netem.LinkParams{}, Timing{})
	if _, err := h.client.Receive([]byte("garbage-payload-here-x"), h.serverAddr); !errors.Is(err, sspcrypto.ErrAuth) && !errors.Is(err, sspcrypto.ErrTooShort) {
		t.Fatalf("err = %v", err)
	}
}

func TestCustomCollectionInterval(t *testing.T) {
	h := newHarness(t, netem.LinkParams{Delay: 5 * time.Millisecond}, Timing{CollectionInterval: 100 * time.Millisecond})
	h.run(5 * time.Second)
	start := h.sched.Now()
	h.server.CurrentState().Append([]byte("q"))
	h.wakeServer()
	base := h.server.Sender().Stats().Instructions
	// Run until the instruction goes out; it must not leave before the
	// 100ms collection interval.
	for h.server.Sender().Stats().Instructions == base {
		if h.sched.Now().Sub(start) > 2*time.Second {
			t.Fatal("instruction never sent")
		}
		h.sched.Step()
	}
	if wait := h.sched.Now().Sub(start); wait < 100*time.Millisecond {
		t.Fatalf("sent after %v, want >= 100ms collection interval", wait)
	}
}

func TestSendPathAllocationFreeWhenRecycled(t *testing.T) {
	// With RecycleWire (Emit consumes before returning), the steady-state
	// heartbeat path — marshal, encode, fragment, seal — must not allocate:
	// every buffer is lent by the scratch pool or reused by AppendPacket.
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under -race; CI runs this guard without it")
	}
	clk := simclock.NewScheduler(t0)
	tr, err := New(Config[*logState, *logState]{
		Direction:     sspcrypto.ToServer,
		Key:           sspcrypto.Key{1},
		Clock:         clk,
		LocalInitial:  newLog(),
		RemoteInitial: newLog(),
		Emit:          func([]byte) {},
		RecycleWire:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	timing := DefaultTiming()
	// Warm up the pools with a few sends.
	for i := 0; i < 4; i++ {
		clk.RunFor(timing.HeartbeatInterval + time.Millisecond)
		tr.Tick()
	}
	sent := tr.Sender().Stats().EmptyAcks
	allocs := testing.AllocsPerRun(200, func() {
		clk.RunFor(timing.HeartbeatInterval + time.Millisecond)
		tr.Tick()
	})
	if got := tr.Sender().Stats().EmptyAcks; got <= sent {
		t.Fatalf("no heartbeats sent during the measurement (stats %+v)", tr.Sender().Stats())
	}
	if allocs > 0 {
		t.Fatalf("steady-state heartbeat send allocates %.1f times per packet, want 0", allocs)
	}
}

func TestDataSendPathAllocationsBounded(t *testing.T) {
	// The data path additionally clones the local object into the sent
	// history (inherent to SSP); everything else is pooled, so the per-send
	// allocation count must stay small and flat.
	clk := simclock.NewScheduler(t0)
	tr, err := New(Config[*logState, *logState]{
		Direction:     sspcrypto.ToServer,
		Key:           sspcrypto.Key{1},
		Clock:         clk,
		LocalInitial:  newLog(),
		RemoteInitial: newLog(),
		Emit:          func([]byte) {},
		RecycleWire:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	timing := DefaultTiming()
	for i := 0; i < 4; i++ {
		tr.CurrentState().Append([]byte("x"))
		clk.RunFor(timing.SendIntervalMax + timing.CollectionInterval)
		tr.Tick()
	}
	sent := tr.Sender().Stats().Instructions
	allocs := testing.AllocsPerRun(100, func() {
		tr.CurrentState().Append([]byte("x"))
		clk.RunFor(timing.SendIntervalMax + timing.CollectionInterval)
		tr.Tick()
	})
	if got := tr.Sender().Stats().Instructions; got <= sent {
		t.Fatalf("no instructions sent during the measurement")
	}
	// One clone of the (growing) local object plus sent-state bookkeeping;
	// the wire path itself contributes nothing.
	if allocs > 4 {
		t.Fatalf("steady-state data send allocates %.1f times per packet, want <= 4", allocs)
	}
}
