package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/overlay"
	"repro/internal/simclock"
	"repro/internal/sspcrypto"
)

var t0 = time.Date(2012, 4, 1, 0, 0, 0, 0, time.UTC)

// session is a complete client+server pair over an emulated path, with a
// scriptable "host application" that echoes after a configurable delay.
type session struct {
	sched      *simclock.Scheduler
	net        *netem.Network
	path       *netem.Path
	client     *Client
	server     *Server
	clientAddr netem.Addr
	serverAddr netem.Addr

	wakeClient func()
	wakeServer func()

	// echoDelay simulates host application processing time.
	echoDelay time.Duration
	// hostEcho, when true, echoes printable input back through the
	// server terminal (like a shell at a prompt).
	hostEcho bool
	// hostScript, when set, overrides echoing entirely.
	hostScript func(data []byte)
}

func newSession(t *testing.T, params netem.LinkParams, pref overlay.DisplayPreference) *session {
	t.Helper()
	ss := &session{
		sched:      simclock.NewScheduler(t0),
		clientAddr: netem.Addr{Host: 1, Port: 1000},
		serverAddr: netem.Addr{Host: 2, Port: 60001},
		echoDelay:  5 * time.Millisecond,
		hostEcho:   true,
	}
	ss.net = netem.NewNetwork(ss.sched)
	ss.path = netem.NewPath(ss.net, params, 11)
	key := sspcrypto.Key{42}

	var err error
	ss.server, err = NewServer(ServerConfig{
		Key:   key,
		Clock: ss.sched,
		Emit: func(wire []byte) {
			if dst, ok := ss.server.Transport().Connection().RemoteAddr(); ok {
				ss.path.Down.Send(netem.Packet{Src: ss.serverAddr, Dst: dst, Payload: wire})
			}
		},
		HostInput: func(data []byte) { ss.hostInput(data) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ss.client, err = NewClient(ClientConfig{
		Key:         key,
		Clock:       ss.sched,
		Predictions: pref,
		Emit: func(wire []byte) {
			ss.path.Up.Send(netem.Packet{Src: ss.clientAddr, Dst: ss.serverAddr, Payload: wire})
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	ss.net.Attach(ss.serverAddr, func(p netem.Packet) { ss.server.Receive(p.Payload, p.Src) })
	ss.net.Attach(ss.clientAddr, func(p netem.Packet) { ss.client.Receive(p.Payload, p.Src) })
	ss.wakeClient = Pump(ss.sched, ss.client)
	ss.wakeServer = Pump(ss.sched, ss.server)
	return ss
}

// hostInput is the scripted application: echo printables, handle CR.
func (ss *session) hostInput(data []byte) {
	if ss.hostScript != nil {
		ss.hostScript(data)
		return
	}
	if !ss.hostEcho {
		return
	}
	out := make([]byte, 0, len(data)+1)
	for _, b := range data {
		switch {
		case b == '\r':
			out = append(out, '\r', '\n')
		case b >= 0x20 && b != 0x7f:
			out = append(out, b)
		case b == 0x7f:
			out = append(out, '\b', ' ', '\b')
		}
	}
	if len(out) > 0 {
		ss.sched.AfterFunc(ss.echoDelay, func() {
			ss.server.HostOutput(out)
			ss.wakeServer()
		})
	}
}

func (ss *session) run(d time.Duration) { ss.sched.RunFor(d) }

func (ss *session) typeString(s string) {
	for _, r := range s {
		ss.client.TypeRune(r)
		ss.wakeClient()
		ss.run(80 * time.Millisecond)
	}
}

func displayRow(ss *session, row int) string {
	return strings.TrimRight(ss.client.Display().Text(row), " ")
}

func TestEndToEndEcho(t *testing.T) {
	ss := newSession(t, netem.LinkParams{Delay: 30 * time.Millisecond}, overlay.Never)
	ss.run(time.Second)
	ss.typeString("hello")
	ss.run(2 * time.Second)
	if got := displayRow(ss, 0); got != "hello" {
		t.Fatalf("client display row 0 = %q", got)
	}
	if got := strings.TrimRight(ss.server.Terminal().Framebuffer().Text(0), " "); got != "hello" {
		t.Fatalf("server terminal row 0 = %q", got)
	}
}

func TestPredictiveEchoDisplaysInstantly(t *testing.T) {
	// Half-second RTT, like the paper's EV-DO link.
	ss := newSession(t, netem.LinkParams{Delay: 250 * time.Millisecond}, overlay.Adaptive)
	ss.run(2 * time.Second)
	// Warm up: first keystrokes confirm the epoch.
	ss.typeString("ab")
	ss.run(3 * time.Second)
	// Now a keystroke must appear on the display immediately, long
	// before the server state can return.
	ss.client.TypeRune('c')
	ss.wakeClient()
	ss.run(10 * time.Millisecond) // far less than the 500ms RTT
	if got := displayRow(ss, 0); got != "abc" {
		t.Fatalf("display shortly after keystroke = %q, want instant 'abc'", got)
	}
	// And the authoritative state still converges.
	ss.run(3 * time.Second)
	if got := displayRow(ss, 0); got != "abc" {
		t.Fatalf("converged display = %q", got)
	}
	st := ss.client.Predictions().Stats()
	if st.Incorrect != 0 {
		t.Fatalf("mispredictions: %+v", st)
	}
}

func TestPredictionRepairWithinRTT(t *testing.T) {
	ss := newSession(t, netem.LinkParams{Delay: 200 * time.Millisecond}, overlay.Adaptive)
	ss.run(2 * time.Second)
	ss.typeString("ok")
	ss.run(3 * time.Second)
	// Host stops echoing (password prompt): predictions become wrong.
	ss.hostEcho = false
	ss.client.TypeRune('s')
	ss.wakeClient()
	ss.run(20 * time.Millisecond)
	if got := displayRow(ss, 0); got != "oks" {
		t.Fatalf("prediction not displayed: %q", got)
	}
	// Within ~an RTT the mistaken 's' must be repaired away.
	ss.run(3 * time.Second)
	if got := displayRow(ss, 0); got != "ok" {
		t.Fatalf("misprediction not repaired: %q", got)
	}
}

func TestEchoAckArrives(t *testing.T) {
	ss := newSession(t, netem.LinkParams{Delay: 50 * time.Millisecond}, overlay.Never)
	ss.run(time.Second)
	ss.client.TypeRune('x')
	ss.wakeClient()
	ss.run(3 * time.Second)
	if got := ss.client.Transport().RemoteState().EchoAck(); got == 0 {
		t.Fatal("echo ack never propagated to client")
	}
}

func TestControlCDuringFlood(t *testing.T) {
	// A runaway process floods the terminal; SSP must keep the path
	// usable so Ctrl-C reaches the server quickly (paper §1).
	ss := newSession(t, netem.LinkParams{
		Delay:          100 * time.Millisecond,
		RateBitsPerSec: 1_000_000,
		QueueBytes:     30_000,
	}, overlay.Never)
	ss.run(time.Second)

	flooding := true
	gotInterrupt := time.Time{}
	ss.hostScript = func(data []byte) {
		for _, b := range data {
			if b == 0x03 {
				flooding = false
				gotInterrupt = ss.sched.Now()
			}
		}
	}
	var flood func()
	flood = func() {
		if !flooding {
			return
		}
		ss.server.HostOutput([]byte(strings.Repeat("spam output line!\r\n", 20)))
		ss.wakeServer()
		ss.sched.AfterFunc(10*time.Millisecond, flood)
	}
	ss.sched.AfterFunc(0, flood)
	ss.run(2 * time.Second)

	sent := ss.client.UserBytes([]byte{0x03})
	_ = sent
	ss.wakeClient()
	start := ss.sched.Now()
	ss.run(3 * time.Second)
	if gotInterrupt.IsZero() {
		t.Fatal("Ctrl-C never reached the host")
	}
	if lat := gotInterrupt.Sub(start); lat > 500*time.Millisecond {
		t.Fatalf("Ctrl-C took %v; buffers must not delay input", lat)
	}
	// And the client's screen converges to the final server state.
	ss.run(3 * time.Second)
	if !ss.client.ServerState().Equal(ss.server.Terminal().Framebuffer()) {
		t.Fatal("screens did not converge after flood")
	}
}

func TestClientRoamingMidSession(t *testing.T) {
	ss := newSession(t, netem.LinkParams{Delay: 40 * time.Millisecond}, overlay.Never)
	ss.run(time.Second)
	ss.typeString("pre")
	ss.run(time.Second)

	newAddr := netem.Addr{Host: 99, Port: 4242}
	ss.net.Detach(ss.clientAddr)
	ss.clientAddr = newAddr
	ss.net.Attach(newAddr, func(p netem.Packet) { ss.client.Receive(p.Payload, p.Src) })

	ss.typeString("post")
	ss.run(2 * time.Second)
	if got := displayRow(ss, 0); got != "prepost" {
		t.Fatalf("after roam display = %q", got)
	}
	if ss.server.Transport().Connection().RemoteAddrChanges() != 1 {
		t.Fatal("server did not observe the roam")
	}
}

func TestResizePropagatesToServer(t *testing.T) {
	ss := newSession(t, netem.LinkParams{Delay: 30 * time.Millisecond}, overlay.Never)
	ss.run(time.Second)
	gotW, gotH := 0, 0
	ss.server.cfg.OnResize = func(w, h int) { gotW, gotH = w, h }
	ss.client.Resize(132, 43)
	ss.wakeClient()
	ss.run(2 * time.Second)
	if gotW != 132 || gotH != 43 {
		t.Fatalf("server saw resize %dx%d", gotW, gotH)
	}
	if fb := ss.server.Terminal().Framebuffer(); fb.W != 132 || fb.H != 43 {
		t.Fatalf("server terminal is %dx%d", fb.W, fb.H)
	}
	ss.run(2 * time.Second)
	if fb := ss.client.ServerState(); fb.W != 132 || fb.H != 43 {
		t.Fatalf("client screen is %dx%d", fb.W, fb.H)
	}
}

func TestIntermittentConnectivity(t *testing.T) {
	ss := newSession(t, netem.LinkParams{Delay: 40 * time.Millisecond}, overlay.Never)
	ss.run(time.Second)
	// Hard outage: detach the client (suspend / airplane mode).
	ss.net.Detach(ss.clientAddr)
	ss.typeString("typed-while-offline")
	ss.run(30 * time.Second)
	// Reattach; everything must flush.
	ss.net.Attach(ss.clientAddr, func(p netem.Packet) { ss.client.Receive(p.Payload, p.Src) })
	ss.run(15 * time.Second)
	if got := displayRow(ss, 0); got != "typed-while-offline" {
		t.Fatalf("after reconnect display = %q", got)
	}
}

func TestConnectivityBannerDuringOutage(t *testing.T) {
	ss := newSession(t, netem.LinkParams{Delay: 20 * time.Millisecond}, overlay.Never)
	ss.run(5 * time.Second) // at least one server heartbeat arrives
	if got := ss.client.Display().Text(0); strings.Contains(got, "Last contact") {
		t.Fatalf("banner while healthy: %q", got)
	}
	// Server goes dark.
	ss.net.Detach(ss.clientAddr)
	ss.run(15 * time.Second)
	if got := ss.client.Display().Text(0); !strings.Contains(got, "Last contact") {
		t.Fatalf("no banner after 15s outage: %q", got)
	}
	// Reconnect: the banner clears by the next heartbeat.
	ss.net.Attach(ss.clientAddr, func(p netem.Packet) { ss.client.Receive(p.Payload, p.Src) })
	ss.run(10 * time.Second)
	if got := ss.client.Display().Text(0); strings.Contains(got, "Last contact") {
		t.Fatalf("banner persisted after reconnect: %q", got)
	}
}

func TestHeavyLossSessionConverges(t *testing.T) {
	ss := newSession(t, netem.LinkParams{Delay: 50 * time.Millisecond, LossProb: 0.29}, overlay.Never)
	ss.run(time.Second)
	ss.typeString("survive 50% round-trip loss")
	ss.run(20 * time.Second)
	if got := displayRow(ss, 0); got != "survive 50% round-trip loss" {
		t.Fatalf("display = %q", got)
	}
}

func TestDatagramsStayUnderMTU(t *testing.T) {
	ss := newSession(t, netem.LinkParams{Delay: 20 * time.Millisecond}, overlay.Never)
	ss.run(time.Second)
	big := strings.Repeat("0123456789abcdef", 400) // 6.4 kB burst
	ss.server.HostOutput([]byte(big))
	ss.wakeServer()
	ss.run(2 * time.Second)
	stats := ss.path.Down.Stats()
	if stats.Sent == 0 {
		t.Fatal("no packets sent")
	}
	if !ss.client.ServerState().Equal(ss.server.Terminal().Framebuffer()) {
		t.Fatal("large burst did not converge")
	}
}

func TestSessionStatsExposed(t *testing.T) {
	ss := newSession(t, netem.LinkParams{Delay: 30 * time.Millisecond}, overlay.Adaptive)
	ss.run(time.Second)
	ss.typeString("abc")
	ss.run(2 * time.Second)
	if ss.client.Transport().Sender().Stats().Fragments == 0 {
		t.Fatal("client sent no datagrams")
	}
	if !ss.client.Transport().Connection().HaveRTT() {
		t.Fatal("no RTT estimate formed")
	}
	if ss.client.Predictions().Stats().InputEvents != 3 {
		t.Fatalf("prediction engine saw %d events", ss.client.Predictions().Stats().InputEvents)
	}
}

func TestServerAnswerback(t *testing.T) {
	ss := newSession(t, netem.LinkParams{Delay: 10 * time.Millisecond}, overlay.Never)
	ss.run(time.Second)
	ss.server.HostOutput([]byte("\x1b[6n"))
	if ab := ss.server.Answerback(); len(ab) == 0 {
		t.Fatal("no answerback after DSR")
	}
}

func TestDisplayIsACopy(t *testing.T) {
	ss := newSession(t, netem.LinkParams{Delay: 10 * time.Millisecond}, overlay.Never)
	ss.run(time.Second)
	d := ss.client.Display()
	c := d.Cell(0, 0)
	c.SetRune('X')
	d.SetCell(0, 0, c)
	if ss.client.ServerState().Cell(0, 0).ContentsString() == "X" {
		t.Fatal("Display returned the live state, not a copy")
	}
}

func TestManyKeystrokesOrderPreserved(t *testing.T) {
	ss := newSession(t, netem.LinkParams{Delay: 60 * time.Millisecond, LossProb: 0.1}, overlay.Never)
	ss.run(time.Second)
	var want strings.Builder
	for i := 0; i < 60; i++ {
		r := rune('a' + i%26)
		want.WriteRune(r)
		ss.client.TypeRune(r)
		ss.wakeClient()
		ss.run(23 * time.Millisecond)
	}
	ss.run(10 * time.Second)
	got := displayRow(ss, 0)
	if got != want.String() {
		t.Fatalf("keystroke order corrupted:\n got %q\nwant %q", got, want.String())
	}
}

func TestFigureStyleLatencySample(t *testing.T) {
	// Smoke-test the measurement pattern the benchmark harness uses:
	// keystroke → prediction record → outcome.
	ss := newSession(t, netem.LinkParams{Delay: 250 * time.Millisecond}, overlay.Adaptive)
	ss.run(2 * time.Second)
	ss.typeString("ab") // warm-up epoch confirmation
	ss.run(3 * time.Second)
	typedAt := ss.sched.Now()
	seq := ss.client.TypeRune('c')
	ss.wakeClient()
	ss.run(5 * time.Second)
	rec, ok := ss.client.Predictions().TakeInputRecord(seq)
	if !ok {
		t.Fatal("no input record")
	}
	if !rec.Displayed {
		t.Fatalf("keystroke was not displayed speculatively: %+v", rec)
	}
	if rec.Outcome != overlay.OutcomeCorrect {
		t.Fatalf("outcome = %v", rec.Outcome)
	}
	if lat := rec.DisplayedAt.Sub(typedAt); lat > 10*time.Millisecond {
		t.Fatalf("speculative display latency = %v", lat)
	}
}

func BenchmarkSessionKeystroke(b *testing.B) {
	sched := simclock.NewScheduler(t0)
	net := netem.NewNetwork(sched)
	path := netem.NewPath(net, netem.LinkParams{Delay: 20 * time.Millisecond}, 3)
	key := sspcrypto.Key{7}
	serverAddr := netem.Addr{Host: 2, Port: 60001}
	clientAddr := netem.Addr{Host: 1, Port: 1000}

	var server *Server
	var client *Client
	server, _ = NewServer(ServerConfig{
		Key: key, Clock: sched,
		Emit: func(wire []byte) {
			if dst, ok := server.Transport().Connection().RemoteAddr(); ok {
				path.Down.Send(netem.Packet{Src: serverAddr, Dst: dst, Payload: wire})
			}
		},
		HostInput: func(data []byte) { server.HostOutput(data) },
	})
	client, _ = NewClient(ClientConfig{
		Key: key, Clock: sched, Predictions: overlay.Adaptive,
		Emit: func(wire []byte) {
			path.Up.Send(netem.Packet{Src: clientAddr, Dst: serverAddr, Payload: wire})
		},
	})
	net.Attach(serverAddr, func(p netem.Packet) { server.Receive(p.Payload, p.Src) })
	net.Attach(clientAddr, func(p netem.Packet) { client.Receive(p.Payload, p.Src) })
	wakeClient := Pump(sched, client)
	Pump(sched, server)
	sched.RunFor(time.Second)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		client.TypeRune(rune('a' + i%26))
		wakeClient()
		sched.RunFor(60 * time.Millisecond)
	}
}

func (ss *session) String() string {
	return fmt.Sprintf("session@%v", ss.sched.Now().Sub(t0))
}

// TestServerWaitTimeFollowsNextDeadline: WaitTime is NextDeadline less the
// current time, and NextDeadline includes the echo timeout of a keystroke
// the transport itself has nothing left to send for.
func TestServerWaitTimeFollowsNextDeadline(t *testing.T) {
	ss := newSession(t, netem.LinkParams{Delay: 2 * time.Millisecond}, overlay.Never)
	ss.hostEcho = false // no host output: the echo timeout is the server's only near deadline
	var arrived time.Time
	ss.hostScript = func([]byte) { arrived = ss.sched.Now() }
	ss.run(time.Second)
	ss.client.TypeRune('x')
	ss.wakeClient()
	sawEchoDeadline := false
	for i := 0; i < 400; i++ {
		ss.run(250 * time.Microsecond)
		now := ss.sched.Now()
		at, _ := ss.server.NextDeadline()
		wait := ss.server.WaitTime()
		if want := max(at.Sub(now), 0); wait != want {
			t.Fatalf("at +%v: WaitTime %v, NextDeadline is %v away", now.Sub(t0), wait, want)
		}
		if echoAt := arrived.Add(DefaultEchoAckTimeout); !arrived.IsZero() && now.Before(echoAt) {
			if at.After(echoAt) {
				t.Fatalf("at +%v: NextDeadline %v is past the pending echo timeout %v", now.Sub(t0), at.Sub(t0), echoAt.Sub(t0))
			}
			sawEchoDeadline = sawEchoDeadline || at.Equal(echoAt)
		}
	}
	if !sawEchoDeadline {
		t.Fatal("the echo timeout was never the server's next deadline")
	}
}
