package sessiond_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/netem"
	"repro/internal/network"
	"repro/internal/overlay"
	"repro/internal/sessiond"
	"repro/internal/simclock"
	"repro/internal/sspcrypto"
	"repro/internal/telemetry"
	"repro/internal/terminal"
)

var epoch = time.Date(2012, 4, 1, 0, 0, 0, 0, time.UTC)

// simWorld is a virtual-time world with one daemon behind one address and
// any number of clients, each on its own emulated path.
type simWorld struct {
	t          *testing.T
	sched      *simclock.Scheduler
	nw         *netem.Network
	d          *sessiond.Daemon
	wake       func()
	daemonAddr netem.Addr
	paths      map[netem.Addr]*netem.Path
	params     netem.LinkParams
	seed       int64
	// tap, when set, sees every datagram the daemon sends, as sent.
	tap func(dst netem.Addr, wire []byte)
	// cfg and lim build each daemon incarnation (see restart).
	cfg sessiond.Config
	lim []sessiond.Limit
}

func newSimWorld(t *testing.T, cfg sessiond.Config, params netem.LinkParams, lim ...sessiond.Limit) *simWorld {
	t.Helper()
	w := &simWorld{
		t:          t,
		sched:      simclock.NewScheduler(epoch),
		daemonAddr: netem.Addr{Host: 9999, Port: 60001},
		paths:      make(map[netem.Addr]*netem.Path),
		params:     params,
		seed:       1,
	}
	w.nw = netem.NewNetwork(w.sched)
	cfg.Clock = w.sched
	cfg.Send = func(dst netem.Addr, wire []byte) {
		if w.tap != nil {
			w.tap(dst, wire)
		}
		if p := w.paths[dst]; p != nil {
			p.Down.Send(netem.Packet{Src: w.daemonAddr, Dst: dst, Payload: wire})
		}
	}
	w.cfg, w.lim = cfg, lim
	w.boot()
	w.nw.Attach(w.daemonAddr, func(p netem.Packet) {
		w.d.HandlePacket(p.Payload, p.Src)
		w.wake()
	})
	return w
}

// boot starts a daemon incarnation on the world's socket address.
func (w *simWorld) boot() {
	w.t.Helper()
	var err error
	w.d, err = sessiond.NewWithLimits(w.cfg, w.lim...)
	if err != nil {
		w.t.Fatal(err)
	}
	w.wake = w.d.Pump(w.sched)
}

// restart closes the daemon, which flushes its journal to cfg.StateDir, and
// boots the next incarnation from it on the same address, as a frontend
// restart does. The clients stay as they are.
func (w *simWorld) restart() {
	w.t.Helper()
	w.d.Close()
	w.boot()
}

// simClient is one emulated Mosh client attached to the daemon's socket.
type simClient struct {
	w    *simWorld
	cl   *core.Client
	addr netem.Addr
	path *netem.Path
	wake func()
	// dead silences the client's uplink (a user who closed the laptop);
	// its session goes idle from the daemon's point of view.
	dead bool
}

func (w *simWorld) addClient(sess *sessiond.Session, addr netem.Addr) *simClient {
	w.t.Helper()
	c := &simClient{w: w, addr: addr}
	w.seed++
	c.path = netem.NewPath(w.nw, w.params, w.seed)
	w.paths[addr] = c.path
	var err error
	c.cl, err = core.NewClient(core.ClientConfig{
		Key:         sess.Key(),
		Clock:       w.sched,
		Envelope:    &network.Envelope{ID: sess.ID},
		Predictions: overlay.Never,
		Emit: func(wire []byte) {
			if c.dead {
				return
			}
			c.path.Up.Send(netem.Packet{Src: c.addr, Dst: w.daemonAddr, Payload: wire})
		},
	})
	if err != nil {
		w.t.Fatal(err)
	}
	c.wake = core.Pump(w.sched, c.cl)
	w.nw.Attach(addr, func(p netem.Packet) {
		c.cl.Receive(p.Payload, p.Src)
		c.wake()
	})
	return c
}

// roamTo moves the client to a new source address mid-session, as a mobile
// client changing networks does.
func (c *simClient) roamTo(addr netem.Addr) {
	c.w.nw.Detach(c.addr)
	delete(c.w.paths, c.addr)
	c.addr = addr
	c.w.paths[addr] = c.path
	c.w.nw.Attach(addr, func(p netem.Packet) {
		c.cl.Receive(p.Payload, p.Src)
		c.wake()
	})
}

func (c *simClient) typeString(s string) {
	for i := 0; i < len(s); i++ {
		c.cl.UserBytes([]byte{s[i]})
	}
	c.wake()
}

// screenText renders the client's reconstructed screen as one string.
func (c *simClient) screenText() string {
	fb := c.cl.ServerState()
	out := ""
	for i := 0; i < fb.H; i++ {
		out += fb.Text(i) + "\n"
	}
	return out
}

// runUntil steps virtual time until pred holds, failing after limit.
func (w *simWorld) runUntil(limit time.Duration, pred func() bool, what string) {
	w.t.Helper()
	deadline := w.sched.Now().Add(limit)
	for !pred() {
		if !w.sched.Now().Before(deadline) {
			w.t.Fatalf("timeout (%v) waiting for %s", limit, what)
		}
		w.sched.RunFor(5 * time.Millisecond)
	}
}

func lan() netem.LinkParams { return netem.LinkParams{Delay: 2 * time.Millisecond, Overhead: 28} }

func shellApp(id uint64) host.App { return host.NewShell(int64(id)) }

func TestDaemonRunsIndependentSessions(t *testing.T) {
	w := newSimWorld(t, sessiond.Config{NewApp: shellApp}, lan())
	sa, err := w.d.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := w.d.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	if sa.ID == sb.ID {
		t.Fatalf("duplicate session IDs: %d", sa.ID)
	}
	ca := w.addClient(sa, netem.Addr{Host: 1, Port: 1001})
	cb := w.addClient(sb, netem.Addr{Host: 2, Port: 1002})
	w.sched.RunFor(2 * time.Second) // connect + RTT warmup

	ca.typeString("alpha")
	cb.typeString("bravo")
	w.runUntil(5*time.Second, func() bool {
		return ca.cl.ServerState().Text(0) == "user@remote:~$ alpha"+spaces(80-20) &&
			cb.cl.ServerState().Text(0) == "user@remote:~$ bravo"+spaces(80-20)
	}, "both sessions to echo their own input")

	if w.d.Metrics().SessionsLive.Value() != 2 {
		t.Fatalf("SessionsLive = %d, want 2", w.d.Metrics().SessionsLive.Value())
	}
	m := w.d.Metrics()
	if m.PacketsIn.Value() == 0 || m.PacketsOut.Value() == 0 {
		t.Fatalf("no traffic recorded: in=%d out=%d", m.PacketsIn.Value(), m.PacketsOut.Value())
	}
}

func spaces(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = ' '
	}
	return string(b)
}

// TestRoamingUnderMultiplexer is the satellite scenario: two sessions on
// one socket; one client changes source address mid-session. Its replies
// must follow the new address while the other session's reply target stays
// untouched.
func TestRoamingUnderMultiplexer(t *testing.T) {
	w := newSimWorld(t, sessiond.Config{NewApp: shellApp}, lan())
	sa, _ := w.d.OpenSession()
	sb, _ := w.d.OpenSession()
	aHome := netem.Addr{Host: 10, Port: 1001}
	bHome := netem.Addr{Host: 20, Port: 2002}
	ca := w.addClient(sa, aHome)
	cb := w.addClient(sb, bHome)
	w.sched.RunFor(2 * time.Second)

	ca.typeString("one")
	cb.typeString("two")
	w.runUntil(5*time.Second, func() bool {
		return ca.cl.ServerState().Text(0)[:18] == "user@remote:~$ one" &&
			cb.cl.ServerState().Text(0)[:18] == "user@remote:~$ two"
	}, "initial echoes")

	remoteOf := func(s *sessiond.Session) netem.Addr {
		var a netem.Addr
		s.Do(func(srv *core.Server) { a, _ = srv.Transport().Connection().RemoteAddr() })
		return a
	}
	if got := remoteOf(sa); got != aHome {
		t.Fatalf("session A reply target = %v, want %v", got, aHome)
	}
	if got := remoteOf(sb); got != bHome {
		t.Fatalf("session B reply target = %v, want %v", got, bHome)
	}

	// A roams to a new network; B stays put.
	aRoam := netem.Addr{Host: 77, Port: 4444}
	ca.roamTo(aRoam)
	ca.typeString("x")
	w.runUntil(5*time.Second, func() bool { return remoteOf(sa) == aRoam }, "A's replies to follow the roam")

	if got := remoteOf(sb); got != bHome {
		t.Fatalf("B's reply target moved to %v after A roamed; want %v untouched", got, bHome)
	}
	// A must still converge at the new address (replies actually arrive).
	w.runUntil(5*time.Second, func() bool {
		return ca.cl.ServerState().Text(0)[:19] == "user@remote:~$ onex"
	}, "A to keep converging after roaming")
	if w.d.Metrics().RoamingEvents.Value() < 1 {
		t.Fatalf("roaming event not counted: roaming_events = %d", w.d.Metrics().RoamingEvents.Value())
	}
	// And B's session still works.
	cb.typeString("y")
	w.runUntil(5*time.Second, func() bool {
		return cb.cl.ServerState().Text(0)[:19] == "user@remote:~$ twoy"
	}, "B to keep working")
}

func TestIdleEviction(t *testing.T) {
	w := newSimWorld(t, sessiond.Config{NewApp: shellApp, IdleTimeout: 2 * time.Second}, lan())
	sa, _ := w.d.OpenSession()
	sb, _ := w.d.OpenSession()
	sc, _ := w.d.OpenSession()
	ca := w.addClient(sa, netem.Addr{Host: 1, Port: 1001})
	cb := w.addClient(sb, netem.Addr{Host: 2, Port: 1002})
	// Session C is a pre-issued slot nobody ever redeems: it must wait
	// indefinitely, never idle-evicted.

	// B connects and types once, then vanishes (laptop closed).
	cb.typeString("b")
	w.sched.RunFor(500 * time.Millisecond)
	cb.dead = true

	// Keep A warm well past B's eviction horizon.
	for i := 0; i < 8; i++ {
		ca.typeString("k")
		w.sched.RunFor(700 * time.Millisecond)
	}
	if w.d.Lookup(sb.ID) != nil {
		t.Fatal("silent session B was not evicted")
	}
	if got := w.d.Metrics().SessionsEvicted.Value(); got != 1 {
		t.Fatalf("SessionsEvicted = %d, want 1", got)
	}
	if w.d.Lookup(sa.ID) == nil {
		t.Fatal("active session A was evicted")
	}
	if w.d.Lookup(sc.ID) == nil {
		t.Fatal("never-redeemed session C was evicted; pre-issued slots must wait indefinitely")
	}
	if w.d.Metrics().SessionsLive.Value() != 2 {
		t.Fatalf("SessionsLive = %d, want 2 (A active, C waiting)", w.d.Metrics().SessionsLive.Value())
	}
}

func TestCapacityAndClose(t *testing.T) {
	w := newSimWorld(t, sessiond.Config{Capacity: 2}, lan())
	s1, err := w.d.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.d.OpenSession(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.d.OpenSession(); err != sessiond.ErrCapacity {
		t.Fatalf("third OpenSession: err=%v, want ErrCapacity", err)
	}
	w.d.CloseSession(s1.ID)
	if w.d.Metrics().SessionsLive.Value() != 1 {
		t.Fatalf("SessionsLive = %d after close, want 1", w.d.Metrics().SessionsLive.Value())
	}
	if _, err := w.d.OpenSession(); err != nil {
		t.Fatalf("OpenSession after close: %v", err)
	}
}

// queryApp is a host application that asks the terminal for its device
// attributes (DA) on start, answers a keystroke by asking for its cursor
// position and its device attributes (DSR 6 and DA) n times, and prints
// "done" once it has read every reply back.
type queryApp struct {
	n       int
	replies int
}

func (a *queryApp) Start() []byte { return []byte("\x1b[c") }

func (a *queryApp) Input(data []byte) ([]byte, time.Duration) {
	if data[0] != 0x1b { // the keystroke
		return bytes.Repeat([]byte("\x1b[6n\x1b[c"), a.n), time.Millisecond
	}
	a.replies += bytes.Count(data, []byte("\x1b["))
	if a.replies == 2*a.n+1 {
		return []byte("done"), time.Millisecond
	}
	return nil, 0
}

// TestAnswerbackReachesTheHost: the terminal's replies to a host's queries
// go back to the host as input, as a pty's would, instead of piling up in
// the session. They are not keystrokes: the one typed key is the only
// keystroke recorded, and its echo the only echo.
func TestAnswerbackReachesTheHost(t *testing.T) {
	app := &queryApp{n: 10000}
	w := newSimWorld(t, sessiond.Config{NewApp: func(uint64) host.App { return app }}, lan())
	s, err := w.d.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	if app.replies != 1 {
		t.Fatalf("the host read %d replies to its start screen's query, want 1", app.replies)
	}
	c := w.addClient(s, netem.Addr{Host: 1, Port: 1001})
	w.sched.RunFor(2 * time.Second)
	c.typeString("q")
	w.runUntil(5*time.Second, func() bool { return strings.HasPrefix(c.cl.ServerState().Text(0), "done") },
		"the host to read every reply and say so")
	if app.replies != 2*app.n+1 {
		t.Fatalf("the host read %d replies, want %d", app.replies, 2*app.n+1)
	}
	var held int
	s.Do(func(srv *core.Server) { held = len(srv.Answerback()) })
	if held != 0 {
		t.Fatalf("the session still holds %d bytes of replies", held)
	}
	keys, echoes := 0, 0
	for _, ev := range w.d.FlightRecorder().Snapshot() {
		switch ev.Code {
		case telemetry.EvKeystroke:
			keys++
		case telemetry.EvEcho:
			echoes++
		}
	}
	if keys != 1 || echoes != 1 {
		t.Fatalf("flight recorder has %d keystrokes and %d echoes, want 1 and 1", keys, echoes)
	}
}

// TestDropAccounting: every datagram the daemon refuses is counted under the
// reason it was refused. A malformed session-ID envelope (empty, overlong,
// or non-minimal, an authentic datagram's included) is dropped before any
// key opens it, and a non-minimal sequence header is refused by the
// session's header parser, so a datagram has one wire form, and no refused
// one moves the session's reply target or replay floor.
func TestDropAccounting(t *testing.T) {
	w := newSimWorld(t, sessiond.Config{NewApp: shellApp}, lan())
	s, _ := w.d.OpenSession()
	m := w.d.Metrics()

	// Malformed envelopes: empty, overlong (more than 10 bytes) and
	// non-minimal (session 1 as two bytes).
	for i, wire := range [][]byte{
		{},
		bytes.Repeat([]byte{0xff}, 11),
		{0x81, 0x00, 1, 2, 3},
	} {
		w.d.HandlePacket(wire, netem.Addr{Host: 5})
		if m.DropsBadEnvelope.Value() != int64(i+1) {
			t.Fatalf("DropsBadEnvelope = %d, want %d", m.DropsBadEnvelope.Value(), i+1)
		}
	}
	// Valid envelope, no such session.
	w.d.HandlePacket(network.AppendEnvelope(nil, 0xdead), netem.Addr{Host: 5})
	if m.DropsUnknownSession.Value() != 1 {
		t.Fatalf("DropsUnknownSession = %d, want 1", m.DropsUnknownSession.Value())
	}
	// Valid envelope for a live session, garbage ciphertext: the key says no.
	junk := append(network.AppendEnvelope(nil, s.ID), make([]byte, 64)...)
	w.d.HandlePacket(junk, netem.Addr{Host: 5})
	if m.DropsAuth.Value() != 1 {
		t.Fatalf("DropsAuth = %d, want 1", m.DropsAuth.Value())
	}
	// An authentic client datagram whose envelope is re-encoded
	// non-minimally is refused before any key sees it.
	var sent [][]byte
	cl, err := core.NewClient(core.ClientConfig{
		Key: s.Key(), Clock: w.sched, Envelope: &network.Envelope{ID: s.ID},
		Emit: func(wire []byte) { sent = append(sent, bytes.Clone(wire)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	core.Pump(w.sched, cl)()
	w.sched.RunFor(100 * time.Millisecond)
	if len(sent) == 0 {
		t.Fatal("the client sent nothing")
	}
	id, inner, err := network.ParseEnvelope(sent[0])
	if err != nil || id != s.ID || id >= 0x80 {
		t.Fatalf("client envelope %d, %v; want session %d in one byte", id, err, s.ID)
	}
	nonMinimal := append([]byte{byte(id) | 0x80, 0x00}, inner...)
	w.d.HandlePacket(nonMinimal, netem.Addr{Host: 6})
	if m.DropsBadEnvelope.Value() != 4 || m.DropsAuth.Value() != 1 {
		t.Fatalf("DropsBadEnvelope = %d, DropsAuth = %d; want 4 and 1", m.DropsBadEnvelope.Value(), m.DropsAuth.Value())
	}
	// The same datagram under its minimal envelope but with its sequence
	// header re-encoded non-minimally reaches the session, whose header
	// parser refuses it: one more receive failure.
	dir, seq, sealed, err := sspcrypto.ParseSeqHeader(inner)
	if err != nil || dir != sspcrypto.ToServer || len(inner)-len(sealed) != 1 {
		t.Fatalf("client sequence header %v %d of %d B, %v; want one byte", dir, seq, len(inner)-len(sealed), err)
	}
	paddedSeq := append(network.AppendEnvelope(nil, id), inner[0]|0x80, 0x00)
	w.d.HandlePacket(append(paddedSeq, sealed...), netem.Addr{Host: 7})
	if m.DropsBadEnvelope.Value() != 4 || m.DropsAuth.Value() != 2 {
		t.Fatalf("DropsBadEnvelope = %d, DropsAuth = %d; want 4 and 2", m.DropsBadEnvelope.Value(), m.DropsAuth.Value())
	}
	// Neither the spoofed envelope (wrong session's ID on another key's
	// packet) nor the non-minimal envelope or sequence header may roam the
	// session: the reply target stays unset, and no datagram was accepted.
	s.Do(func(srv *core.Server) {
		conn := srv.Transport().Connection()
		if _, ok := conn.RemoteAddr(); ok {
			t.Fatal("inauthentic packet set a reply target")
		}
		if conn.ExpectedSeq() != 0 {
			t.Fatalf("a refused datagram was opened: replay floor %d", conn.ExpectedSeq())
		}
	})
	// The same datagram under its minimal envelope is authentic.
	w.d.HandlePacket(sent[0], netem.Addr{Host: 6})
	s.Do(func(srv *core.Server) {
		if a, ok := srv.Transport().Connection().RemoteAddr(); !ok || a != (netem.Addr{Host: 6}) {
			t.Fatalf("reply target %v, %v after the authentic datagram", a, ok)
		}
	})
}

// expectedSingleSessionFrame runs the same application and keystrokes
// through a plain single-session SSP pair (no daemon, no envelope) in
// virtual time and returns the client's converged screen rendered to
// bytes. This is the baseline daemon sessions must match byte for byte.
func expectedSingleSessionFrame(t *testing.T, appSeed int64, script string) []byte {
	t.Helper()
	sched := simclock.NewScheduler(epoch)
	nw := netem.NewNetwork(sched)
	path := netem.NewPath(nw, netem.LinkParams{Delay: 2 * time.Millisecond, Overhead: 28}, 42)
	clientAddr := netem.Addr{Host: 1, Port: 1001}
	serverAddr := netem.Addr{Host: 2, Port: 60001}
	key := sspcrypto.Key{byte(appSeed), 0x77}

	app := host.NewShell(appSeed)
	var server *core.Server
	var wakeServer func()
	var lastAt time.Time
	server, err := core.NewServer(core.ServerConfig{
		Key: key, Clock: sched,
		Emit: func(wire []byte) {
			if dst, ok := server.Transport().Connection().RemoteAddr(); ok {
				path.Down.Send(netem.Packet{Src: serverAddr, Dst: dst, Payload: wire})
			}
		},
		HostInput: func(data []byte) {
			out, delay := app.Input(data)
			if len(out) == 0 {
				return
			}
			at := sched.Now().Add(delay)
			if at.Before(lastAt) {
				at = lastAt
			}
			lastAt = at
			d := out
			sched.At(at, func() { server.HostOutput(d); wakeServer() })
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	server.HostOutput(app.Start())

	var client *core.Client
	client, err = core.NewClient(core.ClientConfig{
		Key: key, Clock: sched, Predictions: overlay.Never,
		Emit: func(wire []byte) {
			path.Up.Send(netem.Packet{Src: clientAddr, Dst: serverAddr, Payload: wire})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wakeClient := core.Pump(sched, client)
	wakeServer = core.Pump(sched, server)
	nw.Attach(serverAddr, func(p netem.Packet) { server.Receive(p.Payload, p.Src); wakeServer() })
	nw.Attach(clientAddr, func(p netem.Packet) { client.Receive(p.Payload, p.Src); wakeClient() })

	sched.RunFor(time.Second)
	for i := 0; i < len(script); i++ {
		client.UserBytes([]byte{script[i]})
	}
	wakeClient()
	// First wait for every keystroke to reach the host application, then
	// for the host's responses to flush, then for screens to converge —
	// otherwise the trivially-equal initial state satisfies Equal before
	// any input has round-tripped.
	deadline := sched.Now().Add(30 * time.Second)
	for server.Transport().RemoteState().Size() < uint64(len(script)) {
		if !sched.Now().Before(deadline) {
			t.Fatal("baseline session never delivered all input")
		}
		sched.RunFor(5 * time.Millisecond)
	}
	sched.RunFor(2 * time.Second) // host think-time responses flush
	for !client.ServerState().Equal(server.Terminal().Framebuffer()) {
		if !sched.Now().Before(deadline) {
			t.Fatal("baseline session never converged")
		}
		sched.RunFor(5 * time.Millisecond)
	}
	return terminal.NewFrame(false, nil, client.ServerState())
}

func TestManySessionsMatchSingleSessionBaseline(t *testing.T) {
	// Virtual-time version of the equivalence claim at a modest scale; the
	// race test (race_test.go) does the 200-session concurrent version.
	const n = 32
	const profiles = 4
	w := newSimWorld(t, sessiond.Config{
		NewApp: func(id uint64) host.App { return host.NewShell(int64(id % profiles)) },
	}, lan())

	expect := make([][]byte, profiles)
	for p := 0; p < profiles; p++ {
		expect[p] = expectedSingleSessionFrame(t, int64(p), fmt.Sprintf("run job %d\r", p))
	}

	clients := make([]*simClient, n)
	sessions := make([]*sessiond.Session, n)
	for i := 0; i < n; i++ {
		s, err := w.d.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
		clients[i] = w.addClient(s, netem.Addr{Host: uint32(100 + i), Port: uint16(1000 + i)})
	}
	w.sched.RunFor(2 * time.Second)
	for i, c := range clients {
		c.typeString(fmt.Sprintf("run job %d\r", sessions[i].ID%profiles))
	}
	for i, c := range clients {
		want := expect[sessions[i].ID%profiles]
		w.runUntil(20*time.Second, func() bool {
			return string(terminal.NewFrame(false, nil, c.cl.ServerState())) == string(want)
		}, fmt.Sprintf("session %d to match the single-session baseline frame", sessions[i].ID))
	}
}
