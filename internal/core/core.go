// Package core assembles the Mosh session endpoints from the layers below:
// SSP (internal/network + internal/transport) synchronizing the two state
// objects (internal/statesync), the server-side terminal emulator
// (internal/terminal), and the client-side prediction engine
// (internal/overlay).
//
// Both endpoints are IO-free, single-threaded state machines with the same
// driving contract as the transport layer: call Receive when a datagram
// arrives, call Tick after local activity or when WaitTime elapses. The
// benchmark harness drives them in virtual time over internal/netem; the
// cmd/mosh-server and cmd/mosh-client binaries drive them from goroutines
// over real UDP sockets.
package core

import (
	"slices"
	"time"

	"repro/internal/netem"
	"repro/internal/network"
	"repro/internal/overlay"
	"repro/internal/simclock"
	"repro/internal/sspcrypto"
	"repro/internal/statesync"
	"repro/internal/telemetry"
	"repro/internal/terminal"
	"repro/internal/transport"
)

// DefaultEchoAckTimeout is the paper's server-side echo timeout: a
// keystroke is "echo-acknowledged" once it has been presented to the host
// application for 50 ms, chosen to contain the vast majority of legitimate
// application echoes while still detecting mistaken predictions fast
// (§3.2).
const DefaultEchoAckTimeout = 50 * time.Millisecond

// ServerConfig parameterizes a Server.
type ServerConfig struct {
	// Key is the pre-shared session key (printed by the bootstrap).
	Key sspcrypto.Key
	// Clock drives all timing.
	Clock simclock.Clock
	// Width, Height size the initial terminal.
	Width, Height int
	// Timing overrides SSP timing field by field (zero fields: the paper's
	// defaults, and DefaultEchoAckTimeout).
	Timing transport.Timing
	// Envelope enables the sessiond session-ID envelope (nil = plain
	// single-session wire format).
	Envelope *network.Envelope
	// Emit transmits one sealed datagram toward the client.
	Emit func(wire []byte)
	// RecycleWire declares Emit non-retaining so wire buffers are reused
	// (see transport.Config.RecycleWire).
	RecycleWire bool
	// HostInput delivers decoded user keystrokes to the host application
	// (a pty in production, a scripted application model in benches).
	HostInput func(data []byte)
	// OnResize reports window-size changes (to forward to the pty).
	OnResize func(w, h int)
	// Resume, when non-nil, restores the endpoint from a session-journal
	// snapshot instead of starting a fresh session (sessiond restart).
	Resume *ServerResume
	// Probe, when non-nil, receives per-stage latency observations from
	// the transport and datagram layers (see transport.Config.Probe).
	Probe *telemetry.Pipeline
}

// ServerResume carries the durable core of a server endpoint across a
// process restart. All counters must come from a journal whose reservation
// rules guarantee they exceed anything the dead process put on the wire
// (see internal/sessiond's journal writer).
type ServerResume struct {
	// Current is the restored live screen state.
	Current *statesync.Complete
	// Baseline is the agreed initial screen (state number 0: blank, at the
	// session's original dimensions) the resume repaint diffs from.
	Baseline *statesync.Complete
	// Stream is the restored user-input stream, positioned at the persisted
	// event count; its events were already delivered to the application.
	Stream *statesync.UserStream
	// Resume holds the counters. Its RemoteAddr optionally seeds the reply
	// target so heartbeats and the resume repaint flow before the client
	// next speaks.
	transport.Resume
}

type echoEntry struct {
	num uint64
	at  time.Time
}

// Server is the Mosh server endpoint: it owns the authoritative terminal,
// applies user input arriving via SSP, and synchronizes the screen state
// back to the client.
type Server struct {
	cfg ServerConfig
	tr  *transport.Transport[*statesync.Complete, *statesync.UserStream]

	processedEvents uint64
	echoQueue       []echoEntry
	pendingEchoAck  uint64
	haveEchoUpdate  bool
}

// NewServer builds a server endpoint.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Timing.EchoAckTimeout == 0 {
		cfg.Timing.EchoAckTimeout = DefaultEchoAckTimeout
	}
	if cfg.Width == 0 {
		cfg.Width = 80
	}
	if cfg.Height == 0 {
		cfg.Height = 24
	}
	trCfg := transport.Config[*statesync.Complete, *statesync.UserStream]{
		Direction:     sspcrypto.ToClient,
		Key:           cfg.Key,
		Clock:         cfg.Clock,
		Timing:        cfg.Timing,
		Envelope:      cfg.Envelope,
		LocalInitial:  statesync.NewComplete(cfg.Width, cfg.Height),
		RemoteInitial: statesync.NewUserStream(),
		Emit:          cfg.Emit,
		RecycleWire:   cfg.RecycleWire,
		Probe:         cfg.Probe,
	}
	if rs := cfg.Resume; rs != nil {
		trCfg.LocalInitial = rs.Current
		trCfg.LocalBaseline = rs.Baseline
		trCfg.RemoteInitial = rs.Stream
		trCfg.Resume = &rs.Resume
	}
	tr, err := transport.New(trCfg)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, tr: tr}
	if rs := cfg.Resume; rs != nil {
		// The restored stream's events were delivered by the previous
		// incarnation; delivery resumes after its persisted size.
		s.processedEvents = rs.Stream.Size()
	}
	return s, nil
}

// Transport exposes the SSP endpoint (stats, RTT, roaming target).
func (s *Server) Transport() *transport.Transport[*statesync.Complete, *statesync.UserStream] {
	return s.tr
}

// Terminal exposes the authoritative terminal state.
func (s *Server) Terminal() *terminal.Emulator {
	return s.tr.CurrentState().Terminal()
}

// Receive processes one datagram from the client at src. New user input is
// decoded and delivered to the host application exactly once, and queued
// for echo acknowledgment.
func (s *Server) Receive(wire []byte, src netem.Addr) error {
	isNew, err := s.tr.Receive(wire, src)
	if err != nil || !isNew {
		return err
	}
	stream := s.tr.RemoteState()
	now := s.cfg.Clock.Now()
	for _, ev := range stream.EventsSince(s.processedEvents) {
		switch ev.Type {
		case statesync.EventBytes:
			if s.cfg.HostInput != nil {
				s.cfg.HostInput(ev.Data)
			}
		case statesync.EventResize:
			s.Terminal().Resize(ev.W, ev.H)
			if s.cfg.OnResize != nil {
				s.cfg.OnResize(ev.W, ev.H)
			}
		}
	}
	s.processedEvents = stream.Size()
	s.echoQueue = append(s.echoQueue, echoEntry{num: s.tr.RemoteStateNum(), at: now})
	s.Tick()
	return nil
}

// HostOutput interprets host application output, written now, onto the
// terminal and wakes the transport (which will wait out the collection
// interval before sending a frame).
func (s *Server) HostOutput(data []byte) { s.HostOutputAt(data, s.cfg.Clock.Now()) }

// HostOutputAt is HostOutput for an event loop that read the clock when the
// host's write woke it: the collection interval counts from at, the write,
// and not from the moment the emulator has finished interpreting it.
func (s *Server) HostOutputAt(data []byte, at time.Time) {
	s.Terminal().Write(data)
	s.tr.TickChangedAt(at)
}

// Prepare lets the transport build the next frame ahead of its send
// deadline (transport.Transport.Prepare), and reports whether it did. What
// the server knows and the transport cannot is that a queued keystroke's
// echo timeout will change the screen state too: a frame due after the next
// one would be overtaken by it, and is not built until that has passed.
func (s *Server) Prepare() bool {
	var quietUntil time.Time
	if len(s.echoQueue) > 0 {
		quietUntil = s.echoQueue[0].at.Add(s.cfg.Timing.EchoAckTimeout)
	}
	return s.tr.Prepare(quietUntil)
}

// Answerback drains terminal→host reports (cursor position queries and the
// like) that the caller must feed back to the host application.
func (s *Server) Answerback() []byte { return s.Terminal().TakeAnswerback() }

// Tick advances the echo-ack clock and the transport.
func (s *Server) Tick() {
	now := s.cfg.Clock.Now()
	due := 0
	for due < len(s.echoQueue) && now.Sub(s.echoQueue[due].at) >= s.cfg.Timing.EchoAckTimeout {
		s.pendingEchoAck = s.echoQueue[due].num
		s.haveEchoUpdate = true
		due++
	}
	// Compact in place: a sliding s.echoQueue[1:] walks off its backing
	// array and makes every later append reallocate.
	s.echoQueue = slices.Delete(s.echoQueue, 0, due)
	if s.haveEchoUpdate {
		// Dirtying the state triggers the "extra datagram ~50 ms after a
		// keystroke" the paper describes.
		s.tr.CurrentState().SetEchoAck(s.pendingEchoAck)
		s.haveEchoUpdate = false
	}
	s.tr.Tick()
}

// NextDeadline reports the instant Tick is next needed: the transport's
// deadline or the oldest queued keystroke's echo timeout, whichever is
// earlier. It is absolute — an event loop that arms it does not inherit the
// time the caller spent between its own clock reading and this call, as it
// would by adding WaitTime to that reading. ok is false when there is none: a
// server no client has contacted yet has nothing to do on a timer (see
// transport.Transport.NextDeadline), and its event loop arms nothing.
func (s *Server) NextDeadline() (at time.Time, ok bool) {
	if at, ok = s.tr.NextDeadline(); !ok {
		return at, false // and no keystroke is queued: none has been heard
	}
	if len(s.echoQueue) > 0 {
		if echo := s.echoQueue[0].at.Add(s.cfg.Timing.EchoAckTimeout); echo.Before(at) {
			at = echo
		}
	}
	return at, true
}

// WaitTime reports how long the event loop may sleep before calling Tick:
// NextDeadline less the current time, never negative, and
// transport.NoDeadline when there is none.
func (s *Server) WaitTime() time.Duration {
	at, ok := s.NextDeadline()
	if !ok {
		return transport.NoDeadline
	}
	if d := at.Sub(s.cfg.Clock.Now()); d > 0 {
		return d
	}
	return 0
}

// ClientConfig parameterizes a Client.
type ClientConfig struct {
	// Key is the pre-shared session key.
	Key sspcrypto.Key
	// Clock drives all timing.
	Clock simclock.Clock
	// Width, Height must match the server's initial terminal size.
	Width, Height int
	// Timing overrides SSP timing field by field (zero fields:
	// transport.ClientTiming, the paper defaults with the reference
	// client's 1 ms send delay).
	Timing transport.Timing
	// Envelope enables the sessiond session-ID envelope (nil = plain
	// single-session wire format).
	Envelope *network.Envelope
	// Predictions selects the speculative-echo display policy.
	Predictions overlay.DisplayPreference
	// Emit transmits one sealed datagram toward the server.
	Emit func(wire []byte)
	// RecycleWire declares Emit non-retaining so wire buffers are reused
	// (see transport.Config.RecycleWire).
	RecycleWire bool
}

// Client is the Mosh client endpoint: it records user input into the
// synchronized UserStream, maintains the reconstructed server screen, and
// overlays speculative local echo.
type Client struct {
	tr            *transport.Transport[*statesync.UserStream, *statesync.Complete]
	engine        *overlay.Engine
	notifications *overlay.NotificationEngine
}

// NewClient builds a client endpoint.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Width == 0 {
		cfg.Width = 80
	}
	if cfg.Height == 0 {
		cfg.Height = 24
	}
	tr, err := transport.New(transport.Config[*statesync.UserStream, *statesync.Complete]{
		Direction:     sspcrypto.ToServer,
		Key:           cfg.Key,
		Clock:         cfg.Clock,
		Timing:        cfg.Timing,
		Envelope:      cfg.Envelope,
		LocalInitial:  statesync.NewUserStream(),
		RemoteInitial: statesync.NewComplete(cfg.Width, cfg.Height),
		Emit:          cfg.Emit,
		RecycleWire:   cfg.RecycleWire,
	})
	if err != nil {
		return nil, err
	}
	c := &Client{
		tr:            tr,
		engine:        overlay.NewEngine(cfg.Clock, cfg.Predictions),
		notifications: overlay.NewNotificationEngine(cfg.Clock),
	}
	// Introduce ourselves so the server learns our address immediately.
	tr.Sender().ForceAckSoon()
	return c, nil
}

// Transport exposes the SSP endpoint.
func (c *Client) Transport() *transport.Transport[*statesync.UserStream, *statesync.Complete] {
	return c.tr
}

// Predictions exposes the speculative-echo engine (stats, preferences).
func (c *Client) Predictions() *overlay.Engine { return c.engine }

// ServerState returns the newest reconstructed server screen (read-only).
func (c *Client) ServerState() *terminal.Framebuffer {
	return c.tr.RemoteState().Framebuffer()
}

// InputSeq returns the global index the next user event will carry; the
// latency harness uses it to correlate keystrokes with prediction records.
func (c *Client) InputSeq() uint64 { return c.tr.CurrentState().Size() + 1 }

// UserBytes records one user keystroke event (already encoded as host
// bytes), runs it through the prediction engine, and wakes the transport.
// It returns the event's global index.
func (c *Client) UserBytes(data []byte) uint64 {
	seq := c.InputSeq()
	c.engine.SetSendInterval(c.tr.Sender().SendInterval())
	c.engine.SetLocalFrameSent(c.tr.Sender().LastSentNum())
	c.engine.NewUserInput(seq, data, c.ServerState())
	c.tr.CurrentState().PushBytes(data)
	c.tr.Tick()
	return seq
}

// TypeRune is a convenience for a printable keystroke.
func (c *Client) TypeRune(r rune) uint64 { return c.UserBytes(terminal.EncodeRune(r)) }

// Resize records a window-size change.
func (c *Client) Resize(w, h int) {
	c.tr.CurrentState().PushResize(w, h)
	c.tr.Tick()
}

// Receive processes one datagram from the server at src, updating the
// reconstructed screen and re-judging outstanding predictions.
func (c *Client) Receive(wire []byte, src netem.Addr) error {
	isNew, err := c.tr.Receive(wire, src)
	if err == nil {
		c.notifications.ServerHeard()
	}
	if err != nil || !isNew {
		return err
	}
	c.engine.SetSendInterval(c.tr.Sender().SendInterval())
	c.engine.SetLocalFrameAcked(c.tr.Sender().LastAckedNum())
	c.engine.SetLocalFrameLateAcked(c.tr.RemoteState().EchoAck())
	c.engine.Cull(c.ServerState())
	return nil
}

// Display returns what the user sees: the reconstructed server screen with
// displayable predictions overlaid, plus the connectivity banner when the
// server has gone silent.
func (c *Client) Display() *terminal.Framebuffer {
	fb := c.ServerState().Clone()
	c.engine.Apply(fb)
	c.notifications.Apply(fb)
	return fb
}

// Tick drives timers; call after local activity or when WaitTime elapses.
func (c *Client) Tick() { c.tr.Tick() }

// WaitTime reports how long the event loop may sleep before calling Tick.
func (c *Client) WaitTime() time.Duration { return c.tr.WaitTime() }

// Endpoint is the common driving contract shared by Client and Server.
type Endpoint interface {
	Tick()
	WaitTime() time.Duration
}

// Pump attaches an endpoint to a simulation scheduler with a
// self-rescheduling timer and returns a wake function: call it after any
// local activity so deadlines are re-armed. This is the virtual-time
// equivalent of each program's select loop.
func Pump(sched *simclock.Scheduler, ep Endpoint) (wake func()) {
	var pump func()
	timer := sched.NewEventTimer(func() { pump() })
	pump = func() {
		ep.Tick()
		wait := ep.WaitTime()
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		timer.Reset(sched.Now().Add(wait))
	}
	sched.AfterFunc(0, pump)
	return pump
}
