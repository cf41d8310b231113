// Package sshsim models an established SSH session for the paper's
// baseline comparison (§4): a character-at-a-time remote-echo channel over
// TCP (internal/tcpsim). Every keystroke travels to the server as stream
// bytes; every echo and screen update travels back the same way; the
// client renders output the moment it is delivered — but delivery is
// subject to TCP's in-order semantics, 1-second minimum RTO and
// exponential backoff, which is precisely what the paper measures against.
package sshsim

import (
	"time"

	"repro/internal/netem"
	"repro/internal/simclock"
	"repro/internal/tcpsim"
)

// Session is an established SSH connection between a client and server.
type Session struct {
	ClientConn *tcpsim.Conn
	ServerConn *tcpsim.Conn

	// OnServerInput receives keystroke bytes as the server delivers them
	// (feed them to the host application).
	OnServerInput func(data []byte)
	// OnClientOutput receives host output bytes as the client delivers
	// them (render them; cumulative count drives latency measurement).
	OnClientOutput func(data []byte)

	bytesDown int64 // cumulative host bytes queued server→client
	bytesSeen int64 // cumulative host bytes delivered at the client
}

// Config assembles a session.
type Config struct {
	Sched      *simclock.Scheduler
	Net        *netem.Network
	Path       *netem.Path
	ClientAddr netem.Addr
	ServerAddr netem.Addr
}

// New wires a session over the path: keystrokes ride Up, output rides
// Down.
func New(cfg Config) *Session {
	s := &Session{}
	s.ClientConn = tcpsim.New(tcpsim.Config{
		Sched: cfg.Sched, Link: cfg.Path.Up, Local: cfg.ClientAddr, Remote: cfg.ServerAddr,
		Deliver: func(d []byte) {
			s.bytesSeen += int64(len(d))
			if s.OnClientOutput != nil {
				s.OnClientOutput(d)
			}
		},
	})
	s.ServerConn = tcpsim.New(tcpsim.Config{
		Sched: cfg.Sched, Link: cfg.Path.Down, Local: cfg.ServerAddr, Remote: cfg.ClientAddr,
		Deliver: func(d []byte) {
			if s.OnServerInput != nil {
				s.OnServerInput(d)
			}
		},
	})
	cfg.Net.Attach(cfg.ClientAddr, func(p netem.Packet) { s.ClientConn.Receive(p.Payload) })
	cfg.Net.Attach(cfg.ServerAddr, func(p netem.Packet) { s.ServerConn.Receive(p.Payload) })
	return s
}

// Type sends keystroke bytes from the client (character-at-a-time; SSH
// has no local echo).
func (s *Session) Type(data []byte) { s.ClientConn.Send(data) }

// HostOutput queues host output on the server side and returns the
// cumulative stream offset after the write; the caller uses it to detect
// when this write has been fully delivered at the client.
func (s *Session) HostOutput(data []byte) int64 {
	s.ServerConn.Send(data)
	s.bytesDown += int64(len(data))
	return s.bytesDown
}

// DeliveredAtClient reports cumulative host bytes the client has rendered.
func (s *Session) DeliveredAtClient() int64 { return s.bytesSeen }

// BulkFlow starts a saturating bulk transfer sharing the session's
// downlink (the "concurrent TCP download" of the LTE experiment). It
// keeps the sender's buffer topped up indefinitely.
func BulkFlow(sched *simclock.Scheduler, nw *netem.Network, path *netem.Path,
	srcAddr, dstAddr netem.Addr) (*tcpsim.Conn, *tcpsim.Conn) {
	src := tcpsim.New(tcpsim.Config{
		Sched: sched, Link: path.Down, Local: srcAddr, Remote: dstAddr,
		// CUBIC (the paper's "Linux default TCP"): wall-clock growth
		// that plateaus near the loss point keeps a deep drop-tail
		// buffer standing full (bufferbloat).
		UseCubic: true,
	})
	dst := tcpsim.New(tcpsim.Config{Sched: sched, Link: path.Up, Local: dstAddr, Remote: srcAddr})
	nw.Attach(srcAddr, func(p netem.Packet) { src.Receive(p.Payload) })
	nw.Attach(dstAddr, func(p netem.Packet) { dst.Receive(p.Payload) })
	chunk := make([]byte, 32*1024)
	var feed func()
	feed = func() {
		if src.Buffered() < 8*1024*1024 {
			src.Send(chunk)
		}
		sched.AfterFunc(10*time.Millisecond, feed)
	}
	sched.AfterFunc(0, feed)
	return src, dst
}
