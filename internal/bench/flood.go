package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/simclock"
	"repro/internal/sspcrypto"
	"repro/internal/transport"
)

// FloodResult reports how a Mosh session behaved while the host flooded
// the terminal with output (the runaway-process scenario of §1/§2.3).
type FloodResult struct {
	// Frames is the number of screen-state instructions the server sent.
	Frames int
	// WirePackets counts all server datagrams.
	WirePackets int
	// Converged reports whether the client's screen matched the server's
	// at the end.
	Converged bool
	// Sender is the server's transport counters at the end.
	Sender transport.SenderStats
}

// runFlood floods the server terminal with output for the given duration
// over link and reports how much traffic SSP generated. With the paper's
// 50 Hz frame cap the traffic stays bounded no matter how fast the host
// writes; the ablation removes the cap. With a prepare func the server's
// loop is the daemon's: after every wake-up it offers, through prepare, to
// build the next frame ahead of its deadline, which a flood's own traffic
// turns down; with nil (the reference the flood guard compares against) no
// offer is made.
func runFlood(d time.Duration, link netem.LinkParams, timing *transport.Timing, seed int64, prepare func(*core.Server) bool) FloodResult {
	sched := simclock.NewScheduler(benchEpoch)
	nw := netem.NewNetwork(sched)
	path := netem.NewPath(nw, link, seed)
	clientAddr := netem.Addr{Host: 1, Port: 1001}
	serverAddr := netem.Addr{Host: 2, Port: 60001}
	key := sspcrypto.Key{byte(seed), 0x0f}

	var server *core.Server
	var client *core.Client
	packets := 0
	server, _ = core.NewServer(core.ServerConfig{
		Key: key, Clock: sched, Timing: timing,
		Emit: func(w []byte) {
			packets++
			if dst, ok := server.Transport().Connection().RemoteAddr(); ok {
				path.Down.Send(netem.Packet{Src: serverAddr, Dst: dst, Payload: w})
			}
		},
	})
	client, _ = core.NewClient(core.ClientConfig{
		Key: key, Clock: sched, Timing: timing,
		Emit: func(w []byte) {
			path.Up.Send(netem.Packet{Src: clientAddr, Dst: serverAddr, Payload: w})
		},
	})
	wakeClient := core.Pump(sched, client)
	pumpServer := core.Pump(sched, server)
	wakeServer := func() {
		pumpServer()
		if prepare != nil {
			prepare(server)
		}
	}
	nw.Attach(serverAddr, func(p netem.Packet) { server.Receive(p.Payload, p.Src); wakeServer() })
	nw.Attach(clientAddr, func(p netem.Packet) { client.Receive(p.Payload, p.Src); wakeClient() })
	sched.RunFor(time.Second)

	stop := sched.Now().Add(d)
	counter := 0
	var flood func()
	flood = func() {
		if sched.Now().After(stop) {
			return
		}
		var b strings.Builder
		for i := 0; i < 5; i++ {
			counter++
			fmt.Fprintf(&b, "runaway process output line %08d!\r\n", counter)
		}
		server.HostOutput([]byte(b.String()))
		wakeServer()
		sched.AfterFunc(2*time.Millisecond, flood)
	}
	sched.AfterFunc(0, flood)
	sched.RunFor(d + 5*time.Second)

	return FloodResult{
		Frames:      server.Transport().Sender().Stats().Instructions,
		WirePackets: packets,
		Converged:   client.ServerState().Equal(server.Terminal().Framebuffer()),
		Sender:      server.Transport().Sender().Stats(),
	}
}

// figures lists the flood's frames, wire packets and convergence (1 or 0).
func (r FloodResult) figures() []Figure {
	converged := 0.0
	if r.Converged {
		converged = 1
	}
	return []Figure{{"frames", float64(r.Frames)}, {"wire", float64(r.WirePackets)}, {"converged", converged}}
}
