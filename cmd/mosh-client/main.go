// Command mosh-client is the client side of a real (UDP) Mosh session:
// it reads keystrokes from stdin, runs them through the speculative-echo
// engine, and paints the synchronized remote screen to stdout using the
// same minimal-diff renderer the protocol uses on the wire.
//
// Usage (after starting mosh-server):
//
//	mosh-client -to 127.0.0.1:60001 -key <key> -session <id>
//
// -key and -session come from the server's "MOSH CONNECT port key id"
// line; -session selects this session on the server's multiplexed socket
// (its daemon runs many sessions behind one UDP port).
//
// stdin is consumed unbuffered when the terminal allows it; under a
// line-buffered terminal, whole lines are sent at once (the protocol and
// prediction layers behave identically either way).
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/network"
	"repro/internal/overlay"
	"repro/internal/simclock"
	"repro/internal/sspcrypto"
	"repro/internal/terminal"
)

// parsePredict maps a -predict value to its display preference. A name
// that is none of them is an error, not a silent fallback to adaptive.
func parsePredict(name string) (overlay.DisplayPreference, error) {
	for _, p := range []overlay.DisplayPreference{overlay.Adaptive, overlay.Always, overlay.Never} {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown -predict %q (want adaptive|always|never)", name)
}

// parseSession maps a -session id to the envelope that names it. The
// bundled mosh-server runs every session behind one port and drops a
// datagram that names none, so a missing or zero id is an error.
func parseSession(id uint64) (*network.Envelope, error) {
	if id == 0 {
		return nil, errors.New("missing -session (printed by mosh-server)")
	}
	return &network.Envelope{ID: id}, nil
}

func main() {
	to := flag.String("to", "127.0.0.1:60001", "server host:port")
	keyStr := flag.String("key", "", "session key printed by mosh-server")
	session := flag.Uint64("session", 0, "session id printed by mosh-server")
	predict := flag.String("predict", "adaptive", "speculative echo: adaptive|always|never")
	flag.Parse()
	pref, err := parsePredict(*predict)
	var env *network.Envelope
	if err == nil {
		env, err = parseSession(*session)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mosh-client: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	if *keyStr == "" {
		log.Fatal("missing -key (printed by mosh-server)")
	}
	key, err := sspcrypto.KeyFromBase64(*keyStr)
	if err != nil {
		log.Fatal(err)
	}
	raddr, err := net.ResolveUDPAddr("udp", *to)
	if err != nil {
		log.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		log.Fatal(err)
	}

	var shown *terminal.Framebuffer
	client, err := core.NewClient(core.ClientConfig{
		Key:         key,
		Clock:       simclock.Real{},
		Predictions: pref,
		Envelope:    env,
		// conn.Write hands the datagram to the kernel before returning,
		// so wire buffers are recycled.
		RecycleWire: true,
		Emit: func(wire []byte) {
			conn.Write(wire)
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	p := newPump(client, simclock.Real{}, func() {
		d := client.Display()
		if shown != nil && shown.Equal(d) {
			return
		}
		os.Stdout.Write(displayFrame(shown, d))
		shown = d
	})
	go p.timers(nil)

	// Network receive loop.
	go func() {
		buf := make([]byte, 2048)
		for {
			n, err := conn.Read(buf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "read:", err)
				return
			}
			wire := append([]byte(nil), buf[:n]...)
			p.do(func(c *core.Client) { c.Receive(wire, netem.Addr{}) })
		}
	}()

	// Keyboard loop: bytes from stdin become user events.
	in := bufio.NewReader(os.Stdin)
	for {
		b, err := in.ReadByte()
		if err != nil {
			return
		}
		if b == '\n' {
			b = '\r' // terminals send CR for the return key
		}
		p.do(func(c *core.Client) { c.UserBytes([]byte{b}) })
	}
}

// displayFrame returns the bytes that bring the user's terminal from shown,
// the screen last painted on it (nil: none yet), to d. An incremental frame
// carries a cursor-visibility change only when there is one, so while the
// cursor stays visible the client hides it around the frame itself: a real
// terminal would otherwise show it jumping across the cells being painted.
func displayFrame(shown, d *terminal.Framebuffer) []byte {
	if shown == nil {
		return terminal.NewFrame(false, nil, d)
	}
	frame := terminal.NewFrame(true, shown, d)
	if len(frame) == 0 || !shown.DS.CursorVisible || !d.DS.CursorVisible {
		return frame
	}
	out := make([]byte, 0, len(frame)+12)
	out = append(out, "\x1b[?25l"...)
	out = append(out, frame...)
	return append(out, "\x1b[?25h"...)
}

// pump serializes a client endpoint's three event sources — datagrams,
// keystrokes and its own timers — and keeps one timer armed at the
// endpoint's next deadline. Every event can move that deadline (a keystroke
// arms the 1 ms send delay inside what may be a 3 s heartbeat wait), so
// every event wakes the timer loop to re-arm; a loop that only slept out
// the wait it computed last would leave a keystroke typed into an idle
// session unsent until the next datagram or heartbeat.
type pump struct {
	mu     sync.Mutex
	client *core.Client
	clock  simclock.Clock
	// repaint runs with mu held after every event.
	repaint func()
	// wake tells the timer loop the deadline may have moved. One pending
	// signal is enough: the loop re-reads WaitTime when it takes it.
	wake chan struct{}
}

func newPump(client *core.Client, clock simclock.Clock, repaint func()) *pump {
	return &pump{client: client, clock: clock, repaint: repaint, wake: make(chan struct{}, 1)}
}

// do applies one external event (a datagram, a keystroke) to the endpoint,
// repaints, and has the timer loop re-arm.
func (p *pump) do(event func(c *core.Client)) {
	p.mu.Lock()
	event(p.client)
	p.repaint()
	p.mu.Unlock()
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// timers ticks the endpoint whenever its deadline arrives or an event moved
// it, until stop closes (nil: forever).
func (p *pump) timers(stop <-chan struct{}) {
	timer := p.clock.NewTimer(0)
	defer timer.Stop()
	for {
		select {
		case <-stop:
			return
		case <-timer.C():
		case <-p.wake:
		}
		p.mu.Lock()
		p.client.Tick()
		wait := p.client.WaitTime()
		p.repaint()
		p.mu.Unlock()
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		if !timer.Stop() {
			select {
			case <-timer.C():
			default:
			}
		}
		timer.Reset(wait)
	}
}
