// Editor session: speculative local echo inside a full-screen, raw-mode
// application — the case the paper stresses that LINEMODE-style local
// editing could never handle (§5). The editor does its own echoing on the
// server; the client predicts it anyway, underlining unconfirmed
// predictions on this high-latency path, and repairs the one it gets
// wrong.
package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/netem"
	"repro/internal/overlay"
	"repro/internal/simclock"
	"repro/internal/sspcrypto"
	"repro/internal/terminal"
)

func main() {
	sched := simclock.NewScheduler(time.Date(2012, 4, 1, 0, 0, 0, 0, time.UTC))
	nw := netem.NewNetwork(sched)
	// A trans-continental path: 300 ms RTT.
	path := netem.NewPath(nw, netem.LinkParams{Delay: 150 * time.Millisecond}, 5)
	key, _ := sspcrypto.NewRandomKey()
	clientAddr := netem.Addr{Host: 1, Port: 1000}
	serverAddr := netem.Addr{Host: 2, Port: 60001}

	editor := host.NewEditor(11, 80)
	// Host responses are serialized: batched keystrokes must echo in
	// input order even when their simulated processing delays differ.
	var lastRespAt time.Time
	var server *core.Server
	var client *core.Client
	var wakeServer, wakeClient func()

	server, _ = core.NewServer(core.ServerConfig{
		Key: key, Clock: sched,
		Emit: func(wire []byte) {
			if dst, ok := server.Transport().Connection().RemoteAddr(); ok {
				path.Down.Send(netem.Packet{Src: serverAddr, Dst: dst, Payload: wire})
			}
		},
		HostInput: func(data []byte) {
			out, delay := editor.Input(data)
			if len(out) > 0 {
				at := sched.Now().Add(delay)
				if at.Before(lastRespAt) {
					at = lastRespAt
				}
				lastRespAt = at
				sched.At(at, func() { server.HostOutput(out); wakeServer() })
			}
		},
	})
	client, _ = core.NewClient(core.ClientConfig{
		Key: key, Clock: sched, Predictions: overlay.Adaptive,
		Emit: func(wire []byte) {
			path.Up.Send(netem.Packet{Src: clientAddr, Dst: serverAddr, Payload: wire})
		},
	})
	wakeClient = core.Pump(sched, client)
	wakeServer = core.Pump(sched, server)
	nw.Attach(serverAddr, func(p netem.Packet) { server.Receive(p.Payload, p.Src); wakeServer() })
	nw.Attach(clientAddr, func(p netem.Packet) { client.Receive(p.Payload, p.Src); wakeClient() })

	// The editor paints its screen (raw mode, own echo discipline).
	server.HostOutput(editor.Start())
	sched.RunFor(2 * time.Second)

	fmt.Println("editing over a 300ms-RTT path; editor echoes server-side (raw mode):")

	// Warm up the prediction epoch, then type a sentence.
	for _, r := range "The " {
		client.TypeRune(r)
		wakeClient()
		sched.RunFor(160 * time.Millisecond)
	}
	sched.RunFor(time.Second)

	sentence := "quick brown fox"
	var instantly int
	for _, r := range sentence {
		seq := client.TypeRune(r)
		wakeClient()
		sched.RunFor(2 * time.Millisecond)
		// Is the character already visible (speculatively)?
		visible := strings.Contains(client.Display().Text(11)+client.Display().Text(12), string(r))
		_ = seq
		if visible {
			instantly++
		}
		sched.RunFor(158 * time.Millisecond)
	}
	fmt.Printf("  %d/%d characters appeared within 2ms of the keystroke (RTT is 300ms)\n",
		instantly, len(sentence))

	// Underlines mark unconfirmed predictions on slow paths (§3).
	client.TypeRune('!')
	wakeClient()
	sched.RunFor(2 * time.Millisecond)
	d := client.Display()
	underlined := false
	for col := 0; col < d.W; col++ {
		for row := 10; row < 14; row++ {
			c := d.Cell(row, col)
			if c.ContentsString() == "!" && c.Rend.Has(terminal.AttrUnderline) {
				underlined = true
			}
		}
	}
	fmt.Printf("  the newest unconfirmed prediction is underlined: %v\n", underlined)

	sched.RunFor(2 * time.Second)
	// After confirmation the underline is gone (it trails behind the
	// cursor and disappears as responses arrive, per §3).
	d = client.Display()
	still := false
	for col := 0; col < d.W; col++ {
		for row := 10; row < 14; row++ {
			c := d.Cell(row, col)
			if c.ContentsString() == "!" && c.Rend.Has(terminal.AttrUnderline) {
				still = true
			}
		}
	}
	fmt.Printf("  after one round trip the underline has disappeared: %v\n", !still)

	// Full-screen state stays in lockstep.
	if client.ServerState().Equal(server.Terminal().Framebuffer()) {
		fmt.Println("  client and server screens identical after the session")
	}
	show(client.Display())
	st := client.Predictions().Stats()
	fmt.Printf("engine: %d predicted, %d instant, %d correct, %d wrong (repaired)\n",
		st.Predicted, st.ShownImmediately, st.Correct, st.Incorrect)
}

func show(d *terminal.Framebuffer) {
	fmt.Println("  ┌" + strings.Repeat("─", 40) + "┐")
	for i := 10; i < 14; i++ {
		row := d.Text(i)
		if len(row) > 40 {
			row = row[:40]
		}
		fmt.Printf("  │%-40s│\n", strings.TrimRight(row, " "))
	}
	fmt.Println("  └" + strings.Repeat("─", 40) + "┘")
}
