package transport

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/simclock"
	"repro/internal/sspcrypto"
	"repro/internal/statesync"
	"repro/internal/terminal"
)

// TestResendCarriesTheNumberedState: a state resent under the number it was
// first sent with reaches the receiver as that state, not as the live object
// that merely compares Equal to it. A screen's diff also carries its active
// rendition, which Equal does not compare and the next frame starts from (a
// frame emits no SGR when the rendition it tracks already matches). Here
// state 1 leaves the host in red and is lost; the host then resets the
// rendition, which changes nothing visible, before the retransmission; then
// it prints a red x. A resend diffed from the live object would leave the
// client in the default rendition under state 1, and the x would arrive
// uncoloured.
func TestResendCarriesTheNumberedState(t *testing.T) {
	const cols, rows = 20, 4
	clk := simclock.NewScheduler(t0)
	var toClient, toServer [][]byte
	server, err := New(Config[*statesync.Complete, *statesync.UserStream]{
		Direction: sspcrypto.ToClient, Key: prepKey, Clock: clk,
		LocalInitial: statesync.NewComplete(cols, rows), RemoteInitial: statesync.NewUserStream(),
		Emit: func(w []byte) { toClient = append(toClient, bytes.Clone(w)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	client, err := New(Config[*statesync.UserStream, *statesync.Complete]{
		Direction: sspcrypto.ToServer, Key: prepKey, Clock: clk,
		LocalInitial: statesync.NewUserStream(), RemoteInitial: statesync.NewComplete(cols, rows),
		Emit: func(w []byte) { toServer = append(toServer, bytes.Clone(w)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// run ticks both ends every 5 ms for d, delivering every datagram except,
	// when lose is set, the server's.
	run := func(d time.Duration, lose bool) {
		for end := clk.Now().Add(d); clk.Now().Before(end); clk.RunFor(5 * time.Millisecond) {
			client.Tick()
			server.Tick()
			for len(toServer) > 0 || len(toClient) > 0 {
				up, down := toServer, toClient
				toServer, toClient = nil, nil
				for _, w := range up {
					server.Receive(w, prepClientAddr)
				}
				if !lose {
					for _, w := range down {
						client.Receive(w, prepServerAddr)
					}
				}
			}
		}
	}
	client.Sender().ForceAckSoon()
	run(300*time.Millisecond, false)

	host := server.CurrentState().Terminal()
	host.WriteString("\x1b[31mred")
	server.TickChangedAt(clk.Now())
	run(50*time.Millisecond, true)
	if server.Sender().Stats().Instructions == 0 {
		t.Fatal("the red state was never sent")
	}
	host.WriteString("\x1b[0m")
	run(5*time.Second, false) // long enough for the retransmission probe
	if server.Sender().Stats().Instructions < 2 {
		t.Fatal("the lost state was never resent")
	}
	host.WriteString("\x1b[31mx")
	server.TickChangedAt(clk.Now())
	run(time.Second, false)

	got, want := client.RemoteState().Framebuffer(), server.CurrentState().Framebuffer()
	if g, w := terminal.NewFrame(false, nil, got), terminal.NewFrame(false, nil, want); !bytes.Equal(g, w) {
		t.Fatalf("client repaints as\n%q\nserver as\n%q", g, w)
	}
}
