package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/simclock"
	"repro/internal/sspcrypto"
	"repro/internal/transport"
)

// chattyServer is a 162x64 server on a Scheduler whose host rewrites the
// whole screen every 20 ms, driven the way an event loop drives it: write,
// build ahead, sleep to the next deadline or the next write.
type chattyServer struct {
	clk  *simclock.Scheduler
	srv  *Server
	sent int
}

func newChattyServer(t *testing.T) *chattyServer {
	t.Helper()
	c := &chattyServer{clk: simclock.NewScheduler(t0)}
	var err error
	c.srv, err = NewServer(ServerConfig{
		Key: sspcrypto.Key{23}, Clock: c.clk, Width: 162, Height: 64,
		Emit: func([]byte) { c.sent++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func (c *chattyServer) run(d time.Duration) {
	const every = 20 * time.Millisecond
	for round, end := 0, c.clk.Now().Add(d); c.clk.Now().Before(end); round++ {
		line := fmt.Sprintf("round %d ", round)
		c.srv.HostOutput([]byte("\x1b[H" + strings.Repeat(line, 162*64/len(line))))
		c.srv.Prepare()
		for next := c.clk.Now().Add(every); ; {
			at, ok := c.srv.NextDeadline()
			if !ok || !at.Before(next) {
				c.clk.RunUntil(next)
				break
			}
			if at.After(c.clk.Now()) {
				c.clk.RunUntil(at)
			}
			c.srv.Tick()
		}
	}
}

// TestNeverContactedServerCostsOneScreen: a server no client has contacted,
// its host repainting at 50 Hz for a minute, seals no datagram, spends no
// sequence number, retains no snapshot but state 0 and builds no frame. (It
// used to send every frame into the void: 239 instructions in 1 187 datagrams,
// and 32 snapshots retained.) The same server whose embedder names the client
// speaks at once — the gate is the reply target, however it was learnt.
func TestNeverContactedServerCostsOneScreen(t *testing.T) {
	c := newChattyServer(t)
	c.run(time.Minute)
	tr := c.srv.Transport()
	if c.sent != 0 || tr.Connection().NextSeq() != 0 {
		t.Fatalf("%d datagrams sealed for nobody, next sequence number %d", c.sent, tr.Connection().NextSeq())
	}
	if n := tr.Sender().SentStateCount(); n != 1 {
		t.Fatalf("%d snapshots retained, want state 0 alone", n)
	}
	if st := tr.Sender().Stats(); st != (transport.SenderStats{}) {
		t.Fatalf("sender counters moved: %+v", st)
	}
	if w := c.srv.WaitTime(); w != transport.NoDeadline {
		t.Fatalf("WaitTime %v, want NoDeadline", w)
	}

	c = newChattyServer(t)
	c.srv.Transport().Connection().SetRemoteAddr(netem.Addr{Host: 1, Port: 1000})
	c.run(time.Second)
	if st := c.srv.Transport().Sender().Stats(); c.sent == 0 || st.Instructions == 0 {
		t.Fatalf("a server told its client's address sent %d datagrams, %d instructions in a second", c.sent, st.Instructions)
	}
}
