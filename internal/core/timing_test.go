package core

import (
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/overlay"
	"repro/internal/simclock"
	"repro/internal/sspcrypto"
	"repro/internal/transport"
)

// timedPair is a client and a server joined by a fixed 5 ms wire in
// virtual time, recording the instant of every datagram each puts on it.
type timedPair struct {
	sched                  *simclock.Scheduler
	client                 *Client
	server                 *Server
	wakeClient, wakeServer func()
	clientSent, serverSent []time.Time
	hostGot                []time.Time
}

const timedWire = 5 * time.Millisecond

// newTimedPair builds the pair with the given timings (nil = each
// endpoint's default), lets them exchange enough traffic to have an RTT,
// and returns them idle: nothing unacknowledged, frame intervals elapsed.
func newTimedPair(t *testing.T, clientTiming, serverTiming *transport.Timing) *timedPair {
	t.Helper()
	p := &timedPair{sched: simclock.NewScheduler(t0)}
	key := sspcrypto.Key{7}
	clientAddr := netem.Addr{Host: 1, Port: 1000}
	var err error
	p.server, err = NewServer(ServerConfig{
		Key:    key,
		Clock:  p.sched,
		Timing: serverTiming,
		Emit: func(wire []byte) {
			p.serverSent = append(p.serverSent, p.sched.Now())
			wire = append([]byte(nil), wire...)
			p.sched.AfterFunc(timedWire, func() {
				p.client.Receive(wire, netem.Addr{Host: 2, Port: 60001})
				p.wakeClient()
			})
		},
		HostInput: func([]byte) { p.hostGot = append(p.hostGot, p.sched.Now()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	p.client, err = NewClient(ClientConfig{
		Key:         key,
		Clock:       p.sched,
		Timing:      clientTiming,
		Predictions: overlay.Never,
		Emit: func(wire []byte) {
			p.clientSent = append(p.clientSent, p.sched.Now())
			wire = append([]byte(nil), wire...)
			p.sched.AfterFunc(timedWire, func() {
				p.server.Receive(wire, clientAddr)
				p.wakeServer()
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.wakeClient = Pump(p.sched, p.client)
	p.wakeServer = Pump(p.sched, p.server)
	// Two exchanges a second apart, then a second of quiet — clear of the
	// 3 s heartbeat, so the next thing on the wire is the test's.
	for i := 0; i < 2; i++ {
		p.client.UserBytes([]byte{'w'})
		p.wakeClient()
		p.sched.RunFor(time.Second)
	}
	if !p.client.Transport().Connection().HaveRTT() || !p.server.Transport().Connection().HaveRTT() {
		t.Fatal("warm-up left an endpoint without an RTT sample")
	}
	p.clientSent, p.serverSent, p.hostGot = nil, nil, nil
	return p
}

// TestDefaultSendDelays pins the two collection intervals on the
// keystroke's path, in virtual time. A client built with Timing == nil is
// the reference client: an idle one puts a keystroke on the wire 1 ms after
// UserBytes. A server built with Timing == nil keeps the paper's Figure 3
// optimum: it mints the frame carrying host output 8 ms after the write.
// An explicit Timing wins on either side.
func TestDefaultSendDelays(t *testing.T) {
	custom := func(collect time.Duration) *transport.Timing {
		timing := transport.DefaultTiming()
		timing.CollectionInterval = collect
		return &timing
	}
	for _, tc := range []struct {
		name                       string
		clientTiming, serverTiming *transport.Timing
		wantClient, wantServer     time.Duration
	}{
		{"defaults", nil, nil, time.Millisecond, 8 * time.Millisecond},
		{"explicit client timing wins", custom(8 * time.Millisecond), nil, 8 * time.Millisecond, 8 * time.Millisecond},
		{"explicit server timing wins", nil, custom(3 * time.Millisecond), time.Millisecond, 3 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newTimedPair(t, tc.clientTiming, tc.serverTiming)

			typed := p.sched.Now()
			p.client.UserBytes([]byte{'k'})
			p.wakeClient()
			p.sched.RunFor(40 * time.Millisecond)
			if len(p.clientSent) == 0 || p.clientSent[0].Sub(typed) != tc.wantClient {
				t.Fatalf("client datagrams at %v after UserBytes, want the first at exactly %v", since(p.clientSent, typed), tc.wantClient)
			}
			if len(p.hostGot) != 1 || p.hostGot[0].Sub(typed) != tc.wantClient+timedWire {
				t.Fatalf("host got the keystroke at %v after UserBytes, want once at %v", since(p.hostGot, typed), tc.wantClient+timedWire)
			}

			// Quiet again (the server's ack and 50 ms echo-ack frame have
			// gone out), then the host writes.
			p.sched.RunFor(time.Second)
			p.serverSent = nil
			wrote := p.sched.Now()
			p.server.HostOutput([]byte("x"))
			p.wakeServer()
			p.sched.RunFor(40 * time.Millisecond)
			if len(p.serverSent) == 0 || p.serverSent[0].Sub(wrote) != tc.wantServer {
				t.Fatalf("server datagrams at %v after HostOutput, want the first at exactly %v", since(p.serverSent, wrote), tc.wantServer)
			}
			if got := p.client.ServerState().Text(0)[:1]; got != "x" {
				t.Fatalf("client's screen starts %q after the frame, want \"x\"", got)
			}
		})
	}
}

func since(at []time.Time, origin time.Time) []time.Duration {
	out := make([]time.Duration, len(at))
	for i := range at {
		out[i] = at[i].Sub(origin)
	}
	return out
}
