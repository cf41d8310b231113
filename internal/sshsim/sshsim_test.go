package sshsim

import (
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/simclock"
)

var t0 = time.Date(2012, 4, 1, 0, 0, 0, 0, time.UTC)

func newSession(params netem.LinkParams) (*simclock.Scheduler, *Session) {
	sched := simclock.NewScheduler(t0)
	nw := netem.NewNetwork(sched)
	path := netem.NewPath(nw, params, 4)
	ss := New(Config{
		Sched: sched, Net: nw, Path: path,
		ClientAddr: netem.Addr{Host: 1, Port: 1002},
		ServerAddr: netem.Addr{Host: 2, Port: 22},
	})
	return sched, ss
}

func TestKeystrokeEchoRoundTrip(t *testing.T) {
	sched, ss := newSession(netem.LinkParams{Delay: 100 * time.Millisecond})
	var serverGot, clientGot []byte
	ss.OnServerInput = func(d []byte) {
		serverGot = append(serverGot, d...)
		ss.HostOutput(d) // echo
	}
	ss.OnClientOutput = func(d []byte) { clientGot = append(clientGot, d...) }
	start := sched.Now()
	ss.Type([]byte("x"))
	sched.RunFor(5 * time.Second)
	if string(serverGot) != "x" || string(clientGot) != "x" {
		t.Fatalf("server=%q client=%q", serverGot, clientGot)
	}
	// Echo latency is one full RTT (no local echo in SSH).
	_ = start
	if ss.DeliveredAtClient() != 1 {
		t.Fatalf("delivered = %d", ss.DeliveredAtClient())
	}
}

func TestCharacterAtATimeOrdering(t *testing.T) {
	sched, ss := newSession(netem.LinkParams{Delay: 30 * time.Millisecond, LossProb: 0.2})
	var got []byte
	ss.OnServerInput = func(d []byte) { got = append(got, d...) }
	want := "ordered keystrokes survive loss"
	for i := 0; i < len(want); i++ {
		b := want[i]
		sched.AfterFunc(time.Duration(i)*50*time.Millisecond, func() { ss.Type([]byte{b}) })
	}
	sched.RunFor(5 * time.Minute)
	if string(got) != want {
		t.Fatalf("server saw %q", got)
	}
}

func TestHostOutputOffsets(t *testing.T) {
	_, ss := newSession(netem.LinkParams{})
	if off := ss.HostOutput([]byte("abc")); off != 3 {
		t.Fatalf("offset = %d", off)
	}
	if off := ss.HostOutput([]byte("de")); off != 5 {
		t.Fatalf("offset = %d", off)
	}
}

func TestBulkFlowSaturatesSharedLink(t *testing.T) {
	sched := simclock.NewScheduler(t0)
	nw := netem.NewNetwork(sched)
	path := netem.NewPath(nw, netem.LTE(), 4)
	BulkFlow(sched, nw, path, netem.Addr{Host: 2, Port: 80}, netem.Addr{Host: 1, Port: 8080})
	sched.RunFor(60 * time.Second) // CUBIC takes tens of seconds to stand the queue up
	if n := path.Down.Stats().Sent; n < 100 {
		t.Fatalf("bulk flow put only %d segments on the link", n)
	}
	if path.Down.Stats().MaxQueueBytes < netem.LTE().QueueBytes/2 {
		t.Fatalf("bulk flow did not fill the bottleneck queue: %d of %d",
			path.Down.Stats().MaxQueueBytes, netem.LTE().QueueBytes)
	}
}

func TestInteractiveSharingBufferbloatedLink(t *testing.T) {
	// The LTE experiment's mechanism: with a concurrent download filling
	// the queue, an interactive keystroke's echo takes multiple seconds.
	sched := simclock.NewScheduler(t0)
	nw := netem.NewNetwork(sched)
	path := netem.NewPath(nw, netem.LTE(), 4)
	ss := New(Config{
		Sched: sched, Net: nw, Path: path,
		ClientAddr: netem.Addr{Host: 1, Port: 1002},
		ServerAddr: netem.Addr{Host: 2, Port: 22},
	})
	BulkFlow(sched, nw, path, netem.Addr{Host: 2, Port: 80}, netem.Addr{Host: 1, Port: 8080})
	ss.OnServerInput = func(d []byte) { ss.HostOutput(d) }
	var echoAt time.Time
	ss.OnClientOutput = func([]byte) {
		if echoAt.IsZero() {
			echoAt = sched.Now()
		}
	}
	sched.RunFor(15 * time.Second) // let the queue fill
	start := sched.Now()
	ss.Type([]byte("x"))
	sched.RunFor(2 * time.Minute)
	if echoAt.IsZero() {
		t.Fatal("echo never arrived")
	}
	lat := echoAt.Sub(start)
	if lat < time.Second {
		t.Fatalf("echo latency %v; bufferbloat should make it multi-second", lat)
	}
}
