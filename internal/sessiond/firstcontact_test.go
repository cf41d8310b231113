package sessiond

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/netem"
	"repro/internal/network"
	"repro/internal/overlay"
	"repro/internal/simclock"
	"repro/internal/sspcrypto"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/udpbatch"
)

// bannerApp is a host application that prints a banner when it starts and
// echoes what it is sent.
type bannerApp struct{}

const banner = "user@remote:~$ "

func (bannerApp) Start() []byte { return []byte(banner) }
func (bannerApp) Input(data []byte) ([]byte, time.Duration) {
	return data, 0
}

// assertNeverSpoke fails unless s is exactly as its OpenSession left it on
// the wire side: no sequence number spent, state 0 alone retained, every
// sender counter zero.
func assertNeverSpoke(t *testing.T, s *Session) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	tr := s.srv.Transport()
	if seq := tr.Connection().NextSeq(); seq != 0 {
		t.Fatalf("session %d spent %d sequence numbers on nobody", s.ID, seq)
	}
	if n := tr.Sender().SentStateCount(); n != 1 {
		t.Fatalf("session %d retains %d states, want state 0 alone", s.ID, n)
	}
	if st := tr.Sender().Stats(); st != (transport.SenderStats{}) {
		t.Fatalf("session %d: sender counters moved: %+v", s.ID, st)
	}
}

// TestPeerlessSessionsCostNothing pins what a slot nobody has redeemed costs
// the daemon between OpenSession and its client's first datagram: no heap
// entry, so no timer pop and no tick sweep; no sealed datagram, so no nonce
// and no walk toward the journal's low-water mark. A session used to be armed
// for its first frame at +250 ms and for a heartbeat every 3 s after, all of
// it sent to no address — and a first version of the gate that answered "no
// deadline" with a zero instant had rearmLocked floor it to now + 1 ms, every
// millisecond, for every unconnected session.
func TestPeerlessSessionsCostNothing(t *testing.T) {
	t.Run("1000 quiet sessions for 10 s", func(t *testing.T) {
		clk := simclock.NewScheduler(loopEpoch)
		sent := 0
		d, err := New(Config{
			Clock: clk, IdleTimeout: -1,
			NewApp: func(uint64) host.App { return bannerApp{} },
			Send:   func(netem.Addr, []byte) { sent++ },
		})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		var sessions []*Session
		for i := 0; i < 1000; i++ {
			s, err := d.OpenSession()
			if err != nil {
				t.Fatal(err)
			}
			sessions = append(sessions, s)
		}
		ticks := d.Pipeline().Stage(telemetry.StageTick).Count() // one per banner
		for elapsed := time.Duration(0); elapsed <= 10*time.Second; elapsed += 50 * time.Millisecond {
			if at, ok := d.NextDeadline(); ok {
				t.Fatalf("+%v: a deadline is armed at +%v with no session connected", elapsed, at.Sub(loopEpoch))
			}
			if due := d.timers.popDue(clk.Now()); len(due) != 0 {
				t.Fatalf("+%v: %d sessions popped off the timer heap", elapsed, len(due))
			}
			d.TickDue()
			clk.RunFor(50 * time.Millisecond)
		}
		if got := d.Pipeline().Stage(telemetry.StageTick).Count(); got != ticks {
			t.Fatalf("%d sender ticks in 10 s with nobody connected", got-ticks)
		}
		if sent != 0 || d.Metrics().FramesPrepared.Value() != 0 {
			t.Fatalf("%d datagrams written, %d frames built ahead", sent, d.Metrics().FramesPrepared.Value())
		}
		for _, s := range sessions {
			assertNeverSpoke(t, s)
		}
	})

	// With a journal, what a session may seal is a reservation the journal
	// has recorded; a session that spends three quarters of it asks for an
	// early flush. Sending into the void spent it: a chatty host behind an
	// unredeemed slot asked for flush after flush and, between them, ran the
	// reservation out.
	t.Run("a chatty session does not walk its reservation", func(t *testing.T) {
		const reserve = 32
		clk := simclock.NewScheduler(loopEpoch)
		d, err := New(Config{
			Clock: clk, IdleTimeout: -1, Width: 162, Height: 64,
			StateDir: t.TempDir(), SeqReserve: reserve,
			Send: func(netem.Addr, []byte) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		s, err := d.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		if err := d.FlushJournal(); err != nil { // records the session, grants its reservation
			t.Fatal(err)
		}
		headroom := func() (seq, num uint64) {
			s.mu.Lock()
			defer s.mu.Unlock()
			tr := s.srv.Transport()
			return tr.Connection().SeqRemaining(), tr.Sender().NumHighWater()
		}
		seq0, num0 := headroom()
		if seq0 != reserve {
			t.Fatalf("a journaled session may seal %d datagrams, want its reservation of %d", seq0, reserve)
		}
		for round := 0; round < 500; round++ { // a write every 20 ms for 10 s
			line := fmt.Sprintf("round %d ", round)
			out := []byte("\x1b[H" + strings.Repeat(line, 162*64/len(line)))
			s.Do(func(srv *core.Server) { srv.HostOutput(out) })
			clk.RunFor(20 * time.Millisecond)
			d.TickDue()
			// maybeRequestFlushLocked's condition, which must stay false,
			// and no state minted under the unchanged state ceiling.
			if seq, num := headroom(); seq != seq0 || num != num0 {
				t.Fatalf("round %d: headroom %d datagrams / state high water %d, was %d / %d: the reservation is being spent on nobody",
					round, seq, num, seq0, num0)
			}
		}
		assertNeverSpoke(t, s)
	})
}

// The first-paint tests drive an unconnected deadlineRig (newBareDeadlineRig):
// one daemon session on a Scheduler, opened at loopEpoch, and the client
// that will connect to it some time later.

// runTo is the tick loop until at: it serves every deadline armed on the
// way, each at its instant, and leaves the clock at at.
func (r *deadlineRig) runTo(at time.Time) {
	for {
		next, ok := r.d.NextDeadline()
		if !ok || next.After(at) {
			break
		}
		if next.After(r.clk.Now()) {
			r.clk.RunUntil(next)
		}
		r.d.TickDue()
	}
	r.clk.RunUntil(at)
}

// hello introduces the client now: one datagram, handled in one sweep.
func (r *deadlineRig) hello() {
	r.t.Helper()
	r.client.Tick()
	if len(r.toSrv) != 1 {
		r.t.Fatalf("the client's introduction is %d datagrams, want 1", len(r.toSrv))
	}
	r.d.HandlePacket(r.toSrv[0], r.addr)
	r.toSrv = nil
}

// firstFrame runs the tick loop until the daemon has written something, and
// checks it is the first frame: datagram sequence 0 carrying state 0 → 1,
// which brings the client to the server's screen.
func (r *deadlineRig) firstFrame() (at time.Time) {
	r.t.Helper()
	for limit := r.clk.Now().Add(5 * time.Second); len(r.toCli) == 0; {
		next, ok := r.d.NextDeadline()
		if !ok || next.After(limit) {
			r.t.Fatal("no frame within 5 s of the hello")
		}
		r.runTo(next)
	}
	at = r.clk.Now()
	_, inner, err := network.ParseEnvelope(r.toCli[0])
	if err != nil {
		r.t.Fatalf("the first datagram written has no envelope: %v", err)
	}
	_, seq, _, err := sspcrypto.ParseSeqHeader(inner)
	if err != nil {
		r.t.Fatalf("the first datagram written has no sequence header: %d B, %v", len(inner), err)
	}
	if seq != 0 {
		r.t.Fatalf("the first datagram written carries sequence %d, want 0: earlier ones went nowhere", seq)
	}
	for _, wire := range r.toCli {
		r.client.Receive(wire, netem.Addr{})
	}
	r.toCli = nil
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	snd := r.s.srv.Transport().Sender()
	if snd.LastSentNum() != 1 || snd.SentStateCount() != 2 {
		r.t.Fatalf("after the first frame the server has sent state %d and retains %d, want 1 and 2 (states 0 and 1)",
			snd.LastSentNum(), snd.SentStateCount())
	}
	if got := r.client.Transport().RemoteStateNum(); got != 1 {
		r.t.Fatalf("the client is at state %d, want 1 (applied from its state 0)", got)
	}
	fb := r.s.srv.Terminal().Framebuffer()
	for y := 0; y < fb.H; y++ {
		if got, want := r.client.ServerState().Text(y), fb.Text(y); got != want {
			r.t.Fatalf("row %d: the client shows %q, the server has %q", y, got, want)
		}
	}
	return at
}

// TestFirstPaintArrivesWithHello is what a user sees first, and when. A
// session's first frame — the banner its shell printed when it was opened —
// leaves in the sweep that handles the client's hello, whenever that comes;
// only a hello earlier than the frame-rate rule allows a frame at all (250 ms
// after state 0, with no RTT sample) waits, for that. Before the first-contact
// gate the sender minted state 1 at +250 ms for nobody, assumed it delivered
// for RTO + ack delay, and a hello between 0.25 s and 1.35 s got its screen at
// +1.35 s.
func TestFirstPaintArrivesWithHello(t *testing.T) {
	frameRate := transport.DefaultTiming().SendIntervalMax
	hellos := []time.Duration{
		100 * time.Millisecond, 300 * time.Millisecond, 600 * time.Millisecond,
		time.Second, 1300 * time.Millisecond, 2 * time.Second, 5 * time.Second,
	}
	for _, after := range hellos {
		t.Run(fmt.Sprintf("banner, hello at +%v", after), func(t *testing.T) {
			r := newBareDeadlineRig(t, bannerApp{}, simclock.NewScheduler(loopEpoch))
			r.runTo(loopEpoch.Add(after))
			r.hello()
			if inSweep := len(r.toCli) > 0; inSweep != (after >= frameRate) {
				t.Fatalf("hello at +%v: frame written in the hello's sweep: %v", after, inSweep)
			}
			at := r.firstFrame()
			if want := loopEpoch.Add(max(after, frameRate)); !at.Equal(want) {
				t.Fatalf("hello at +%v: first frame at +%v, want +%v", after, at.Sub(loopEpoch), want.Sub(loopEpoch))
			}
			if got := r.client.ServerState().Text(0); !strings.HasPrefix(got, banner) {
				t.Fatalf("the client shows %q, want the banner", got)
			}
		})
	}

	// The gate does not weaken the collection interval: a host write just
	// before the hello opened one, counted from the write, and the frame
	// waits out what is left of it. Unless the hello finds the heartbeat
	// overdue (nothing was ever sent, so it has been due since +3 s): an
	// instruction that has to leave carries the newest state, as it does
	// when a heartbeat falls due inside any other collection interval.
	tm := transport.DefaultTiming()
	for _, after := range hellos {
		t.Run(fmt.Sprintf("host write 3 ms before a hello at +%v", after), func(t *testing.T) {
			r := newBareDeadlineRig(t, nil, simclock.NewScheduler(loopEpoch))
			wrote := loopEpoch.Add(after - 3*time.Millisecond)
			r.runTo(wrote)
			r.s.Do(func(srv *core.Server) { srv.HostOutput([]byte("late")) })
			r.runTo(loopEpoch.Add(after))
			r.hello()
			want := wrote.Add(tm.CollectionInterval)
			if floor := loopEpoch.Add(frameRate); want.Before(floor) {
				want = floor
			}
			if after >= tm.HeartbeatInterval {
				want = loopEpoch.Add(after)
			} else if len(r.toCli) != 0 {
				t.Fatalf("a frame left %v after the write it carries", r.clk.Now().Sub(wrote))
			}
			if at := r.firstFrame(); !at.Equal(want) {
				t.Fatalf("write at +%v, hello at +%v: first frame at +%v, want +%v",
					wrote.Sub(loopEpoch), after, at.Sub(loopEpoch), want.Sub(loopEpoch))
			}
		})
	}
}

// TestFirstScreenWithHelloOnLoopback is the same promise on a real clock and
// a real socket, once: a client that says hello 300 ms after its session was
// opened — the gap between mosh-server printing MOSH CONNECT and mosh-client
// starting — has its first screen within 250 ms of saying so. It used to wait
// for open + 1.35 s, 1 050 ms after this hello.
func TestFirstScreenWithHelloOnLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("sleeps 300 ms of wall clock")
	}
	loopback := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	srvSock, err := net.ListenUDP("udp4", loopback)
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	bc, err := udpbatch.NewUDPConnProvider(srvSock, "auto")
	if err != nil {
		t.Fatal(err)
	}
	peer, err := net.ListenUDP("udp4", loopback)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	var clock simclock.Real
	d, err := New(Config{Clock: clock, IdleTimeout: -1, RecycleWire: true, NewApp: func(uint64) host.App { return bannerApp{} }})
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- d.ServeBatch(bc) }()
	defer func() {
		d.Close()
		if err := <-served; err != nil {
			t.Errorf("ServeBatch returned %v", err)
		}
	}()
	s, err := d.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	opened := clock.Now()
	srvAddr := srvSock.LocalAddr().(*net.UDPAddr)
	client, err := core.NewClient(core.ClientConfig{
		Key: s.Key(), Clock: clock, Envelope: &network.Envelope{ID: s.ID}, Predictions: overlay.Never,
		Emit: func(wire []byte) { peer.WriteToUDP(wire, srvAddr) },
	})
	if err != nil {
		t.Fatal(err)
	}

	clock.Sleep(opened.Add(300 * time.Millisecond).Sub(clock.Now()))
	helloAt := clock.Now()
	client.Tick()
	buf := make([]byte, udpbatch.DefaultBufSize)
	for !strings.HasPrefix(client.ServerState().Text(0), banner) {
		peer.SetReadDeadline(helloAt.Add(3 * time.Second))
		n, _, err := peer.ReadFromUDP(buf)
		if err != nil {
			t.Fatalf("no first screen within 3 s of the hello: %v", err)
		}
		client.Receive(buf[:n], netem.Addr{})
	}
	took := clock.Since(helloAt)
	t.Logf("hello at open + %v, first screen %v later", helloAt.Sub(opened).Round(time.Millisecond), took.Round(10*time.Microsecond))
	if took > 250*time.Millisecond {
		t.Fatalf("first screen %v after the hello, want within 250 ms", took)
	}
}
