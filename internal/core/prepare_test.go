package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/network"
	"repro/internal/overlay"
	"repro/internal/simclock"
	"repro/internal/sspcrypto"
	"repro/internal/statesync"
	"repro/internal/transport"
)

// sentDgram is one datagram an endpoint handed to the network.
type sentDgram struct {
	fromServer bool
	at         time.Time
	wire       []byte
}

// prepWorld is one seeded session in virtual time whose server is driven
// the way sessiond drives it — a sweep per arrival and per deadline — with
// or without a Prepare after every sweep. Everything that could tell the two
// apart is recorded: every datagram either side emitted, with its instant.
type prepWorld struct {
	t       *testing.T
	sched   *simclock.Scheduler
	nw      *netem.Network
	path    *netem.Path
	rng     *rand.Rand
	prepare bool

	server     *Server
	client     *Client
	clientAddr netem.Addr
	serverAddr netem.Addr
	key        sspcrypto.Key

	serverTimer *simclock.EventTimer
	wakeClient  func()
	sent        []sentDgram
	// stats accumulates the sender counters of every server incarnation,
	// and prepared the frames its Prepare calls built.
	stats    transport.SenderStats
	prepared int
	lines    int
}

// sweep is what the daemon does after anything happened to the session:
// tick it, and once the replies are out, let it build the next frame ahead;
// then sleep until its deadline (a passed one — a suppressed send — is
// retried a millisecond on, as sessiond's minTickInterval has it).
func (w *prepWorld) sweep() {
	w.server.Tick()
	at, ok := w.server.NextDeadline()
	if w.prepare && w.server.Prepare() {
		w.prepared++
	}
	if !ok {
		return // no client yet: the hello's sweep arms the timer
	}
	if floor := w.sched.Now().Add(time.Millisecond); at.Before(floor) {
		at = floor
	}
	w.serverTimer.Reset(at)
}

func (w *prepWorld) newServer(resume *ServerResume) {
	cfg := ServerConfig{
		Key: w.key, Clock: w.sched, Width: 80, Height: 24, Resume: resume,
		Emit: func(wire []byte) {
			w.sent = append(w.sent, sentDgram{true, w.sched.Now(), bytes.Clone(wire)})
			if dst, ok := w.server.Transport().Connection().RemoteAddr(); ok {
				w.path.Down.Send(netem.Packet{Src: w.serverAddr, Dst: dst, Payload: wire})
			}
		},
		HostInput: func(data []byte) { w.hostInput(data) },
	}
	srv, err := NewServer(cfg)
	if err != nil {
		w.t.Fatal(err)
	}
	w.server = srv
}

// write is one host write, announced as of now, and the sweep it causes.
func (w *prepWorld) write(out string) {
	w.server.HostOutputAt([]byte(out), w.sched.Now())
	w.sweep()
}

// hostInput is the application: most keystrokes are echoed in one write a
// moment later; some answers come as two or three writes a couple of
// milliseconds apart, inside one collection interval; some repaint most of
// the screen.
func (w *prepWorld) hostInput(data []byte) {
	think := time.Duration(w.rng.Intn(4)) * time.Millisecond
	switch k := w.rng.Intn(10); {
	case k < 6:
		w.sched.AfterFunc(think, func() { w.write(string(data)) })
	case k < 8:
		for i, n := 0, 2+w.rng.Intn(2); i < n; i++ {
			part := fmt.Sprintf("[%s:%d]", data, i)
			w.sched.AfterFunc(think+time.Duration(2*i)*time.Millisecond, func() { w.write(part) })
		}
	default:
		var b strings.Builder
		for i, n := 0, 8+w.rng.Intn(30); i < n; i++ {
			w.lines++
			fmt.Fprintf(&b, "\r\nline %04d %s", w.lines, strings.Repeat(string(data), 40))
		}
		w.sched.AfterFunc(think, func() { w.write(b.String()) })
	}
}

func newPrepWorld(t *testing.T, seed int64, prepare bool) *prepWorld {
	w := &prepWorld{
		t: t, sched: simclock.NewScheduler(t0), rng: rand.New(rand.NewSource(seed)), prepare: prepare,
		clientAddr: netem.Addr{Host: 1, Port: 1000}, serverAddr: netem.Addr{Host: 2, Port: 60001},
		key: sspcrypto.Key{byte(seed), 7},
	}
	w.nw = netem.NewNetwork(w.sched)
	w.path = netem.NewPath(w.nw, netem.LinkParams{
		Delay: 12 * time.Millisecond, Jitter: 25 * time.Millisecond, LossProb: 0.08, AllowReorder: true,
	}, seed)
	w.newServer(nil)
	var err error
	w.client, err = NewClient(ClientConfig{
		Key: w.key, Clock: w.sched, Width: 80, Height: 24, Predictions: overlay.Never,
		Emit: func(wire []byte) {
			w.sent = append(w.sent, sentDgram{false, w.sched.Now(), bytes.Clone(wire)})
			// One client datagram in five arrives twice: duplicated acks.
			for i, n := 0, 1+w.rng.Intn(5)/4; i < n; i++ {
				w.path.Up.Send(netem.Packet{Src: w.clientAddr, Dst: w.serverAddr, Payload: wire})
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	w.serverTimer = w.sched.NewEventTimer(w.sweep)
	w.nw.Attach(w.serverAddr, func(p netem.Packet) {
		w.server.Receive(p.Payload, p.Src)
		w.sweep()
	})
	w.wakeClient = Pump(w.sched, w.client)
	w.attachClient()
	w.sched.AfterFunc(0, w.sweep)
	return w
}

func (w *prepWorld) attachClient() {
	w.nw.Attach(w.clientAddr, func(p netem.Packet) {
		w.client.Receive(p.Payload, p.Src)
		w.wakeClient()
	})
}

// typeFor types seeded keystrokes at seeded gaps for d.
func (w *prepWorld) typeFor(d time.Duration) {
	stop := w.sched.Now().Add(d)
	for w.sched.Now().Before(stop) {
		w.client.UserBytes([]byte{byte('a' + w.rng.Intn(26))})
		w.wakeClient()
		w.sched.RunFor(time.Duration(3+w.rng.Intn(120)) * time.Millisecond)
	}
}

// retire folds the current server's counters into the run's total.
func (w *prepWorld) retire() {
	st := w.server.Transport().Sender().Stats()
	w.stats.Instructions += st.Instructions
	w.stats.EmptyAcks += st.EmptyAcks
	w.stats.Fragments += st.Fragments
	w.stats.DiffBytes += st.DiffBytes
	w.stats.Suppressed += st.Suppressed
	w.stats.PreparedSent += st.PreparedSent
}

// restart replaces the server with one resumed from what a journal would
// hold of it: its first frame is the fresh-baseline repaint.
func (w *prepWorld) restart() {
	w.retire()
	old := w.server
	tr, conn := old.Transport(), old.Transport().Connection()
	addr, _ := conn.RemoteAddr()
	w.newServer(&ServerResume{
		Current:  statesync.NewCompleteWithFramebuffer(old.Terminal().Framebuffer().Clone()),
		Baseline: statesync.NewComplete(80, 24),
		Stream:   statesync.RestoreUserStream(tr.RemoteState().Size()),
		Resume: transport.Resume{
			Resume: network.Resume{
				NextSeq:     conn.NextSeq() + 64,
				ExpectedSeq: conn.ExpectedSeq(),
				RemoteAddr:  &addr,
				Heard:       true,
			},
			SendNumFloor: tr.Sender().NumHighWater() + 16,
			RecvNum:      tr.RemoteStateNum(),
		},
	})
	w.sweep()
}

// runPrepWorld plays the whole scenario and returns what was sent, the
// server's counters and how many frames it built ahead.
func runPrepWorld(t *testing.T, seed int64, prepare bool) ([]sentDgram, transport.SenderStats, int) {
	w := newPrepWorld(t, seed, prepare)
	w.sched.RunFor(500 * time.Millisecond)
	w.typeFor(3 * time.Second)

	// The window changes size.
	w.client.Resize(100, 30)
	w.wakeClient()
	w.typeFor(2 * time.Second)

	// The client roams.
	w.nw.Detach(w.clientAddr)
	w.clientAddr = netem.Addr{Host: 77, Port: 7777}
	w.attachClient()
	w.typeFor(2 * time.Second)

	// The state-number reservation runs out mid-traffic, then is extended.
	snd := w.server.Transport().Sender()
	snd.SetNumCeiling(snd.NumHighWater() + 3)
	w.typeFor(time.Second)
	if snd.Stats().Suppressed == 0 {
		t.Fatal("the reservation never ran out: the scenario does not cover it")
	}
	snd.SetNumCeiling(0)
	w.typeFor(2 * time.Second)

	// The daemon restarts.
	w.restart()
	w.typeFor(3 * time.Second)

	w.sched.RunFor(10 * time.Second)
	w.retire()
	if !w.client.ServerState().Equal(w.server.Terminal().Framebuffer()) {
		t.Fatalf("prepare=%v: the client's screen did not converge on the server's", prepare)
	}
	return w.sent, w.stats, w.prepared
}

// TestPreparedFrameEquivalence: a session whose server builds its frames
// ahead of their deadlines puts exactly the datagrams on the wire, at
// exactly the instants, that the same session does without — through loss,
// reordering, duplicated acks, a resize, a roam, acks and further host writes
// landing mid-interval, an exhausted and re-extended reservation, and a
// restart's first repaint. The counters agree too, bar the two that count
// the speculation itself.
func TestPreparedFrameEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed %d", seed), func(t *testing.T) {
			plain, plainStats, plainPrepared := runPrepWorld(t, seed, false)
			ahead, aheadStats, aheadPrepared := runPrepWorld(t, seed, true)
			if plainPrepared != 0 {
				t.Fatalf("the reference run prepared %d frames", plainPrepared)
			}
			t.Logf("%d datagrams, %d data instructions; %d frames prepared, %d sent as prepared",
				len(plain), plainStats.Instructions, aheadPrepared, aheadStats.PreparedSent)
			// A good share of the frames must actually have taken the
			// prepared path (retransmissions and frames carrying only an echo
			// acknowledgment never do), and some must have been overtaken, or
			// the comparison proves little.
			if aheadStats.PreparedSent < plainStats.Instructions/6 {
				t.Errorf("only %d of %d data instructions were sent as prepared", aheadStats.PreparedSent, plainStats.Instructions)
			}
			if aheadPrepared-aheadStats.PreparedSent < 10 {
				t.Errorf("only %d prepared frames were discarded", aheadPrepared-aheadStats.PreparedSent)
			}
			aheadStats.PreparedSent = 0
			if aheadStats != plainStats {
				t.Errorf("sender counters differ:\n plain %+v\n ahead %+v", plainStats, aheadStats)
			}
			if len(plain) != len(ahead) {
				t.Fatalf("%d datagrams without Prepare, %d with", len(plain), len(ahead))
			}
			for i := range plain {
				p, a := plain[i], ahead[i]
				if p.fromServer != a.fromServer || !p.at.Equal(a.at) || !bytes.Equal(p.wire, a.wire) {
					t.Fatalf("datagram %d differs: plain server=%v +%v %d B, ahead server=%v +%v %d B",
						i, p.fromServer, p.at.Sub(t0), len(p.wire), a.fromServer, a.at.Sub(t0), len(a.wire))
				}
			}
		})
	}
}

// prepPair is a server and a client on a Scheduler, wired back to back,
// the test playing network and event loop.
type prepPair struct {
	t        testing.TB
	clk      *simclock.Scheduler
	server   *Server
	client   *Client
	toClient [][]byte
	toServer [][]byte
	spare    [][]byte // delivered server datagrams, reused by Emit
}

func newPrepPair(t testing.TB, w, h int) *prepPair {
	p := &prepPair{t: t, clk: simclock.NewScheduler(t0)}
	key := sspcrypto.Key{9}
	var err error
	p.server, err = NewServer(ServerConfig{
		Key: key, Clock: p.clk, Width: w, Height: h, RecycleWire: true,
		Emit: func(wire []byte) {
			// Copy into a buffer the client is done with, so a warm pair's
			// server side can be measured for allocations.
			var buf []byte
			if n := len(p.spare); n > 0 {
				buf, p.spare = p.spare[n-1], p.spare[:n-1]
			}
			p.toClient = append(p.toClient, append(buf[:0], wire...))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.client, err = NewClient(ClientConfig{
		Key: key, Clock: p.clk, Width: w, Height: h, Predictions: overlay.Never,
		Emit: func(wire []byte) { p.toServer = append(p.toServer, bytes.Clone(wire)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	p.settle(2 * time.Second)
	return p
}

// settle runs both endpoints, delivering everything, a millisecond at a time.
func (p *prepPair) settle(d time.Duration) {
	for end := p.clk.Now().Add(d); p.clk.Now().Before(end); p.clk.RunFor(time.Millisecond) {
		p.server.Tick()
		p.client.Tick()
		for _, w := range p.toServer {
			p.server.Receive(w, netem.Addr{Host: 1, Port: 1})
		}
		for _, w := range p.toClient {
			p.client.Receive(w, netem.Addr{Host: 2, Port: 2})
			p.spare = append(p.spare, w)
		}
		p.toServer, p.toClient = p.toServer[:0], p.toClient[:0]
	}
}

// TestPreparedFrameDiscardedByResize: the client's window changes size
// while a frame is waiting; the frame is dropped and the deadline sends the
// resized screen.
func TestPreparedFrameDiscardedByResize(t *testing.T) {
	p := newPrepPair(t, 80, 24)
	p.server.HostOutputAt([]byte("before the resize"), p.clk.Now())
	built := p.server.Prepare()
	snd := p.server.Transport().Sender()
	if _, ok := snd.PreparedState(); !ok {
		t.Fatal("no frame was prepared")
	}
	p.client.Resize(100, 30)
	p.settle(time.Second)
	if st := snd.Stats(); !built || st.PreparedSent != 0 {
		t.Fatalf("want the prepared frame discarded: %+v", st)
	}
	fb := p.client.ServerState()
	if fb.W != 100 || fb.H != 30 || !strings.HasPrefix(fb.Text(0), "before the resize") {
		t.Fatalf("client has a %dx%d screen showing %q", fb.W, fb.H, fb.Text(0))
	}
}

// TestPreparedFrameSkipsPendingEchoAck: with a keystroke's echo timeout due
// before the send deadline the frame is not built — the acknowledgment would
// change the state under it — and once the timeout has passed it is.
func TestPreparedFrameSkipsPendingEchoAck(t *testing.T) {
	p := newPrepPair(t, 80, 24)
	snd := p.server.Transport().Sender()
	p.client.UserBytes([]byte("k"))
	p.settle(DefaultEchoAckTimeout - 3*time.Millisecond) // the echo timeout is 3 ms away
	p.server.HostOutputAt([]byte("output"), p.clk.Now())
	if p.server.Prepare() {
		t.Fatal("a frame was built with an echo acknowledgment due before its deadline")
	}
	p.clk.RunFor(4 * time.Millisecond)
	p.server.Tick() // the echo acknowledgment lands
	built := p.server.Prepare()
	p.settle(time.Second)
	if st := snd.Stats(); !built || st.PreparedSent != 1 {
		t.Fatalf("want one frame, built after the echo acknowledgment and sent: %+v", st)
	}
	if got := p.client.ServerState().Text(0); !strings.HasPrefix(got, "output") {
		t.Fatalf("client shows %q", got)
	}
}

// TestPreparedRepaintAllocFree: a full 162x64 repaint built ahead and sent
// on its deadline allocates nothing once warm — the snapshot comes off the
// free list, the diff and the deflated payload are built in a scratch the
// process-wide pool lends the frame until it is sent, and there is no second
// payload buffer to fill. (Interpreting the repaint
// allocates the rows it rewrites, and the client's side is the client's:
// neither is inside the measurement.)
func TestPreparedRepaintAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account; CI's non-race full run runs it")
	}
	const cols, rows = 162, 64
	// One P, as testing.AllocsPerRun arranges: the pooled deflate state
	// must come back from the pool it was put in.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := newPrepPair(t, cols, rows)
	var screens [2][]byte
	for i := range screens {
		var b bytes.Buffer
		b.WriteString("\x1b[H")
		for y := 0; y < rows; y++ {
			line := fmt.Sprintf("screen %d row %d ", i, y)
			b.WriteString(strings.Repeat(line, cols/len(line)+1)[:cols-1])
			if y < rows-1 {
				b.WriteString("\r\n")
			}
		}
		screens[i] = b.Bytes()
	}
	snd := p.server.Transport().Sender()
	var ms runtime.MemStats
	mallocs := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	var allocs uint64
	for i := 0; i < 48; i++ {
		if i == 7 {
			// A collection empties sync.Pool's per-P table and the next Put
			// reallocates it: not a frame's cost. So none runs while frames
			// are being counted, and this last warm-up round absorbs the
			// reallocation the previous one left behind.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
		}
		p.server.HostOutputAt(screens[i%2], p.clk.Now())
		before := mallocs()
		p.server.Prepare()
		p.clk.RunFor(50 * time.Millisecond)
		p.server.Tick() // the deadline: check, seal, emit
		if i >= 8 {
			allocs += mallocs() - before
		}
		p.settle(300 * time.Millisecond) // the client applies and acknowledges
	}
	if st := snd.Stats(); st.PreparedSent != 48 || st.Instructions != 48 {
		t.Fatalf("want 48 repaints, each sent as prepared: %+v", st)
	}
	if got := p.client.ServerState().Text(rows - 1); !strings.HasPrefix(got, "screen 1 row 63") {
		t.Fatalf("client shows %q", got)
	}
	if allocs > 0 {
		t.Fatalf("prepare + deadline send of a %dx%d repaint allocated %d times over 40 frames, want 0", cols, rows, allocs)
	}
}

// BenchmarkDeadlineTick162x64 times the tick that serves a bulk reply's send
// deadline — what stands between the collection interval ending and the
// first fragment — with the frame minted there (snapshot, diff, marshal,
// deflate, then ten seals) and with it built during the interval (the check
// and the ten seals). Only that tick is timed: interpreting the 96-line
// burst, the Prepare itself and the client are outside the timer.
func BenchmarkDeadlineTick162x64(b *testing.B) {
	const cols, rows = 162, 64
	var burst bytes.Buffer
	for _, mode := range []string{"minted", "prepared"} {
		b.Run(mode, func(b *testing.B) {
			p := newPrepPair(b, cols, rows)
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				burst.Reset()
				for l := 0; l < 96; l++ {
					for c := 0; c < cols-2; c++ {
						burst.WriteByte(byte('!' + rng.Intn(94))) // incompressible, like the workload's
					}
					burst.WriteString("\r\n")
				}
				p.server.HostOutputAt(burst.Bytes(), p.clk.Now())
				if mode == "prepared" {
					p.server.Prepare()
				}
				p.clk.RunFor(50 * time.Millisecond)
				b.StartTimer()
				p.server.Tick()
				b.StopTimer()
				p.settle(300 * time.Millisecond)
			}
			st := p.server.Transport().Sender().Stats()
			if want := map[string]int{"minted": 0, "prepared": b.N}[mode]; st.PreparedSent != want || st.Instructions != b.N {
				b.Fatalf("%d frames, %d sent as prepared, want %d of %d", st.Instructions, st.PreparedSent, want, b.N)
			}
		})
	}
}

// TestPreparedFrameDiscardedByChangeEqualCannotSee: a frame ends by restoring
// the active rendition and detects scrolls by row generation, neither of
// which Equal compares. A write that changes only those — bypassing
// HostOutput, so nothing announces it — must still retire the waiting frame:
// what leaves is what a sender that never builds ahead would have minted.
func TestPreparedFrameDiscardedByChangeEqualCannotSee(t *testing.T) {
	for name, sneak := range map[string]string{
		"the active rendition":       "\x1b[1;31m",
		"a row rewritten as it was":  "\rabc",
		"a scroll and a rewrite too": "\x1b[24;1H\n\x1b[1;1Habc\x1b[1;4H",
	} {
		t.Run(name, func(t *testing.T) {
			var wires [2][][]byte
			for i, prepare := range []bool{false, true} {
				p := newPrepPair(t, 80, 24)
				p.server.HostOutputAt([]byte("abc"), p.clk.Now())
				if prepare {
					p.server.Prepare()
					if _, ok := p.server.Transport().Sender().PreparedState(); !ok {
						t.Fatal("no frame was prepared")
					}
				}
				snapshot := p.server.Terminal().Framebuffer().Clone()
				p.server.Terminal().Write([]byte(sneak))
				if !p.server.Terminal().Framebuffer().Equal(snapshot) {
					t.Skip("Equal sees this change; the ordinary discard covers it")
				}
				p.clk.RunFor(20 * time.Millisecond)
				p.server.Tick()
				wires[i] = p.toClient
				if st := p.server.Transport().Sender().Stats(); st.PreparedSent != 0 || st.Instructions != 1 {
					t.Fatalf("prepare=%v: want one frame, minted at the deadline: %+v", prepare, st)
				}
			}
			if len(wires[0]) != len(wires[1]) {
				t.Fatalf("%d datagrams without Prepare, %d with", len(wires[0]), len(wires[1]))
			}
			for i := range wires[0] {
				if !bytes.Equal(wires[0][i], wires[1][i]) {
					t.Fatalf("datagram %d differs with a frame prepared and discarded", i)
				}
			}
		})
	}
}
