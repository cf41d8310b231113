package sessiond_test

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/netem"
	"repro/internal/network"
	"repro/internal/overlay"
	"repro/internal/sessiond"
	"repro/internal/simclock"
	"repro/internal/terminal"
	"repro/internal/udpbatch"
)

// memConn is an in-memory served socket: datagrams sent into in are read
// in batches like a vectorized socket's, and writes go to route. Errnos
// queued by failReads are returned by the next reads, in order, before
// anything is read.
type memConn struct {
	in     chan udpbatch.Message
	route  func(dst netem.Addr, wire []byte)
	closed chan struct{}
	once   sync.Once

	mu       sync.Mutex
	readErrs []error
}

func newMemConn(route func(dst netem.Addr, wire []byte)) *memConn {
	// Room for every client of the largest test to have a datagram in
	// flight, like a socket receive buffer.
	return &memConn{in: make(chan udpbatch.Message, 4096), route: route, closed: make(chan struct{})}
}

// send is a client's sendto: it copies wire, and gives up once the socket
// is closed.
func (c *memConn) send(wire []byte, src netem.Addr) {
	select {
	case c.in <- udpbatch.Message{Buf: append([]byte(nil), wire...), Addr: src}:
	case <-c.closed:
	}
}

// failReads queues errs for the next ReadBatch calls, one per call.
func (c *memConn) failReads(errs ...error) {
	c.mu.Lock()
	c.readErrs = append(c.readErrs, errs...)
	c.mu.Unlock()
}

func (c *memConn) BatchCap() int { return udpbatch.DefaultBatch }

func (c *memConn) ReadBatch(msgs []udpbatch.Message) (int, error) {
	c.mu.Lock()
	if len(c.readErrs) > 0 {
		err := c.readErrs[0]
		c.readErrs = c.readErrs[1:]
		c.mu.Unlock()
		return 0, err
	}
	c.mu.Unlock()
	n := 0
	select {
	case m := <-c.in:
		msgs[0].Buf, msgs[0].Addr = append(msgs[0].Buf[:0], m.Buf...), m.Addr
		n = 1
	case <-c.closed:
		return 0, net.ErrClosed
	}
	for n < len(msgs) {
		select {
		case m := <-c.in:
			msgs[n].Buf, msgs[n].Addr = append(msgs[n].Buf[:0], m.Buf...), m.Addr
			n++
		default:
			return n, nil
		}
	}
	return n, nil
}

func (c *memConn) WriteBatch(msgs []udpbatch.Message) (int, error) {
	for i := range msgs {
		c.route(msgs[i].Addr, append([]byte(nil), msgs[i].Buf...))
	}
	return len(msgs), nil
}

func (c *memConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// TestDaemon200ConcurrentSessions runs 200 real-time sessions over one
// served daemon socket — the reader's run-to-completion sweeps against the
// shared tick loop's — with 200 client goroutines hammering it. Every
// session's converged screen must render byte-identically to a plain
// single-session SSP baseline running the same application and
// keystrokes. Run with -race: this is the daemon's concurrency proof.
func TestDaemon200ConcurrentSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time concurrency test")
	}
	const (
		nSessions = 200
		nProfiles = 8
	)
	script := func(profile uint64) string { return fmt.Sprintf("make -j %d\r", profile) }

	// Baselines: one single-session virtual-time run per distinct
	// application profile.
	expect := make([][]byte, nProfiles)
	for p := uint64(0); p < nProfiles; p++ {
		expect[p] = expectedSingleSessionFrame(t, int64(p), script(p))
	}

	// The in-memory "socket": the daemon sends to a client address, the
	// conduit routes to that client's downlink channel. The route table is
	// fully populated before any traffic flows and never mutated after, so
	// the reader's and the tick loop's flushes can read it without a lock.
	routes := make(map[netem.Addr]chan []byte, nSessions)
	daemonSrc := netem.Addr{Host: 9999, Port: 60001}
	conn := newMemConn(func(dst netem.Addr, wire []byte) {
		if ch, ok := routes[dst]; ok {
			select {
			case ch <- wire:
			default: // full downlink models a drop-tail queue; SSP recovers
			}
		}
	})

	d, err := sessiond.New(sessiond.Config{
		Clock:       simclock.Real{},
		NewApp:      func(id uint64) host.App { return host.NewShell(int64(id % nProfiles)) },
		IdleTimeout: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	defer func() {
		d.Close()
		if err := <-served; err != nil {
			t.Errorf("ServeBatch returned %v", err)
		}
	}()

	sessions := make([]*sessiond.Session, nSessions)
	addrs := make([]netem.Addr, nSessions)
	for i := 0; i < nSessions; i++ {
		s, err := d.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
		addrs[i] = netem.Addr{Host: uint32(10 + i), Port: uint16(7000 + i%1000)}
		routes[addrs[i]] = make(chan []byte, 512)
	}
	go func() { served <- d.ServeBatch(conn) }()

	runClient := func(i int) error {
		s := sessions[i]
		down := routes[addrs[i]]
		var cl *core.Client
		cl, err := core.NewClient(core.ClientConfig{
			Key:         s.Key(),
			Clock:       simclock.Real{},
			Envelope:    &network.Envelope{ID: s.ID},
			Predictions: overlay.Never,
			Emit:        func(wire []byte) { conn.send(wire, addrs[i]) },
		})
		if err != nil {
			return err
		}
		for _, b := range []byte(script(s.ID % nProfiles)) {
			cl.UserBytes([]byte{b})
		}
		cl.Tick()
		want := expect[s.ID%nProfiles]
		deadline := time.Now().Add(60 * time.Second)
		for {
			if got := terminal.NewFrame(false, nil, cl.ServerState()); bytes.Equal(got, want) {
				return nil
			}
			if time.Now().After(deadline) {
				got := terminal.NewFrame(false, nil, cl.ServerState())
				return fmt.Errorf("session %d (profile %d) never matched baseline;\n got %q\nwant %q",
					s.ID, s.ID%nProfiles, got, want)
			}
			wait := cl.WaitTime()
			if wait < time.Millisecond {
				wait = time.Millisecond
			}
			if wait > 20*time.Millisecond {
				wait = 20 * time.Millisecond
			}
			select {
			case wire := <-down:
				cl.Receive(wire, daemonSrc)
			case <-time.After(wait):
				cl.Tick()
			}
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, nSessions)
	for i := 0; i < nSessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = runClient(i)
		}(i)
	}
	wg.Wait()
	failed := 0
	for i, err := range errs {
		if err != nil {
			failed++
			if failed <= 3 {
				t.Errorf("client %d: %v", i, err)
			}
		}
	}
	if failed > 0 {
		t.Fatalf("%d/%d sessions failed to match the single-session baseline", failed, nSessions)
	}
	m := d.Metrics()
	if got := m.SessionsLive.Value(); got != nSessions {
		t.Fatalf("SessionsLive = %d, want %d", got, nSessions)
	}
	t.Logf("daemon metrics: in=%d pkts out=%d pkts drops_auth=%d", m.PacketsIn.Value(), m.PacketsOut.Value(), m.DropsAuth.Value())
}

// TestServedSweepsRaceDoAndClose runs everything that can touch a served
// daemon at once: the reader's ingest sweeps (clients typing), the tick
// loop's sweeps (frames and acks coming due), Session.Do callers forcing
// host output and its flush from their own goroutines, session churn, and
// finally Close while all of it is still going. Nothing may race, nothing
// may deadlock, and ServeBatch must return cleanly.
func TestServedSweepsRaceDoAndClose(t *testing.T) {
	const nSessions = 16
	// Replies reach their clients (so each learns its RTT and types at the
	// frame rate, not at the 250 ms no-RTT ceiling); the table is complete
	// before traffic flows.
	var delivered atomic.Int64
	down := make(map[netem.Addr]chan []byte, nSessions)
	for i := 0; i < nSessions; i++ {
		down[netem.Addr{Host: uint32(100 + i), Port: 4000}] = make(chan []byte, 64)
	}
	conn := newMemConn(func(dst netem.Addr, wire []byte) {
		delivered.Add(1)
		select {
		case down[dst] <- wire:
		default:
		}
	})
	d, err := sessiond.New(sessiond.Config{
		Clock:       simclock.Real{},
		NewApp:      func(id uint64) host.App { return host.NewShell(int64(id)) },
		IdleTimeout: -1,
		RecycleWire: true,
		StateDir:    t.TempDir(), // the journal loop joins in
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	sessions := make([]*sessiond.Session, nSessions)
	for i := range sessions {
		if sessions[i], err = d.OpenSession(); err != nil {
			t.Fatal(err)
		}
	}
	served := make(chan error, 1)
	go func() { served <- d.ServeBatch(conn) }()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var typed, did atomic.Int64
	for i, s := range sessions {
		wg.Add(2)
		src := netem.Addr{Host: uint32(100 + i), Port: 4000}
		go func(s *sessiond.Session) { // a client: feeds the reader's sweeps
			defer wg.Done()
			cl, err := core.NewClient(core.ClientConfig{
				Key:         s.Key(),
				Clock:       simclock.Real{},
				Envelope:    &network.Envelope{ID: s.ID},
				Predictions: overlay.Never,
				Emit:        func(wire []byte) { conn.send(wire, src) },
			})
			if err != nil {
				t.Error(err)
				return
			}
			for {
				select {
				case <-stop:
					return
				case wire := <-down[src]:
					cl.Receive(wire, netem.Addr{Host: 9999, Port: 60001})
				case <-time.After(time.Millisecond):
					cl.UserBytes([]byte{'k'})
					cl.Tick()
					typed.Add(1)
				}
			}
		}(s)
		go func(s *sessiond.Session) { // an embedder: emits and flushes from outside both loops
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s.Do(func(srv *core.Server) { srv.HostOutput([]byte("out\r\n")) })
					did.Add(1)
					runtime.Gosched()
				}
			}
		}(s)
	}
	wg.Add(1)
	go func() { // churn: the registry and the timer heap change under the sweeps
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if s, err := d.OpenSession(); err == nil {
					d.CloseSession(s.ID)
				}
				runtime.Gosched()
			}
		}
	}()

	// Close only once every kind of sweep has demonstrably run alongside
	// the others — and while they are all still running.
	deadline := time.Now().Add(30 * time.Second)
	for d.Metrics().PacketsIn.Value() < 500 || delivered.Load() < 500 || did.Load() < 500 || typed.Load() < 500 {
		if time.Now().After(deadline) {
			t.Fatalf("traffic never flowed: in=%d out=%d do=%d typed=%d",
				d.Metrics().PacketsIn.Value(), delivered.Load(), did.Load(), typed.Load())
		}
		time.Sleep(time.Millisecond)
	}
	d.Close()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("ServeBatch returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("ServeBatch did not return after Close")
	}
	close(stop)
	wg.Wait()
}

// daemonGoroutines counts the goroutines with a frame in package sessiond:
// the daemon's own, and the one that called ServeBatch.
func daemonGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("repro/internal/sessiond.")) { // not this package: sessiond_test
			count++
		}
	}
	return count
}

// TestServedPathGoroutinesConstant: a served daemon is its reader, its tick
// loop and nothing per session — the goroutine count with traffic flowing
// is the same at 10 sessions and at 1000.
func TestServedPathGoroutinesConstant(t *testing.T) {
	// An earlier test's tick loop exits on its own schedule after Close; a
	// measurement must not see it.
	quiesce := func() {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for daemonGoroutines() > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%d daemon goroutines outlived their daemon's Close", daemonGoroutines())
			}
			time.Sleep(time.Millisecond)
		}
	}
	serving := func(n int) int {
		t.Helper()
		quiesce()
		conn := newMemConn(func(netem.Addr, []byte) {})
		d, err := sessiond.New(sessiond.Config{
			Clock:       simclock.Real{},
			NewApp:      func(id uint64) host.App { return host.NewShell(int64(id)) },
			IdleTimeout: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		clients := make([]*core.Client, n)
		for i := range clients {
			s, err := d.OpenSession()
			if err != nil {
				t.Fatal(err)
			}
			src := netem.Addr{Host: uint32(i + 1), Port: 5000}
			clients[i], err = core.NewClient(core.ClientConfig{
				Key:         s.Key(),
				Clock:       simclock.Real{},
				Envelope:    &network.Envelope{ID: s.ID},
				Predictions: overlay.Never,
				Emit:        func(wire []byte) { conn.send(wire, src) },
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		served := make(chan error, 1)
		go func() { served <- d.ServeBatch(conn) }()
		// Every session has a keystroke in flight and an echo frame coming
		// due when the count is taken.
		m := d.Metrics()
		deadline := time.Now().Add(30 * time.Second)
		for m.PacketsIn.Value() < int64(n) || m.PacketsOut.Value() < int64(n) {
			if time.Now().After(deadline) {
				t.Fatalf("%d sessions: in=%d out=%d", n, m.PacketsIn.Value(), m.PacketsOut.Value())
			}
			for _, cl := range clients {
				cl.UserBytes([]byte{'k'})
				cl.Tick()
			}
			time.Sleep(2 * time.Millisecond)
		}
		count := daemonGoroutines()
		d.Close()
		if err := <-served; err != nil {
			t.Fatalf("ServeBatch returned %v", err)
		}
		return count
	}
	small, large := serving(10), serving(1000)
	if small != large {
		t.Fatalf("serving 10 sessions runs %d goroutines, serving 1000 runs %d", small, large)
	}
	// The ServeBatch caller (the reader) and the tick loop.
	if small != 2 {
		t.Fatalf("a served daemon runs %d goroutines, want 2 (reader, tick loop)", small)
	}
	quiesce() // and Close leaks neither
}

// TestCloseReleasesTickTimer: the tick loop sleeps on the Clock's timer,
// which under simclock.Real on Linux owns a descriptor and, while armed, a
// parked goroutine. Neither outlives Close: the goroutine count returns to
// where it was at once, the descriptor count once the collector has run.
func TestCloseReleasesTickTimer(t *testing.T) {
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot count descriptors: %v", err)
		}
		return len(ents)
	}
	goroutines, fds := runtime.NumGoroutine(), openFDs()
	settle := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines and %d descriptors, from %d and %d",
					what, runtime.NumGoroutine(), openFDs(), goroutines, fds)
			}
			runtime.GC()
		}
	}
	// Earlier tests' daemons wind down on their own schedule; start level.
	settle("baseline never settled", func() bool {
		g, f := runtime.NumGoroutine(), openFDs()
		level := g == goroutines && f == fds
		goroutines, fds = g, f
		return level
	})
	for i := 0; i < 20; i++ {
		conn := newMemConn(func(netem.Addr, []byte) {})
		d, err := sessiond.New(sessiond.Config{Clock: simclock.Real{}, IdleTimeout: -1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.OpenSession(); err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- d.ServeBatch(conn) }()
		time.Sleep(time.Millisecond) // let the tick loop arm its timer
		d.Close()
		if err := <-served; err != nil {
			t.Fatalf("ServeBatch returned %v", err)
		}
	}
	settle("goroutines outlived Close", func() bool { return runtime.NumGoroutine() <= goroutines })
	settle("descriptors outlived Close", func() bool { return openFDs() <= fds })
}
