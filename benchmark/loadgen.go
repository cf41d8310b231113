//go:build linux

package main

import (
	"bufio"
	"container/heap"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/network"
	"repro/internal/overlay"
	"repro/internal/simclock"
	"repro/internal/sspcrypto"
)

// serverProc is the running server child and the parent's end of its
// control pipes.
type serverProc struct {
	cmd      *exec.Cmd
	stdin    io.WriteCloser
	out      *bufio.Reader
	addr     *net.UDPAddr
	keys     []sspcrypto.Key // by session index; the session's ID is index+1
	provider string
}

// startServer spawns this executable as the server child (GOMAXPROCS=1, so
// every server figure is per core) and reads its bootstrap lines.
func startServer(exe string, cfg childConfig) (*serverProc, error) {
	env, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-server")
	cmd.Env = append(os.Environ(), childEnv+"="+string(env), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &serverProc{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout)}
	for {
		line, err := p.out.ReadString('\n')
		if err != nil {
			p.stop()
			return nil, fmt.Errorf("server child bootstrap: %w", err)
		}
		f := strings.Fields(line)
		if len(f) == 2 && f[0] == "READY" {
			p.provider = f[1]
			return p, nil
		}
		var port int
		var key string
		var id uint64
		if _, err := fmt.Sscanf(line, "MOSH CONNECT %d %s %d", &port, &key, &id); err != nil {
			p.stop()
			return nil, fmt.Errorf("server child bootstrap: unexpected line %q", line)
		}
		k, err := sspcrypto.KeyFromBase64(key)
		if err != nil || id != uint64(len(p.keys)+1) {
			p.stop()
			return nil, fmt.Errorf("server child bootstrap: bad session line %q", line)
		}
		p.keys = append(p.keys, k)
		p.addr = &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: port}
	}
}

func (p *serverProc) reset() error {
	_, err := io.WriteString(p.stdin, "reset\n")
	return err
}

func (p *serverProc) snap() (snapshot, error) {
	var s snapshot
	if _, err := io.WriteString(p.stdin, "snap\n"); err != nil {
		return s, err
	}
	line, err := p.out.ReadBytes('\n')
	if err != nil {
		return s, fmt.Errorf("server child snapshot: %w", err)
	}
	return s, json.Unmarshal(line, &s)
}

// stop closes the child's stdin (its signal to shut down), and waits for it
// to exit, killing it if it does not.
func (p *serverProc) stop() error {
	p.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		p.cmd.Process.Kill()
		<-done
		return errors.New("server child did not exit; killed")
	}
}

// pendingKey is a typed keystroke whose echo has not been seen yet.
type pendingKey struct {
	n   int // the keystroke's 1-based index in its session
	due time.Time
}

// echoSample is one observed keystroke→echo: when the echo was seen (ns
// since the run's t0) and how long after the keystroke's due instant.
type echoSample struct {
	at, latency int64
}

// session is one simulated user: a real core.Client and its keystrokes.
type session struct {
	idx    int
	client *core.Client
	drv    *driver

	sched   []keyEvent // scheduled keystrokes; a closed loop schedules only the first
	next    int
	keys    *keyStream // closed loop: the rest of the stream
	typed   int
	echoed  int
	pending []pendingKey

	at   time.Time // next wake-up: a due keystroke or the client's own timer
	hidx int
}

// sessHeap orders a driver's sessions by next wake-up.
type sessHeap []*session

func (h sessHeap) Len() int           { return len(h) }
func (h sessHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h sessHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].hidx = i; h[j].hidx = j }
func (h *sessHeap) Push(x any)        { s := x.(*session); s.hidx = len(*h); *h = append(*h, s) }
func (h *sessHeap) Pop() any          { panic("sessions never leave the heap") }

// driver is one load-generator thread: one UDP socket, one timer heap, and
// a share of the sessions multiplexed over that socket by the session-ID
// envelope. There is no goroutine or socket per session.
type driver struct {
	g    *generator
	conn *net.UDPConn
	fd   int // conn's descriptor, for the driver's own reads and waits
	buf  []byte

	sessions []*session
	timers   sessHeap

	ready     int // sessions holding their first server state
	unechoed  int // keystrokes typed and not yet echoed
	remaining int // scheduled keystrokes not yet typed
	samples   []echoSample
	late      []int64 // open-loop send lateness, ns
	attempted int
}

// generator is the whole load generator: K drivers and N sessions.
type generator struct {
	w        *workload
	sessions []*session
	drivers  []*driver

	t0   time.Time   // zero until the run starts
	stop atomic.Bool // closed loop: stop typing new keystrokes
}

// driverCount is K: leave one core to the server, use at most three.
func driverCount() int {
	k := runtime.NumCPU()
	if k > 4 {
		k = 4
	}
	if k--; k < 1 {
		k = 1
	}
	return k
}

// newGenerator builds the clients for every session srv issued and binds
// the drivers' sockets. span is how long open-loop users type.
func newGenerator(w *workload, seed int64, srv *serverProc, span time.Duration) (*generator, error) {
	g := &generator{w: w}
	for k := 0; k < driverCount(); k++ {
		conn, err := net.DialUDP("udp4", nil, srv.addr)
		if err != nil {
			g.close()
			return nil, err
		}
		// Replies to every session on this driver land in one socket; room
		// for a burst keeps a busy generator from dropping them.
		conn.SetReadBuffer(4 << 20)
		rc, err := conn.SyscallConn()
		if err != nil {
			conn.Close()
			g.close()
			return nil, err
		}
		d := &driver{g: g, conn: conn, buf: make([]byte, 1<<16)}
		if err := rc.Control(func(fd uintptr) { d.fd = int(fd) }); err != nil {
			conn.Close()
			g.close()
			return nil, err
		}
		g.drivers = append(g.drivers, d)
	}
	for idx, key := range srv.keys {
		d := g.drivers[idx%len(g.drivers)]
		s := &session{idx: idx, drv: d}
		var err error
		s.client, err = core.NewClient(core.ClientConfig{
			Key:         key,
			Clock:       simclock.Real{},
			Width:       w.w,
			Height:      w.h,
			Envelope:    &network.Envelope{ID: uint64(idx + 1)},
			Predictions: overlay.Never,
			// A UDP write hands the datagram to the kernel before it
			// returns, so wire buffers are recycled.
			RecycleWire: true,
			Emit:        func(wire []byte) { d.conn.Write(wire) },
		})
		if err != nil {
			g.close()
			return nil, err
		}
		if w.closedLoop() {
			// Only the first keystroke is scheduled (spread over 200 ms so
			// the loop does not start in lockstep); the rest follow echoes.
			s.keys = w.newKeyStream(seed, idx)
			phase := 200 * time.Millisecond * time.Duration(idx) / time.Duration(len(srv.keys))
			s.sched = []keyEvent{{due: phase, data: s.keys.next()}}
		} else {
			s.sched = w.schedule(seed, idx, span)
		}
		d.remaining += len(s.sched)
		d.sessions = append(d.sessions, s)
		heap.Push(&d.timers, s)
		g.sessions = append(g.sessions, s)
	}
	return g, nil
}

func (g *generator) close() {
	for _, d := range g.drivers {
		d.conn.Close()
	}
}

// recv reads one datagram into d.buf and returns its length, 0 for none.
// With a zero until it only polls; otherwise it waits until then. The wait
// is a ppoll on the descriptor rather than a read deadline: Go's network
// poller sleeps in whole milliseconds, which would make every open-loop
// keystroke up to a millisecond late.
func (d *driver) recv(until time.Time) int {
	for {
		n, err := syscall.Read(d.fd, d.buf)
		switch {
		case err == nil:
			return n
		case err == syscall.EINTR:
			continue
		case err != syscall.EAGAIN || until.IsZero():
			// Nothing queued and no wait wanted, or a pending ICMP error
			// (server gone): nothing was read.
			return 0
		}
		wait := time.Until(until)
		if wait <= 0 {
			return 0
		}
		ts := syscall.NsecToTimespec(int64(wait))
		fds := [1]pollFd{{fd: int32(d.fd), events: pollIn}}
		syscall.Syscall6(syscall.SYS_PPOLL, uintptr(unsafe.Pointer(&fds[0])), 1, uintptr(unsafe.Pointer(&ts)), 0, 0, 0)
		// Readable, timed out or interrupted: the read above sorts it out,
		// and a passed deadline ends the wait.
	}
}

// pollFd is struct pollfd.
type pollFd struct {
	fd      int32
	events  int16
	revents int16
}

const pollIn = 0x1

// deliver hands one datagram to its session's client, looks for echoes,
// and returns the time it finished.
func (d *driver) deliver(wire []byte) time.Time {
	id, _, err := network.ParseEnvelope(wire)
	if err != nil || id == 0 || id > uint64(len(d.g.sessions)) {
		return time.Now()
	}
	s := d.g.sessions[id-1]
	if s.drv != d {
		return time.Now()
	}
	had := s.client.Transport().RemoteStateNum() > 0
	s.client.Receive(wire, netem.Addr{})
	now := time.Now()
	if !had && s.client.Transport().RemoteStateNum() > 0 {
		d.ready++
	}
	s.observe(now)
	s.rearm(now)
	return now
}

// observe reads the marker title: keystroke n is echoed once the
// synchronized title reads k>=n.
func (s *session) observe(now time.Time) {
	s.echo(markerCount(s.client.ServerState().Title), now)
}

// echo records that the client's screen, as of now, shows the echo of
// every keystroke up to the n-th.
func (s *session) echo(n int, now time.Time) {
	if n <= s.echoed {
		return
	}
	s.echoed = n
	d := s.drv
	for len(s.pending) > 0 && s.pending[0].n <= n {
		p := s.pending[0]
		s.pending = s.pending[1:]
		d.unechoed--
		d.samples = append(d.samples, echoSample{
			at:      int64(now.Sub(d.g.t0)),
			latency: int64(now.Sub(p.due)),
		})
	}
	if s.keys != nil && len(s.pending) == 0 && !d.g.stop.Load() {
		s.typeKey(s.keys.next(), now)
	}
}

// typeKey types one keystroke that was due at due.
func (s *session) typeKey(data []byte, due time.Time) {
	s.typed++
	s.pending = append(s.pending, pendingKey{n: s.typed, due: due})
	s.drv.unechoed++
	s.drv.attempted++
	s.client.UserBytes(data)
}

// service runs a session's due work: scheduled keystrokes, then the
// client's own timers.
func (s *session) service(now time.Time) {
	d := s.drv
	if t0 := d.g.t0; !t0.IsZero() {
		for s.next < len(s.sched) {
			due := t0.Add(s.sched[s.next].due)
			if due.After(now) {
				break
			}
			if s.keys == nil {
				d.late = append(d.late, int64(now.Sub(due)))
			}
			s.typeKey(s.sched[s.next].data, due)
			s.next++
			d.remaining--
		}
	}
	s.client.Tick()
	s.rearm(now)
}

// rearm recomputes the session's wake-up.
func (s *session) rearm(now time.Time) {
	wait := s.client.WaitTime()
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	at := now.Add(wait)
	if t0 := s.drv.g.t0; !t0.IsZero() && s.next < len(s.sched) {
		if due := t0.Add(s.sched[s.next].due); due.Before(at) {
			at = due
		}
	}
	s.at = at
	heap.Fix(&s.drv.timers, s.hidx)
}

// loop drives the driver's sessions until done reports true: drain the
// socket, run due timers, then sleep in the socket read until the next
// timer or datagram. A due timer (a keystroke, on an open loop) is never
// kept waiting behind queued datagrams: the drain yields as soon as one is
// due.
func (d *driver) loop(done func(now time.Time) bool) {
	for {
		for {
			n := d.recv(time.Time{})
			if n == 0 || !d.deliver(d.buf[:n]).Before(d.timers[0].at) {
				break
			}
		}
		now := time.Now()
		for !d.timers[0].at.After(now) {
			d.timers[0].service(now)
			now = time.Now()
		}
		if done(now) {
			return
		}
		// Wake at least every 20 ms so done is re-evaluated.
		next := now.Add(20 * time.Millisecond)
		if at := d.timers[0].at; at.Before(next) {
			next = at
		}
		if n := d.recv(next); n > 0 {
			d.deliver(d.buf[:n])
		}
	}
}

// handshakeWindow bounds how many introductions are outstanding at once, so
// the burst fits the server's default socket buffer; reintroduceAfter is
// how long a client waits for its first screen before introducing itself
// again (SSP itself would wait a 3 s heartbeat).
const (
	handshakeWindow  = 128
	reintroduceAfter = 250 * time.Millisecond
)

// handshake brings every session up: each client introduces itself, and the
// phase ends when every client holds its first server state.
func (g *generator) handshake() error {
	errs := make(chan error, len(g.drivers))
	for _, d := range g.drivers {
		d := d
		go func() {
			deadline := time.Now().Add(15 * time.Second)
			for i, s := range d.sessions {
				for i-d.ready >= handshakeWindow && time.Now().Before(deadline) {
					if n := d.recv(time.Now().Add(time.Millisecond)); n > 0 {
						d.deliver(d.buf[:n])
					}
				}
				s.service(time.Now())
			}
			retry := time.Now().Add(reintroduceAfter)
			d.loop(func(now time.Time) bool {
				if now.After(retry) {
					retry = now.Add(reintroduceAfter)
					for _, s := range d.sessions {
						if s.client.Transport().RemoteStateNum() == 0 {
							s.client.Transport().Sender().ForceAckSoon()
							s.service(now)
						}
					}
				}
				return d.ready == len(d.sessions) || now.After(deadline)
			})
			if d.ready != len(d.sessions) {
				errs <- fmt.Errorf("handshake: %d of %d sessions never received their first state", len(d.sessions)-d.ready, len(d.sessions))
				return
			}
			errs <- nil
		}()
	}
	var first error
	for range g.drivers {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// quiesceTimeout bounds how long the generator waits for straggling echoes
// after the last keystroke (they have failed long before it runs out, but
// the screens can only be compared once they are in); linger is how long it keeps serving after the
// last echo so acknowledgments settle before screens are compared.
const (
	quiesceTimeout = 10 * time.Second
	linger         = 200 * time.Millisecond
)

// run types every scheduled keystroke (and, closed loop, keeps typing on
// echo until stop is set), then waits for the outstanding echoes. It
// returns when every driver has quiesced.
func (g *generator) run(t0 time.Time) {
	g.t0 = t0
	var wg sync.WaitGroup
	for _, d := range g.drivers {
		d := d
		wg.Add(1)
		go func() {
			defer wg.Done()
			now := time.Now()
			for _, s := range d.sessions {
				s.rearm(now)
			}
			var typingDone, quiet time.Time
			d.loop(func(now time.Time) bool {
				if d.remaining > 0 || (g.w.closedLoop() && !g.stop.Load()) {
					return false
				}
				if typingDone.IsZero() {
					typingDone = now
				}
				if d.unechoed > 0 && now.Sub(typingDone) < quiesceTimeout {
					return false
				}
				if quiet.IsZero() {
					quiet = now
				}
				return now.Sub(quiet) >= linger
			})
		}()
	}
	wg.Wait()
}
