package sessiond_test

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
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
)

// liveHeap reports the bytes still allocated after a full collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC() // the second cycle frees what the first one's sweep finalized
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// pumpedWorld is a daemon and one client per session, pumped by hand on a
// Scheduler used only as a clock: no events and no emulated network, and
// every datagram is delivered in the millisecond it was sent.
type pumpedWorld struct {
	t       *testing.T
	clock   *simclock.Scheduler
	d       *sessiond.Daemon
	sess    []*sessiond.Session
	clients []*core.Client
	up      []pumpedDgram // to the daemon
	down    []pumpedDgram // to the clients
}

type pumpedDgram struct {
	peer int // client index, and its address's Host
	wire []byte
}

var pumpedDaemonAddr = netem.Addr{Host: 9999, Port: 60001}

// newPumpedWorld starts a daemon on cfg (its clock, idle timeout and Send
// are the world's) with the given number of sessions and clients.
func newPumpedWorld(t *testing.T, cfg sessiond.Config, sessions int) *pumpedWorld {
	t.Helper()
	w := &pumpedWorld{t: t, clock: simclock.NewScheduler(epoch)}
	cfg.Clock, cfg.IdleTimeout = w.clock, -1
	cfg.Send = func(dst netem.Addr, wire []byte) {
		w.down = append(w.down, pumpedDgram{int(dst.Host), bytes.Clone(wire)})
	}
	var err error
	if w.d, err = sessiond.New(cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.d.Close)
	for i := 0; i < sessions; i++ {
		s, err := w.d.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		cl, err := core.NewClient(core.ClientConfig{
			Key: s.Key(), Clock: w.clock, Envelope: &network.Envelope{ID: s.ID}, Predictions: overlay.Never,
			Emit: func(wire []byte) { w.up = append(w.up, pumpedDgram{i, bytes.Clone(wire)}) },
		})
		if err != nil {
			t.Fatal(err)
		}
		w.sess, w.clients = append(w.sess, s), append(w.clients, cl)
	}
	return w
}

// run steps the world ms milliseconds.
func (w *pumpedWorld) run(ms int) {
	for ; ms > 0; ms-- {
		for _, cl := range w.clients {
			cl.Tick()
		}
		for _, g := range w.up {
			w.d.HandlePacket(g.wire, netem.Addr{Host: uint32(g.peer), Port: 1000})
		}
		w.up = w.up[:0]
		w.d.TickDue()
		for _, g := range w.down {
			w.clients[g.peer].Receive(g.wire, pumpedDaemonAddr)
		}
		w.down = w.down[:0]
		w.clock.RunFor(time.Millisecond)
	}
}

// await steps the world until done reports true, for at most 10 s.
func (w *pumpedWorld) await(what string, done func() bool) {
	w.t.Helper()
	for ms := 0; !done(); ms++ {
		if ms > 10000 {
			w.t.Fatalf("%s: not within 10 s", what)
		}
		w.run(1)
	}
}

// shows reports whether client i's copy of the screen has s on some row.
func (w *pumpedWorld) shows(i int, s string) bool {
	fb := w.clients[i].ServerState()
	for y := 0; y < fb.H; y++ {
		if strings.Contains(fb.Text(y), s) {
			return true
		}
	}
	return false
}

// bigWriteApp answers the keystroke "w", after a think time, with one host
// write of 100 KB that changes one row of the screen, and every other
// keystroke with nothing.
type bigWriteApp struct{}

func (bigWriteApp) Start() []byte { return nil }
func (bigWriteApp) Input(data []byte) ([]byte, time.Duration) {
	if string(data) != "w" {
		return nil, 0
	}
	out := make([]byte, 0, 100<<10)
	for len(out) < cap(out)-len("written") {
		out = append(out, '\r')
	}
	return append(out, "written"...), 50 * time.Millisecond
}

// TestFlushedHostWriteIsNotRetained: a host write waits in its session's
// queue of pending output until it is due, and once it has been written to
// the terminal nothing may keep it. The queue used to be compacted by
// copying the rest down, which left the written slot past the new length
// still pointing at the write until a later one overwrote it: one host write
// per session, 100 KB here, held for as long as the session was quiet.
func TestFlushedHostWriteIsNotRetained(t *testing.T) {
	w := newPumpedWorld(t, sessiond.Config{Width: 80, Height: 24, NewApp: func(uint64) host.App { return bigWriteApp{} }}, 1)
	w.clients[0].UserBytes([]byte("x")) // the server learns the client's address
	w.run(500)
	w.clients[0].UserBytes([]byte("w"))
	w.run(20) // the keystroke is in, and its response waits out the think time
	queued := liveHeap()
	w.await("the write is shown", func() bool { return w.shows(0, "written") })
	w.await("the frame is acknowledged", func() bool {
		var retained int
		w.sess[0].Do(func(srv *core.Server) { retained = srv.Transport().Sender().SentStateCount() })
		return retained == 1
	})
	drop := queued - liveHeap()
	t.Logf("written and acknowledged: the heap dropped by %d B", drop)
	if drop < 90<<10 {
		t.Errorf("a written and acknowledged 100 KB host write freed only %d B of heap, want >= 90 KiB", drop)
	}
}

// fullRepaint is host output that rewrites every cell of a cols x rows screen
// with text unique to the session, the round and the row.
func fullRepaint(session, round, cols, rows int) []byte {
	var out strings.Builder
	out.WriteString("\x1b[H")
	for y := 0; y < rows; y++ {
		line := fmt.Sprintf("session %d round %d row %d ", session, round, y)
		out.WriteString(strings.Repeat(line, cols/len(line)+1)[:cols-1])
		if y < rows-1 {
			out.WriteString("\r\n")
		}
	}
	return []byte(out.String())
}

// TestSessionHoldsOneScreen is the daemon-level statement of what SSP's
// acknowledgments are for: once the client has acknowledged a state, the
// server forgets everything older (§2.3), so a quiescent session's resident
// memory is its live screen — not that plus the dead snapshots on a free
// list, plus whatever an intern table decided to keep, plus the scratch its
// largest frame was built in. 32 sessions at 162x64 each repaint their whole
// screen 20 times, every repaint acknowledged by a real client. Then five
// more go unacknowledged, and the
// resident gauge, with the row headers it leaves out, must grow by what the
// heap grows by: the snapshots a sender retains are exactly what it used
// not to see. Finally everything
// is acknowledged again and the clients are dropped: what the heap has
// grown by since before the first session was opened is what the sessions
// hold, and it is one screen each.
//
// The world is pumped by hand on a Scheduler used only as a clock, with no
// events and no emulated network, so that nothing but the test's own variables refers to
// the clients and dropping them really frees them.
func TestSessionHoldsOneScreen(t *testing.T) {
	const (
		sessions = 32
		cols     = 162
		rows     = 64
		repaints = 20
	)
	// A screen of ASCII is one narrow content plane a row: what the gauge
	// charges. Its heap rounds each plane up to its size class (162 B to
	// 176 B) and adds each row's header.
	screen := int64(cols * rows * terminal.NarrowCellBytes)
	screenHeap := int64(rows * (176 + terminal.RowHeaderBytes))
	daemonAddr := netem.Addr{Host: 9999, Port: 60001}

	type dgram struct {
		peer int // client index
		wire []byte
	}
	var toServer, toClients []dgram
	clock := simclock.NewScheduler(epoch)
	d, err := sessiond.New(sessiond.Config{
		Clock: clock, IdleTimeout: -1, Width: cols, Height: rows,
		Send: func(dst netem.Addr, wire []byte) {
			toClients = append(toClients, dgram{int(dst.Host), bytes.Clone(wire)})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	before := liveHeap() // the daemon's own fixed cost is not a session's

	var sess []*sessiond.Session
	var clients []*core.Client
	for i := 0; i < sessions; i++ {
		s, err := d.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		cl, err := core.NewClient(core.ClientConfig{
			Key: s.Key(), Clock: clock, Envelope: &network.Envelope{ID: s.ID}, Predictions: overlay.Never,
			Emit: func(wire []byte) { toServer = append(toServer, dgram{i, bytes.Clone(wire)}) },
		})
		if err != nil {
			t.Fatal(err)
		}
		sess, clients = append(sess, s), append(clients, cl)
	}
	repaint := func(round int) {
		for i, s := range sess {
			out := fullRepaint(i, round, cols, rows)
			s.Do(func(srv *core.Server) { srv.HostOutput(out) })
		}
	}
	retained := func(s *sessiond.Session) (n int) {
		s.Do(func(srv *core.Server) { n = srv.Transport().Sender().SentStateCount() })
		return n
	}
	// step is one millisecond of the world; with the downlink cut, what
	// the daemon sends is lost.
	downlink := true
	step := func() {
		for _, cl := range clients {
			cl.Tick()
		}
		for _, g := range toServer {
			d.HandlePacket(g.wire, netem.Addr{Host: uint32(g.peer), Port: 1000})
		}
		toServer = toServer[:0]
		d.TickDue()
		for _, g := range toClients {
			if downlink {
				clients[g.peer].Receive(g.wire, daemonAddr)
			}
		}
		toClients = toClients[:0]
		clock.RunFor(time.Millisecond)
	}
	// await steps the world until every session retains n sent states (and,
	// when shown is set, every client displays it).
	await := func(what string, n int, shown string) {
		t.Helper()
		settled := func() bool {
			for i, cl := range clients {
				if retained(sess[i]) != n || !strings.Contains(cl.ServerState().Text(0), shown) {
					return false
				}
			}
			return true
		}
		for ms := 0; !settled(); ms++ {
			if ms > 20000 {
				t.Fatalf("%s: not settled within 20 s", what)
			}
			step()
		}
	}
	for _, cl := range clients {
		cl.UserBytes([]byte("x")) // the server learns each client's address
	}
	for round := 1; round <= repaints; round++ {
		repaint(round)
		await(fmt.Sprintf("acknowledged repaint %d", round), 1, fmt.Sprintf("round %d row", round))
	}

	// Unacknowledged: with the downlink cut, every further repaint leaves a
	// snapshot the sender must keep. The gauge has to see each one — the
	// heap does. (The clients are still here; they hear nothing new, so
	// what they hold stays out of the difference.)
	const unacked = 5
	gauge := int64(d.ScreenStateStats().ResidentBytesPerSession())
	held := liveHeap()
	downlink = false
	for k := 1; k <= unacked; k++ {
		repaint(repaints + k)
		for _, cl := range clients {
			cl.UserBytes([]byte("x")) // uplink traffic keeps the sessions ticking
		}
		await(fmt.Sprintf("unacknowledged repaint %d", k), 1+k, "")
	}
	gaugeGrowth := int64(d.ScreenStateStats().ResidentBytesPerSession()) - gauge
	heapGrowth := (liveHeap() - held) / sessions
	// Each retained screen is rows fresh rows, each with a header the
	// gauge does not charge.
	seen := gaugeGrowth + unacked*rows*terminal.RowHeaderBytes
	t.Logf("%d unacknowledged repaints: heap +%d B per session, resident gauge +%d B, with row headers +%d B (%.0f%%)",
		unacked, heapGrowth, gaugeGrowth, seen, 100*float64(seen)/float64(heapGrowth))
	if heapGrowth < unacked*screen*9/10 {
		t.Fatalf("heap grew %d B per session for %d retained screens of %d B: the measurement is broken", heapGrowth, unacked, screen)
	}
	if seen < heapGrowth*3/4 || seen > heapGrowth*5/4 {
		t.Errorf("the sender retains %d more screens: heap +%d B per session, resident_bytes_per_session +%d B and %d B of row headers — off by more than 25%%",
			unacked, heapGrowth, gaugeGrowth, unacked*rows*terminal.RowHeaderBytes)
	}

	// Quiescent again: the downlink returns, everything is acknowledged,
	// and the clients go.
	downlink = true
	await("catching up", 1, fmt.Sprintf("round %d row", repaints+unacked))
	clients, toServer, toClients = nil, nil, nil
	step, await = nil, nil
	gauge = int64(d.ScreenStateStats().ResidentBytesPerSession())
	perSession := (liveHeap() - before) / sessions
	t.Logf("quiescent: a session holds %d B of heap = %.2f screens of %d B of heap; the resident gauge reads %d B",
		perSession, float64(perSession)/float64(screenHeap), screenHeap, gauge)
	// One screen, its planes rounded up to their size class and its row
	// headers (18 432 B), and what is not rows: the session itself (its
	// transport, emulator, journal slot and the acknowledged snapshot's
	// shell) and a 32nd of the process-wide bookkeeping, about 16 KiB in
	// all. Nothing is sized by a frame: the diff, instruction, fragment and
	// scroll-detection scratch of a full-screen frame is lent per call and
	// went back to the pool, where a collection frees it (held per session,
	// it was another 65 KiB). A second screen (a dead snapshot, a wider
	// plane) is another 18 KiB or more and does not fit.
	if limit := screenHeap + 24<<10; perSession > limit {
		t.Errorf("a quiescent session holds %d B of heap = %.2f screens, want <= 1 screen + 24 KiB = %d B",
			perSession, float64(perSession)/float64(screenHeap), limit)
	}
	if gauge < screen*9/10 || gauge > screen*11/10 {
		t.Errorf("resident_bytes_per_session reads %d B for sessions holding one %d B screen of unique rows", gauge, screen)
	}
	runtime.KeepAlive(sess)
}

// TestUnconnectedSessionHoldsOneScreen is the same promise for a session
// nobody has connected to yet, which has no acknowledgments to forget by: a
// 162x64 session whose application rewrites the whole screen every 20 ms for a
// minute holds its live screen and the blank state 0 it will diff the first
// frame from (rows born shared, no cells of their own) — not the 32 snapshots a
// sender keeps of frames it sent to no address, assumed delivered for 1.1 s
// each, and could never have acknowledged.
func TestUnconnectedSessionHoldsOneScreen(t *testing.T) {
	const cols, rows = 162, 64
	screen := int64(cols * rows * terminal.NarrowCellBytes)
	screenHeap := int64(rows * (176 + terminal.RowHeaderBytes)) // as in TestSessionHoldsOneScreen
	clock := simclock.NewScheduler(epoch)
	written := 0
	d, err := sessiond.New(sessiond.Config{
		Clock: clock, IdleTimeout: -1, Width: cols, Height: rows,
		Send: func(netem.Addr, []byte) { written++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	before := liveHeap()
	s, err := d.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3000; round++ {
		out := fullRepaint(0, round, cols, rows)
		s.Do(func(srv *core.Server) { srv.HostOutput(out) })
		clock.RunFor(20 * time.Millisecond)
		d.TickDue()
	}
	var retained int
	var sealed uint64
	s.Do(func(srv *core.Server) {
		retained = srv.Transport().Sender().SentStateCount()
		sealed = srv.Transport().Connection().NextSeq()
	})
	if retained != 1 || sealed != 0 || written != 0 {
		t.Fatalf("an unconnected session retains %d snapshots, sealed %d datagrams, wrote %d; want 1, 0, 0", retained, sealed, written)
	}
	held := liveHeap() - before
	gauge := int64(d.ScreenStateStats().ResidentBytesPerSession())
	t.Logf("an unconnected session holds %d B of heap = %.2f screens of %d B of heap; the resident gauge reads %d B",
		held, float64(held)/float64(screenHeap), screenHeap, gauge)
	// TestSessionHoldsOneScreen's bound for a quiescent connected session.
	if limit := screenHeap + 24<<10; held > limit {
		t.Errorf("an unconnected session holds %d B of heap = %.2f screens, want <= 1 screen + 24 KiB = %d B",
			held, float64(held)/float64(screenHeap), limit)
	}
	if gauge < screen*9/10 || gauge > screen*11/10 {
		t.Errorf("resident_bytes_per_session reads %d B for a session holding one %d B screen", gauge, screen)
	}
	runtime.KeepAlive(s)
}

// TestErasedPagerRowsHoldNoCells pins, exactly and on any host, what a
// paging session at the repaint workload's 132x43 holds once each page is
// acknowledged: the 21 rows the pager printed, one byte a cell (20 lines of
// text and the --More-- line, whose inverse video adds a rendition-index
// plane and a palette of the minimum four entries) and a share of the blank
// array all four sessions alias. The other 22 rows were erased by the page's
// ED 2 and point at that array. Were an erased row to fill private blanks
// again, a session would hold every one of its 43 rows: 5 972 B a session
// where this pins 3 101 B.
func TestErasedPagerRowsHoldNoCells(t *testing.T) {
	const (
		sessions   = 4
		cols, rows = 132, 43
		printed    = 21 // host.Pager's 20 lines and its status line
		pages      = 6
	)
	w := newPumpedWorld(t, sessiond.Config{Width: cols, Height: rows,
		NewApp: func(id uint64) host.App { return host.NewPager(int64(id)) }}, sessions)
	retained := func(i int) (n int) {
		w.sess[i].Do(func(srv *core.Server) { n = srv.Transport().Sender().SentStateCount() })
		return n
	}
	row := cols * terminal.NarrowCellBytes
	// The status line's rendition plane and palette, a share of the blank array.
	want := printed*row + cols*terminal.RendIndexBytes + 4*8 + row/sessions
	for page := 1; page <= pages; page++ {
		for _, cl := range w.clients {
			cl.UserBytes([]byte(" "))
		}
		shown := fmt.Sprintf("MANUAL(%d)", page)
		w.await("acknowledged page "+shown, func() bool {
			for i := range w.clients {
				if retained(i) != 1 || !w.shows(i, shown) {
					return false
				}
			}
			return true
		})
		if got := w.d.ScreenStateStats().ResidentBytesPerSession(); got != want {
			t.Fatalf("page %d: resident_bytes_per_session reads %d B, want %d (%d printed rows, a palette, a share of the blank array)",
				page, got, want, printed)
		}
	}
}
