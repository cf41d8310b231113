package sessiond

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/netem"
	"repro/internal/network"
	"repro/internal/overlay"
	"repro/internal/simclock"
	"repro/internal/udpbatch"
)

var batchT0 = time.Date(2012, 4, 1, 0, 0, 0, 0, time.UTC)

// envPkt builds a wire datagram carrying just a session envelope plus
// payload bytes (enough for routing/grouping; it will fail auth if
// handled, which grouping tests never do).
func envPkt(id uint64, tag byte) []byte {
	return append(network.AppendEnvelope(nil, id), tag)
}

// TestGroupBatchGroupsPerSessionInOrder checks the demultiplexer: one run
// per session present in the batch, arrival order preserved within each
// run, unknown sessions dropped and counted.
func TestGroupBatchGroupsPerSessionInOrder(t *testing.T) {
	sched := simclock.NewScheduler(batchT0)
	d, err := New(Config{Clock: sched, IdleTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := d.OpenSession()
	s2, _ := d.OpenSession()
	msgs := []udpbatch.Message{
		{Buf: envPkt(s1.ID, 'a'), Addr: netem.Addr{Host: 1}},
		{Buf: envPkt(s2.ID, 'x'), Addr: netem.Addr{Host: 2}},
		{Buf: envPkt(s1.ID, 'b'), Addr: netem.Addr{Host: 1}},
		{Buf: envPkt(0xdead, '?'), Addr: netem.Addr{Host: 3}}, // unknown session
		{Buf: envPkt(s1.ID, 'c'), Addr: netem.Addr{Host: 1}},
		{Buf: envPkt(s2.ID, 'y'), Addr: netem.Addr{Host: 2}},
	}
	groups, runs := d.groupBatch(msgs)
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(groups))
	}
	tags := func(g sessGroup) string {
		var b []byte
		for _, m := range runs[g.off : g.off+g.n] {
			b = append(b, m.Buf[len(m.Buf)-1])
		}
		return string(b)
	}
	if groups[0].s != s1 || tags(groups[0]) != "abc" {
		t.Fatalf("group 0: session %d run %q, want session %d run \"abc\"", groups[0].s.ID, tags(groups[0]), s1.ID)
	}
	if groups[1].s != s2 || tags(groups[1]) != "xy" {
		t.Fatalf("group 1: session %d run %q, want session %d run \"xy\"", groups[1].s.ID, tags(groups[1]), s2.ID)
	}
	if got := d.metrics.DropsUnknownSession.Value(); got != 1 {
		t.Fatalf("DropsUnknownSession = %d, want 1", got)
	}
	if got := d.metrics.PacketsIn.Value(); got != 6 {
		t.Fatalf("PacketsIn = %d, want 6", got)
	}
}

// TestEgressRingBackpressure fills the ring past capacity: overflow must
// be dropped (counted, pooled buffers recycled), never block, and a flush
// must deliver the accepted prefix in order.
func TestEgressRingBackpressure(t *testing.T) {
	sched := simclock.NewScheduler(batchT0)
	var sent []byte
	d, err := NewWithLimits(Config{
		Clock:       sched,
		IdleTimeout: -1,
		Send:        func(dst netem.Addr, wire []byte) { sent = append(sent, wire[0]) },
	}, EgressDepth(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := byte(0); i < 7; i++ {
		d.enqueueEgress(netem.Addr{Host: 1}, []byte{i}, batchT0)
	}
	if got := d.metrics.DropsEgressFull.Value(); got != 3 {
		t.Fatalf("DropsEgressFull = %d, want 3", got)
	}
	if got := d.metrics.EgressQueueDepth.Value(); got != 4 {
		t.Fatalf("EgressQueueDepth = %d, want 4", got)
	}
	if got := d.metrics.PacketsOut.Value(); got != 0 {
		t.Fatalf("PacketsOut = %d before any flush, want 0 (counted on transmit, not enqueue)", got)
	}
	d.flushEgress()
	if !bytes.Equal(sent, []byte{0, 1, 2, 3}) {
		t.Fatalf("flushed %v, want FIFO prefix [0 1 2 3]", sent)
	}
	if got := d.metrics.PacketsOut.Value(); got != 4 {
		t.Fatalf("PacketsOut = %d after flush, want 4 (drops must not count as sent)", got)
	}
	if got := d.metrics.EgressQueueDepth.Value(); got != 0 {
		t.Fatalf("EgressQueueDepth after flush = %d, want 0", got)
	}
}

// attach makes w the daemon's way out, as ServeBatch does with the
// connection it is given.
func attach(d *Daemon, w batchWriter) { d.out.Store(&w) }

// scriptedConn is a batch conn whose WriteBatch follows a script of
// (consume n, maybe error) steps, recording everything delivered — the
// partial-write/error-semantics fixture.
type scriptedConn struct {
	steps []struct {
		n   int
		err error
	}
	delivered []byte
}

func (c *scriptedConn) BatchCap() int                             { return 4 }
func (c *scriptedConn) ReadBatch([]udpbatch.Message) (int, error) { select {} }
func (c *scriptedConn) WriteBatch(msgs []udpbatch.Message) (int, error) {
	step := struct {
		n   int
		err error
	}{n: len(msgs)}
	if len(c.steps) > 0 {
		step = c.steps[0]
		c.steps = c.steps[1:]
	}
	if step.n > len(msgs) {
		step.n = len(msgs)
	}
	for i := 0; i < step.n; i++ {
		c.delivered = append(c.delivered, msgs[i].Buf[0])
	}
	return step.n, step.err
}

// TestWriteOutPartialAndErrorSemantics pins the documented WriteBatch
// contract end to end through the flusher: a short batch is retried from
// the remainder, an erroring datagram is dropped (counted) and the rest
// still goes out.
func TestWriteOutPartialAndErrorSemantics(t *testing.T) {
	sched := simclock.NewScheduler(batchT0)
	d, err := New(Config{Clock: sched, IdleTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	conn := &scriptedConn{}
	conn.steps = []struct {
		n   int
		err error
	}{
		{n: 2},                          // partial write: kernel took 2 of 4
		{n: 1, err: errors.New("icmp")}, // sent 1, next datagram errored
		{n: 0, err: errors.New("icmp")}, // first datagram of remainder errored
	}
	attach(d, conn)
	for i := byte(10); i < 17; i++ {
		d.enqueueEgress(netem.Addr{Host: 1}, []byte{i}, batchT0)
	}
	d.flushEgress()
	// 7 enqueued in batches of 4 (conn.BatchCap) → sweep 1 is [10 11 12 13]:
	// partial 2, then 1+error dropping 13; sweep 2 is [14 15 16]: error drops
	// 14, then default consumes the rest.
	want := []byte{10, 11, 12, 15, 16}
	if !bytes.Equal(conn.delivered, want) {
		t.Fatalf("delivered %v, want %v", conn.delivered, want)
	}
	if got := d.metrics.EgressWriteErrors.Value(); got != 2 {
		t.Fatalf("EgressWriteErrors = %d, want 2", got)
	}
}

// pipeConn is an in-memory bidirectional batch conn for ServeBatch
// end-to-end tests: reads come from a channel, writes land in one.
type pipeConn struct {
	in     chan udpbatch.Message
	out    chan udpbatch.Message
	closed chan struct{}
}

func newPipeConn() *pipeConn {
	return &pipeConn{
		in:     make(chan udpbatch.Message, 256),
		out:    make(chan udpbatch.Message, 256),
		closed: make(chan struct{}),
	}
}

func (p *pipeConn) BatchCap() int { return 8 }

func (p *pipeConn) Close() error {
	select {
	case <-p.closed:
	default:
		close(p.closed)
	}
	return nil
}

func (p *pipeConn) ReadBatch(msgs []udpbatch.Message) (int, error) {
	var first udpbatch.Message
	select {
	case first = <-p.in:
	case <-p.closed:
		return 0, errors.New("closed")
	}
	msgs[0].Buf = append(msgs[0].Buf[:0], first.Buf...)
	msgs[0].Addr = first.Addr
	n := 1
	for n < len(msgs) {
		select {
		case m := <-p.in:
			msgs[n].Buf = append(msgs[n].Buf[:0], m.Buf...)
			msgs[n].Addr = m.Addr
			n++
		default:
			return n, nil
		}
	}
	return n, nil
}

func (p *pipeConn) WriteBatch(msgs []udpbatch.Message) (int, error) {
	for i := range msgs {
		select {
		case p.out <- udpbatch.Message{Buf: append([]byte(nil), msgs[i].Buf...), Addr: msgs[i].Addr}:
		case <-p.closed:
			return i, errors.New("closed")
		}
	}
	return len(msgs), nil
}

// TestServeBatchEndToEnd drives a real client through ServeBatch over an
// in-memory batch conn: the served pipeline — vectorized reader, inline
// per-session runs, egress ring flushed by the sweep that filled it, tick
// loop — must converge the client to the server screen, with RecycleWire
// on (pooled egress copies) to exercise buffer recycling under -race.
func TestServeBatchEndToEnd(t *testing.T) {
	d, err := New(Config{
		Clock:       simclock.Real{},
		IdleTimeout: -1,
		RecycleWire: true,
		NewApp:      func(id uint64) host.App { return host.NewShell(int64(id)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	sess, err := d.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	conn := newPipeConn()
	serveErr := make(chan error, 1)
	go func() { serveErr <- d.ServeBatch(conn) }()

	cl := newTestClient(t, sess, func(wire []byte) {
		conn.in <- udpbatch.Message{Buf: append([]byte(nil), wire...), Addr: netem.Addr{Host: 42, Port: 7}}
	})
	const text = "batchedpipeline"
	for _, b := range []byte(text) {
		cl.UserBytes([]byte{b})
	}
	cl.Tick()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if sawEcho(cl, text) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never saw the echoed text through the batched pipeline")
		}
		select {
		case m := <-conn.out:
			cl.Receive(m.Buf, netem.Addr{Host: 9999, Port: 60001})
		case <-time.After(5 * time.Millisecond):
			cl.Tick()
		}
	}
	if d.metrics.ReadBatchCalls.Value() == 0 || d.metrics.WriteBatchCalls.Value() == 0 {
		t.Fatal("batch syscall counters did not move")
	}
	if got := d.metrics.ReadBatchSizes.Samples(); got == 0 {
		t.Fatal("read batch histogram empty")
	}
	d.Close()
	if err := <-serveErr; err != nil {
		t.Fatalf("ServeBatch returned %v", err)
	}
}

// floodBatch is n spoofed datagrams for session id from one source.
func floodBatch(id uint64, n int) []udpbatch.Message {
	msgs := make([]udpbatch.Message, n)
	for i := range msgs {
		msgs[i] = udpbatch.Message{Buf: envPkt(id, byte(i)), Addr: netem.Addr{Host: 66, Port: 666}}
	}
	return msgs
}

// TestInboxBoundCountsDatagrams pins the per-session admission contract:
// limits.inboxDepth bounds the DATAGRAMS of one session that one ingest
// sweep handles, however they are interleaved with other sessions' in the
// batch, and the budget is per sweep — the next sweep starts afresh.
func TestInboxBoundCountsDatagrams(t *testing.T) {
	sched := simclock.NewScheduler(batchT0)
	d, err := NewWithLimits(Config{
		Clock:            sched,
		IdleTimeout:      -1,
		UnauthQuotaBurst: -1, // every admitted datagram reaches the AEAD and is counted there
		Send:             func(netem.Addr, []byte) {},
	}, InboxDepth(8))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	loud, _ := d.OpenSession()
	quiet, _ := d.OpenSession()
	// 20 datagrams for loud with 5 for quiet interleaved among them.
	var msgs []udpbatch.Message
	for i, m := range floodBatch(loud.ID, 20) {
		msgs = append(msgs, m)
		if i%4 == 0 {
			msgs = append(msgs, udpbatch.Message{Buf: envPkt(quiet.ID, byte(i)), Addr: netem.Addr{Host: 7, Port: 7}})
		}
	}
	d.HandleBatch(msgs)
	if got := d.metrics.DropsQueueFull.Value(); got != 12 {
		t.Fatalf("DropsQueueFull = %d, want 12 (loud's 20 against a budget of 8)", got)
	}
	if got := d.metrics.DropsAuth.Value(); got != 13 {
		t.Fatalf("handled %d datagrams, want 13 (8 of loud's, all 5 of quiet's)", got)
	}
	d.HandleBatch(floodBatch(loud.ID, 8))
	if got := d.metrics.DropsQueueFull.Value(); got != 12 {
		t.Fatalf("DropsQueueFull = %d after a within-budget sweep, want 12 still", got)
	}
	if got := d.metrics.DropsAuth.Value(); got != 21 {
		t.Fatalf("handled %d datagrams, want 21 (the second sweep's 8 admitted whole)", got)
	}
}

// TestInboxBoundAdmitsRunPrefix pins partial admission: a run larger than
// the budget is truncated, not dropped whole, and it is the PREFIX that is
// handled — an authentic keystroke at the head of a flood still reaches
// its application, one behind the budget does not (SSP retransmits it).
func TestInboxBoundAdmitsRunPrefix(t *testing.T) {
	sched := simclock.NewScheduler(batchT0)
	var keys []byte
	d, err := NewWithLimits(Config{
		Clock:       sched,
		IdleTimeout: -1,
		Send:        func(netem.Addr, []byte) {},
		NewApp: func(uint64) host.App {
			return recordApp(func(data []byte) { keys = append(keys, data...) })
		},
	}, InboxDepth(8))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s, _ := d.OpenSession()
	var wires [][]byte
	cl, err := core.NewClient(core.ClientConfig{
		Key:         s.Key(),
		Clock:       sched,
		Envelope:    &network.Envelope{ID: s.ID},
		Predictions: overlay.Never,
		Emit:        func(wire []byte) { wires = append(wires, append([]byte(nil), wire...)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	keystroke := func(b byte) udpbatch.Message {
		wires = wires[:0]
		cl.UserBytes([]byte{b})
		sched.RunFor(300 * time.Millisecond) // no RTT sample yet: the frame interval is its 250 ms ceiling
		cl.Tick()
		if len(wires) == 0 {
			t.Fatal("client put nothing on the wire")
		}
		return udpbatch.Message{Buf: wires[len(wires)-1], Addr: netem.Addr{Host: 1, Port: 1}}
	}
	// Sweep 1: the keystroke leads 11 spoofed datagrams — 12 against 8.
	d.HandleBatch(append([]udpbatch.Message{keystroke('a')}, floodBatch(s.ID, 11)...))
	if got := d.metrics.DropsQueueFull.Value(); got != 4 {
		t.Fatalf("DropsQueueFull = %d, want 4 (tail only, prefix admitted)", got)
	}
	if string(keys) != "a" {
		t.Fatalf("application received %q, want \"a\" (the run's head is inside the budget)", keys)
	}
	// Sweep 2: the keystroke trails them — it is in the dropped tail.
	d.HandleBatch(append(floodBatch(s.ID, 11), keystroke('b')))
	if got := d.metrics.DropsQueueFull.Value(); got != 8 {
		t.Fatalf("DropsQueueFull = %d, want 8", got)
	}
	if string(keys) != "a" {
		t.Fatalf("application received %q: a datagram beyond the budget was handled", keys)
	}
}

// recordApp is a host application that reports its input and says nothing.
type recordApp func(data []byte)

func (recordApp) Start() []byte { return nil }
func (f recordApp) Input(data []byte) ([]byte, time.Duration) {
	f(data)
	return nil, 0
}

// TestBatchEgressAllocFree pins the enqueue→flush cycle at zero heap
// allocations per datagram in steady state, in RecycleWire mode (the
// real-socket configuration: ring copies into pooled buffers).
func TestBatchEgressAllocFree(t *testing.T) {
	sched := simclock.NewScheduler(batchT0)
	d, err := New(Config{
		Clock:       sched,
		IdleTimeout: -1,
		RecycleWire: true,
		Send:        func(netem.Addr, []byte) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	wire := bytes.Repeat([]byte{7}, 120)
	dst := netem.Addr{Host: 3, Port: 4}
	// Warm the pools and scratch.
	for i := 0; i < 8; i++ {
		d.enqueueEgress(dst, wire, batchT0)
	}
	d.flushEgress()
	allocs := testing.AllocsPerRun(500, func() {
		for i := 0; i < 8; i++ {
			d.enqueueEgress(dst, wire, batchT0)
		}
		d.flushEgress()
	})
	if allocs != 0 {
		t.Fatalf("egress enqueue+flush = %.2f allocs per 8-datagram sweep, want 0", allocs)
	}
}

// sinkConn is a served connection that counts what is written to it and
// copies the datagrams into storage it already owns.
type sinkConn struct {
	got  []udpbatch.Message
	used int
}

func (c *sinkConn) BatchCap() int                             { return udpbatch.DefaultBatch }
func (c *sinkConn) ReadBatch([]udpbatch.Message) (int, error) { select {} }
func (c *sinkConn) WriteBatch(msgs []udpbatch.Message) (int, error) {
	for i := range msgs {
		if c.used == len(c.got) {
			c.got = append(c.got, udpbatch.Message{Buf: make([]byte, 0, udpbatch.DefaultBufSize)})
		}
		slot := &c.got[c.used]
		slot.Buf, slot.Addr = append(slot.Buf[:0], msgs[i].Buf...), msgs[i].Addr
		c.used++
	}
	return len(msgs), nil
}

// TestIngestSweepAllocFree pins the served packet path at zero
// allocations of its own: one ingest sweep — demultiplex a batch of
// authentic keystroke datagrams from eight sessions, handle each under its
// session's lock, write a full egress batch to the served connection —
// allocates only what core.Server.Receive allocates for the same
// datagrams: the opened plaintext (network), the decoded Instruction and
// the keystroke's payload (transport's TestDecodeWarmPoolAllocsBounded and
// TestReceiverKeystrokeAllocsBounded). AllocsPerRun cannot bracket a sweep
// whose input the clients must produce in between, so the test counts
// mallocs around each sweep the way AllocsPerRun does.
func TestIngestSweepAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool; CI runs this guard without -race")
	}
	const sessions, warm, sweeps = 8, 50, 200
	sched := simclock.NewScheduler(batchT0)
	d, err := New(Config{
		Clock:       sched,
		IdleTimeout: -1,
		RecycleWire: true,
		NewApp:      func(uint64) host.App { return recordApp(func([]byte) {}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	conn := &sinkConn{}
	attach(d, conn)

	clients := make([]*core.Client, sessions)
	msgs := make([]udpbatch.Message, sessions)
	for i := range clients {
		sess, err := d.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		slot := &msgs[i]
		slot.Addr = netem.Addr{Host: uint32(i + 1), Port: 1}
		clients[i], err = core.NewClient(core.ClientConfig{
			Key:         sess.Key(),
			Clock:       sched,
			Envelope:    &network.Envelope{ID: sess.ID},
			Predictions: overlay.Never,
			RecycleWire: true,
			Emit:        func(wire []byte) { slot.Buf = append(slot.Buf[:0], wire...) },
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// What a tick sweep racing this ingest sweep would have left on the
	// ring: a reply per session, so the sweep's flush has a batch to write.
	reply := bytes.Repeat([]byte{7}, 120)
	nobody := netem.Addr{Host: 999, Port: 9}

	var before, after runtime.MemStats
	var mallocs uint64
	for n := 0; n < warm+sweeps; n++ {
		for _, cl := range clients {
			cl.UserBytes([]byte{'k'})
		}
		// Off the measured path, as on a live daemon: the tick loop mints
		// the acks and echo-ack frames that came due, and the clients hear
		// them, so every client's next diff is one keystroke. The step is
		// past the clients' frame interval (250 ms until the first acks
		// give them an RTT), so every keystroke goes out.
		sched.RunFor(300 * time.Millisecond)
		conn.used = 0
		d.TickDue()
		for _, m := range conn.got[:conn.used] {
			clients[m.Addr.Host-1].Receive(m.Buf, netem.Addr{})
		}
		for _, cl := range clients {
			cl.Tick()
		}
		for range clients {
			d.enqueueEgress(nobody, reply, sched.Now())
		}
		conn.used = 0
		runtime.ReadMemStats(&before)
		d.ingest(msgs, sched.Now())
		runtime.ReadMemStats(&after)
		if n >= warm {
			mallocs += after.Mallocs - before.Mallocs
		}
		if conn.used != sessions {
			t.Fatalf("sweep %d wrote %d datagrams, want the %d queued replies", n, conn.used, sessions)
		}
	}
	if got := d.metrics.DropsAuth.Value(); got != 0 {
		t.Fatalf("%d datagrams failed authentication: the sweep did not handle keystrokes", got)
	}
	t.Logf("%d mallocs over %d datagrams in %d sweeps", mallocs, sweeps*sessions, sweeps)
	// One allocation per sweep of the sweep's own would be 200 over; the
	// runtime's strays (a timer, a GC work buffer) are a handful.
	if over := int64(mallocs) - 3*sweeps*sessions; over > sweeps/10 {
		t.Fatalf("ingest sweeps allocated %d beyond 3 per keystroke datagram (plaintext, Instruction, payload: all core.Server.Receive's) over %d sweeps, want 0",
			over, sweeps)
	}
}

// newTestClient builds a real-time SSP client bound to sess.
func newTestClient(t *testing.T, sess *Session, emit func(wire []byte)) *core.Client {
	t.Helper()
	cl, err := core.NewClient(core.ClientConfig{
		Key:         sess.Key(),
		Clock:       simclock.Real{},
		Envelope:    &network.Envelope{ID: sess.ID},
		Predictions: overlay.Never,
		Emit:        emit,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// sawEcho reports whether the client's reconstructed screen contains text.
func sawEcho(cl *core.Client, text string) bool {
	fb := cl.ServerState()
	var b strings.Builder
	for r := 0; r < fb.H; r++ {
		for c := 0; c < fb.W; c++ {
			b.WriteString(fb.Cell(r, c).String())
		}
		b.WriteByte('\n')
	}
	return strings.Contains(b.String(), text)
}

// sizedConn is a fake provider that declares oversized read slots via
// udpbatch.SlotSizer and truncates kernel-style when handed a smaller
// buffer.
type sizedConn struct {
	slotSize int
	payload  []byte
	gotCap   chan int
	served   bool
	closed   chan struct{}
}

func (c *sizedConn) BatchCap() int        { return 8 }
func (c *sizedConn) ReadSlotSize() int    { return c.slotSize }
func (c *sizedConn) ProviderName() string { return "fake-sized" }

func (c *sizedConn) Close() error {
	select {
	case <-c.closed:
	default:
		close(c.closed)
	}
	return nil
}

func (c *sizedConn) ReadBatch(msgs []udpbatch.Message) (int, error) {
	if c.served {
		<-c.closed
		return 0, errors.New("closed")
	}
	c.served = true
	c.gotCap <- cap(msgs[0].Buf)
	n := len(c.payload)
	if cp := cap(msgs[0].Buf); cp < n {
		n = cp // kernel-style truncation: the exact failure the fix removes
	}
	msgs[0].Buf = msgs[0].Buf[:n]
	copy(msgs[0].Buf, c.payload)
	msgs[0].Addr = netem.Addr{Host: 7, Port: 7}
	return 1, nil
}

func (c *sizedConn) WriteBatch(msgs []udpbatch.Message) (int, error) {
	return len(msgs), nil
}

// TestServeBatchSlotSizing is the regression test for per-provider read
// slot sizing: a provider declaring 64 KiB read slots must receive
// buffers that large, so an oversized-but-legitimate datagram (one larger
// than the MTU-derived slot, a jumbo frame) arrives whole instead of
// truncating —
// truncation fails the AEAD, and since SSP retransmits the identical
// datagram, every retry fails identically (a livelock, not a loss).
func TestServeBatchSlotSizing(t *testing.T) {
	const maxDatagram = 65535 // the UDP payload ceiling
	d, err := New(Config{Clock: simclock.Real{}, IdleTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	payload := append(envPkt(12345, 1), bytes.Repeat([]byte{0xab}, 10000)...)
	conn := &sizedConn{
		slotSize: maxDatagram,
		payload:  payload,
		gotCap:   make(chan int, 1),
		closed:   make(chan struct{}),
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- d.ServeBatch(conn) }()
	select {
	case got := <-conn.gotCap:
		if got < maxDatagram {
			t.Fatalf("read slot cap = %d, want >= %d (declared via SlotSizer)", got, maxDatagram)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeBatch never read")
	}
	// The datagram must reach routing at full length: BytesIn counts the
	// wire bytes as delivered by the provider.
	deadline := time.Now().Add(10 * time.Second)
	for d.metrics.BytesIn.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := d.metrics.BytesIn.Value(); got != int64(len(payload)) {
		t.Fatalf("BytesIn = %d, want %d (oversized datagram truncated)", got, len(payload))
	}
	d.Close()
	<-serveErr
}

// TestIOModelAccounting pins the per-model read-syscall arithmetic against
// a hand-computed batch: 6 same-source equal-length datagrams followed by
// 2 from another source.
func TestIOModelAccounting(t *testing.T) {
	mkBatch := func() []udpbatch.Message {
		var msgs []udpbatch.Message
		a := netem.Addr{Host: 1, Port: 1}
		b := netem.Addr{Host: 2, Port: 2}
		for i := 0; i < 6; i++ {
			msgs = append(msgs, udpbatch.Message{Buf: envPkt(1, byte(i)), Addr: a})
		}
		for i := 0; i < 2; i++ {
			msgs = append(msgs, udpbatch.Message{Buf: envPkt(2, byte(i)), Addr: b})
		}
		return msgs
	}
	cases := []struct {
		model     IOModel
		wantCalls int64
	}{
		{IOModelMMsg, 1}, // one recvmmsg
		{IOModelLoop, 8}, // one syscall per datagram
	}
	for _, tc := range cases {
		t.Run(tc.model.String(), func(t *testing.T) {
			sched := simclock.NewScheduler(batchT0)
			d, err := New(Config{Clock: sched, IdleTimeout: -1, IOModel: tc.model})
			if err != nil {
				t.Fatal(err)
			}
			d.HandleBatch(mkBatch())
			if got := d.metrics.ReadBatchCalls.Value(); got != tc.wantCalls {
				t.Errorf("ReadBatchCalls = %d, want %d", got, tc.wantCalls)
			}
		})
	}
}

// TestIOModelNamesMatchProviderLadder keeps the two name spaces one: every
// rung the socket ladder can be asked for has a model of the same name, and
// a name the ladder refuses has no model either.
func TestIOModelNamesMatchProviderLadder(t *testing.T) {
	for _, r := range udpbatch.ProbeProviders() {
		m, err := ParseIOModel(r.Name)
		if err != nil {
			t.Errorf("provider %q has no I/O model: %v", r.Name, err)
		} else if m.String() != r.Name {
			t.Errorf("ParseIOModel(%q).String() = %q", r.Name, m)
		}
	}
	refused := []string{"uring", "gso"}
	for _, name := range refused {
		if m, err := ParseIOModel(name); err == nil {
			t.Errorf("ParseIOModel(%q) = %v, want an error", name, m)
		}
	}
	c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	defer c.Close()
	for _, name := range refused {
		if bc, err := udpbatch.NewUDPConnProvider(c, name); err == nil {
			t.Errorf("NewUDPConnProvider(%q) = %s, want an error", name, udpbatch.ProviderName(bc))
		}
	}
}
