package sessiond

import (
	"sync"
	"time"

	"repro/internal/netem"
	"repro/internal/network"
	"repro/internal/telemetry"
	"repro/internal/udpbatch"
)

// This file is the daemon's packet pipeline. It is run to completion: the
// goroutine that has a batch of datagrams (the socket reader under
// ServeBatch, the simulation driver under HandleBatch) demultiplexes it,
// handles each session's datagrams in arrival order under that session's
// lock, and writes out whatever the sweep made the sessions emit before it
// returns. No datagram is handed to another goroutine on the way, so the
// only waits on a keystroke's path are the protocol's own timers.
//
// Ingress: one read moves a whole batch (one recvmmsg on Linux), one
// demultiplex groups it by session, and one lock acquisition per session
// present covers all of that session's datagrams. limits.inboxDepth bounds
// how many datagrams one session may have handled in one sweep; the excess
// is dropped unopened (SSP retransmits), so a flooding session cannot buy
// more than its share of a sweep.
//
// Egress: sessions never write to the socket themselves. emit enqueues
// sealed wire onto a daemon-wide ring, and the sweep that caused the
// emission — ingest, TickDue or Session.Do — drains the ring through
// WriteBatch (one sendmmsg for a whole sweep of sessions) before it
// returns, with explicit backpressure (ring full → drop, SSP retransmits)
// and partial-write handling. Served sockets and virtual-time simulation
// run this same code; only the source of batches and of time differs.

// route accounts an arriving datagram and resolves its session.
func (d *Daemon) route(wire []byte) *Session {
	d.metrics.PacketsIn.Add(1)
	d.metrics.BytesIn.Add(int64(len(wire)))
	id, _, err := network.ParseEnvelope(wire)
	if err != nil {
		d.metrics.DropsBadEnvelope.Add(1)
		return nil
	}
	s := d.reg.lookup(id)
	if s == nil {
		d.metrics.DropsUnknownSession.Add(1)
		return nil
	}
	return s
}

// sessGroup is one session's share of a batch being demultiplexed: n
// datagrams, stored from off in the daemon's arrival-ordered scratch.
type sessGroup struct {
	s      *Session
	n, off int
	// unsettled: the run left work for after the sweep's flush
	// (Session.settle).
	unsettled bool
}

// groupBatch demultiplexes one batch by session, preserving arrival order
// within each session (SSP is order-sensitive per session and indifferent
// across sessions). Group g's datagrams are runs[g.off : g.off+g.n]. Both
// slices are daemon-owned scratch, valid until the next call; only the
// single reader (or the single simulation driver) may call it.
func (d *Daemon) groupBatch(msgs []udpbatch.Message) (groups []sessGroup, runs []udpbatch.Message) {
	// Epoch-stamped O(1) group lookup: a session whose groupEpoch matches
	// this batch already has a slot; anything else starts one. Keeps the
	// demultiplex O(batch) even when a simulation hands over a very large
	// same-instant batch spanning hundreds of sessions.
	d.groupEpoch++
	epoch := d.groupEpoch
	groups = d.groupScratch[:0]
	slot := d.slotScratch[:0]
	for i := range msgs {
		s := d.route(msgs[i].Buf)
		if s == nil {
			slot = append(slot, -1)
			continue
		}
		if s.groupEpoch != epoch {
			s.groupEpoch = epoch
			s.groupIdx = len(groups)
			groups = append(groups, sessGroup{s: s})
		}
		groups[s.groupIdx].n++
		slot = append(slot, s.groupIdx)
	}
	routed := 0
	for g := range groups {
		groups[g].off = routed
		routed += groups[g].n
		groups[g].n = 0
	}
	if cap(d.runScratch) < routed {
		d.runScratch = make([]udpbatch.Message, routed)
	}
	runs = d.runScratch[:routed]
	for i, g := range slot {
		if g >= 0 {
			runs[groups[g].off+groups[g].n] = msgs[i]
			groups[g].n++
		}
	}
	d.groupScratch, d.slotScratch = groups[:0], slot[:0]
	return groups, runs
}

// ingest is the daemon's one packet path: demultiplex the batch, handle
// each session's run in order under its lock, write out what the sweep
// emitted. start is the caller's clock reading for the sweep (the end of
// the read that produced msgs); every stage downstream takes its time from
// it instead of reading the clock per datagram. Wire buffers stay the
// caller's: nothing below retains them past the return.
func (d *Daemon) ingest(msgs []udpbatch.Message, start time.Time) {
	d.rec.Record(telemetry.EvBatchIn, 0, uint64(len(msgs)), start)
	groups, runs := d.groupBatch(msgs)
	d.pipe.Observe(telemetry.StageDemux, d.cfg.Clock.Now().Sub(start))
	// Under the shed policy every session's budget halves: sustained
	// pressure means offered load exceeds what the daemon can move, and a
	// short budget sheds it where it arises (the flooding sessions).
	budget := d.lim.inboxDepth
	if d.shedding(start) {
		budget = max(budget/2, 1)
	}
	for i := range groups {
		g := &groups[i]
		run := runs[g.off : g.off+g.n]
		if over := int64(len(run) - budget); over > 0 {
			// The prefix is admitted and the tail dropped, never the whole
			// run: a budget below the batch size bounds a session without
			// starving it (its coalesced retransmissions ride the prefix).
			d.metrics.DropsQueueFull.Add(over)
			d.rec.Record(telemetry.EvDropQueue, g.s.ID, uint64(over), start)
			d.notePressureDrop(over, start)
			run = run[:budget]
		}
		g.unsettled = g.s.handleRun(run, start)
		// Keep ring occupancy bounded however large the batch: flushing at
		// the high-water mark mid-batch sends the same datagrams at the
		// same instant, it only splits the sweep — so a giant batch can
		// never overflow the ring into drops that one-packet-at-a-time
		// handling would not have suffered.
		if d.metrics.EgressQueueDepth.Value() >= int64(d.lim.egressDepth/2) {
			d.flushEgress()
		}
	}
	d.flushEgress()
	for _, g := range groups {
		if g.unsettled {
			g.s.settle()
		}
	}
	// Zero the scratch so its *Session and wire pointers cannot pin evicted
	// sessions' screen state, or a caller's buffers, through an idle gap.
	clear(groups)
	clear(runs)
}

// HandlePacket is HandleBatch for one datagram (the unbatched baseline).
func (d *Daemon) HandlePacket(wire []byte, src netem.Addr) {
	msgs := [1]udpbatch.Message{{Buf: wire, Addr: src}}
	d.HandleBatch(msgs[:])
}

// HandleBatch is the synchronous entry point (virtual-time simulation,
// tests, and the benchmark's sync-mode ladder): the batch is accounted as
// the reads a socket would have needed to deliver it (iomodel.go), then
// takes one ingest sweep. Replies are emitted via Send before it returns,
// within the same scheduler instant. Like ServeBatch's reader it is
// single-driver: calls must not overlap.
func (d *Daemon) HandleBatch(msgs []udpbatch.Message) {
	if len(msgs) == 0 {
		return
	}
	d.model.chargeRead(&d.metrics, d.pipe, msgs)
	d.ingest(msgs, d.cfg.Clock.Now())
}

// batchWriter is what the egress side needs of a connection: the served
// socket's write half, or the simulation's stand-in for it.
type batchWriter interface {
	WriteBatch(msgs []udpbatch.Message) (n int, err error)
	BatchCap() int
}

// writeBatchCap reports how many datagrams one write syscall moves on the
// daemon's way out (DefaultBatch while it has none).
func (d *Daemon) writeBatchCap() int {
	if wp := d.out.Load(); wp != nil {
		return (*wp).BatchCap()
	}
	return udpbatch.DefaultBatch
}

// ---- Egress ring ----

// egressEntry is one sealed, enveloped datagram awaiting transmission.
type egressEntry struct {
	dst  netem.Addr
	wire []byte
	// at is the clock reading of the sweep that emitted the datagram; the
	// flush turns it into an egress_wait stage observation.
	at time.Time
	// pooled marks wire copied into a daemon pool buffer (RecycleWire
	// mode: the sender reuses its buffer as soon as emit returns, so the
	// ring must own a copy); the flush recycles it after the write.
	pooled bool
}

// egressRing is the bounded queue between emitting sessions and the flush
// that ends their sweep. The reader, the tick loop and Session.Do callers
// all enqueue, under session locks, so enqueue must never block; overflow
// is reported to the caller, which drops the datagram (backpressure — SSP
// treats it as loss and retransmits).
type egressRing struct {
	mu      sync.Mutex
	entries []egressEntry
	head, n int
}

func newEgressRing(capacity int) *egressRing {
	return &egressRing{entries: make([]egressEntry, capacity)}
}

func (r *egressRing) enqueue(e egressEntry) bool {
	r.mu.Lock()
	if r.n == len(r.entries) {
		r.mu.Unlock()
		return false
	}
	r.entries[(r.head+r.n)%len(r.entries)] = e
	r.n++
	r.mu.Unlock()
	return true
}

// drainInto pops up to len(dst) entries in FIFO order.
func (r *egressRing) drainInto(dst []egressEntry) int {
	r.mu.Lock()
	n := r.n
	if n > len(dst) {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		idx := (r.head + i) % len(r.entries)
		dst[i] = r.entries[idx]
		r.entries[idx] = egressEntry{}
	}
	r.head = (r.head + n) % len(r.entries)
	r.n -= n
	r.mu.Unlock()
	return n
}

// enqueueEgress queues one sealed datagram for batched transmission,
// copying it into a pool buffer when the sender recycles its own. at is
// the emitting sweep's clock reading. Called with the emitting session's
// lock held; never blocks. Reports whether the datagram was admitted (the
// caller attributes the drop).
func (d *Daemon) enqueueEgress(dst netem.Addr, wire []byte, at time.Time) bool {
	e := egressEntry{dst: dst, wire: wire, at: at}
	if d.cfg.RecycleWire {
		e.wire = append(d.wirePool.Get(), wire...)
		e.pooled = true
	}
	if !d.egress.enqueue(e) {
		d.metrics.DropsEgressFull.Add(1)
		d.notePressureDrop(1, at)
		if e.pooled {
			d.wirePool.Put(e.wire)
		}
		return false
	}
	// PacketsOut/BytesOut are counted in writeOut, per datagram actually
	// handed to the transport — a later write error must not leave
	// phantom "sent" traffic in the metrics.
	d.metrics.EgressQueueDepth.Add(1)
	return true
}

// flushEgress drains the ring completely, transmitting in batches of the
// write cap. Every sweep that can make sessions emit ends with it (ingest,
// TickDue, Session.Do, Close); egressMu serializes whole sweeps across the
// goroutines that run them. It must not be called with any session lock
// held. The clock is read once per write, and not at all when nothing was
// emitted.
func (d *Daemon) flushEgress() {
	d.egressMu.Lock()
	defer d.egressMu.Unlock()
	var writeStart time.Time
	for {
		// The write cap can change after the first flush (a connection
		// attached by ServeBatch supersedes the pre-serve default);
		// sizing the sweep to the current cap keeps the write-batch
		// histogram and syscall accounting honest.
		if want := d.writeBatchCap(); len(d.egressScratch) != want {
			d.egressScratch = make([]egressEntry, want)
		}
		n := d.egress.drainInto(d.egressScratch)
		if n == 0 {
			return
		}
		d.metrics.EgressQueueDepth.Add(-int64(n))
		if writeStart.IsZero() {
			writeStart = d.cfg.Clock.Now()
		}
		for i := 0; i < n; i++ {
			d.pipe.Observe(telemetry.StageEgressWait, writeStart.Sub(d.egressScratch[i].at))
		}
		d.writeOut(d.egressScratch[:n])
		writeEnd := d.cfg.Clock.Now()
		d.pipe.Observe(telemetry.StageWrite, writeEnd.Sub(writeStart))
		writeStart = writeEnd
		for i := 0; i < n; i++ {
			if d.egressScratch[i].pooled {
				d.wirePool.Put(d.egressScratch[i].wire)
			}
			d.egressScratch[i] = egressEntry{}
		}
	}
}

// writeOut transmits one drained sweep through the daemon's way out — the
// served connection, or the embedder's Send behind its modeled one —
// honoring WriteBatch's short-batch (retry the remainder) and error (drop
// the failing datagram, keep going) semantics.
func (d *Daemon) writeOut(entries []egressEntry) {
	wp := d.out.Load()
	if wp == nil {
		return // not serving and no Send: nowhere to transmit (metrics-only embedder)
	}
	bc := *wp
	msgs := d.writeMsgScratch[:0]
	for i := range entries {
		msgs = append(msgs, udpbatch.Message{Buf: entries[i].wire, Addr: entries[i].dst})
	}
	d.writeMsgScratch = msgs[:0]
	for off := 0; off < len(msgs); {
		n, err := bc.WriteBatch(msgs[off:])
		d.metrics.WriteBatchCalls.Add(1)
		if n < 0 {
			n = 0 // defensive: a negative count must not rewind the sweep
		}
		if n > 0 {
			d.metrics.WriteBatchSizes.Observe(n)
			d.metrics.PacketsOut.Add(int64(n))
			for i := off; i < off+n; i++ {
				d.metrics.BytesOut.Add(int64(len(msgs[i].Buf)))
			}
		}
		off += n
		if err != nil {
			// msgs[off] is undeliverable (e.g. a transient ICMP-induced
			// error): drop it and continue with the rest.
			d.metrics.EgressWriteErrors.Add(1)
			off++
			continue
		}
		if n == 0 {
			// No progress and no error: defensive guard against a stuck
			// implementation; drop the remainder rather than spin.
			d.metrics.EgressWriteErrors.Add(int64(len(msgs) - off))
			break
		}
	}
}

// ServeBatch runs the daemon over a batched connection until the
// connection read fails (socket closed) or the daemon is closed. The
// calling goroutine is the reader, and the reader is the packet path: it
// drains a batch from the socket, runs one ingest sweep over it — demux,
// every session's handling, the egress write — and reads again. The only
// other goroutines are the tick loop and, with persistence, the journal
// loop, however many sessions are live.
func (d *Daemon) ServeBatch(bc udpbatch.Conn) error {
	d.serveConn.Store(&bc)
	select {
	case <-d.stop:
		// Close ran before the store above and found no connection to
		// close; blocking in ReadBatch now would wait for a wake-up nobody
		// is left to send. Close it as Close would have.
		if closer, ok := bc.(interface{ Close() error }); ok {
			closer.Close()
		}
		return nil
	default:
	}
	var w batchWriter = bc
	d.out.CompareAndSwap(nil, &w) // Config.Send, when set, stays the way out
	d.Start()
	slots := min(max(bc.BatchCap(), 1), udpbatch.DefaultBatch)
	// Per-provider read-slot sizing: a provider whose reads can exceed the
	// MTU-derived size declares it via SlotSizer. Without this, an
	// oversized-but-legitimate datagram would truncate, fail the AEAD,
	// and — because SSP retransmits the identical datagram — fail on
	// every retry forever (a livelock, not a loss).
	slotSize := udpbatch.ReadSlotSize(bc, d.wirePool.BufSize())
	// The reader owns its slots for life: a sweep handles every datagram
	// before the next read, and nothing downstream retains wire bytes, so
	// the same buffers go back to the kernel each time.
	msgs := make([]udpbatch.Message, slots)
	for i := range msgs {
		msgs[i].Buf = make([]byte, 0, slotSize)
	}
	for {
		readStart := d.cfg.Clock.Now()
		n, err := bc.ReadBatch(msgs)
		if err != nil {
			select {
			case <-d.stop:
				return nil
			default:
			}
			if udpbatch.IsTransientIOError(err) {
				// Kernel pressure or one peer's ICMP error surfaced as an
				// errno (EINTR, ENOBUFS, ETIMEDOUT, ECONNREFUSED, …):
				// nothing is wrong with the socket, and dying here would
				// kill every session on it. Absorb, breathe, retry.
				d.metrics.ReadErrorsTransient.Add(1)
				d.cfg.Clock.Sleep(time.Millisecond)
				continue
			}
			return err
		}
		select {
		case <-d.stop:
			return nil
		default:
		}
		if n == 0 {
			// Transient-pressure yield (see udpbatch.Conn): back off
			// briefly instead of spinning failing syscalls at the exact
			// moment the kernel is short on memory.
			d.cfg.Clock.Sleep(time.Millisecond)
			continue
		}
		d.metrics.ReadBatchCalls.Add(1)
		d.metrics.ReadBatchSizes.Observe(n)
		// StageRead on the real socket includes the blocking wait for the
		// first datagram — it is "time from wanting data to having it",
		// not pure syscall cost (an idle daemon shows large reads).
		now := d.cfg.Clock.Now()
		d.pipe.Observe(telemetry.StageRead, now.Sub(readStart))
		d.ingest(msgs[:n], now)
	}
}
