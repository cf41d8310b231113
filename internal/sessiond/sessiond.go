// Package sessiond is the multi-session SSP daemon: it runs N independent
// Mosh sessions behind one UDP socket, where the paper's design (§2.2)
// binds one session to one port. Each datagram carries a cleartext 64-bit
// session-ID envelope (see internal/network); the ID is pure routing —
// authenticity still comes from each session's own AES-OCB key, so a
// spoofed ID merely selects a session whose key rejects the packet.
//
// The daemon owns three things:
//
//   - a sharded session registry with key issuance, idle eviction, and
//     per-session roaming (each session's replies follow the latest
//     authentic source address of that session, independently);
//   - a run-to-completion packet path (batch.go): whole batches of
//     datagrams are read per syscall (recvmmsg on Linux — see
//     internal/udpbatch), demultiplexed by envelope in one sweep, handled
//     session by session on the goroutine that read them, and the replies
//     — funnelled through a daemon-wide egress ring — written out in
//     batches before that goroutine reads again. Sender ticks and delayed
//     host output are driven from a single next-deadline timer heap, whose
//     sweep ends with the same egress write. A daemon serving any number
//     of sessions runs two goroutines (reader, tick loop) plus the journal
//     loop when persistence is on;
//   - a metrics surface (sessions live, packets/bytes in/out, evictions,
//     drops, stage latencies) publishable via expvar.
//
// Production (cmd/mosh-server) calls ServeBatch with a vectorized socket
// and a real clock. Simulation (internal/bench's many-session load
// generator, tests) hands the same sweep its batches through
// HandleBatch/HandlePacket and its ticks through Pump, in virtual time,
// keeping experiments exactly reproducible. There is one packet path; the
// two differ only in who supplies batches and time.
package sessiond

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/host"
	"repro/internal/journal"
	"repro/internal/netem"
	"repro/internal/simclock"
	"repro/internal/statesync"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/udpbatch"
)

// DefaultIdleTimeout evicts sessions that have heard nothing authentic for
// this long. Mosh sessions are deliberately long-lived (roaming clients go
// silent for hours), so the default is generous; a negative Config value
// disables eviction entirely.
const DefaultIdleTimeout = 12 * time.Hour

// minTickInterval is how far ahead a session whose deadline has already
// passed is re-armed, so a deadline its tick cannot serve (a send suppressed
// by the journal's reservation, say) cannot spin the tick loop.
const minTickInterval = time.Millisecond

// Config parameterizes a Daemon.
type Config struct {
	// Clock drives all timing: simclock.Real{} under ServeBatch,
	// a *simclock.Scheduler under Pump/HandleBatch simulation.
	Clock simclock.Clock
	// Send transmits one enveloped wire datagram to dst. It may be nil
	// when the daemon is driven via ServeBatch (which sends on the served
	// connection); when set it takes precedence over one. Datagrams reach
	// it via the egress ring in batches accounted by the write counters
	// (see IOModel); it runs under the egress flush lock and MUST NOT call
	// back into the daemon (HandlePacket, TickDue, Session.Do, …) — doing
	// so self-deadlocks the flush.
	Send func(dst netem.Addr, wire []byte)
	// NewApp builds the host application behind session id (a pty stand-in:
	// shell, editor, mail reader). Nil means sessions have no application
	// and the embedder feeds output through Session.Do. A session restored
	// from the journal calls it too, without replaying Start(): it may hand
	// back an application that survived the restart.
	NewApp func(id uint64) host.App
	// Capacity bounds live sessions; 0 means unlimited.
	Capacity int
	// IdleTimeout evicts sessions silent this long (0 = DefaultIdleTimeout,
	// negative = never evict).
	IdleTimeout time.Duration
	// Width, Height size each session's terminal (default 80×24).
	Width, Height int
	// Timing overrides SSP transport timing (nil = paper defaults).
	Timing *transport.Timing
	// RecycleWire declares Send non-retaining (synchronous socket write),
	// enabling per-session wire-buffer reuse. Must stay false when Send
	// hands buffers to something that holds them (netem links in flight).
	RecycleWire bool
	// IOModel selects which udpbatch provider geometry the simulation's
	// syscall accounting mirrors (mmsg by default;
	// see the IOModel constants). The packet path is identical across
	// models — per-session frame streams are byte-for-byte the same —
	// only the modeled I/O cost differs. Served sockets ignore it: their
	// accounting comes from the real provider.
	IOModel IOModel

	// StateDir enables crash-safe session persistence: the daemon journals
	// every session's durable core there (periodically and on Close, with
	// atomic rename) and New restores journaled sessions on boot, so a
	// restart is just another form of packet loss to the clients. Empty
	// disables persistence entirely.
	StateDir string
	// JournalInterval is the periodic flush cadence in served mode
	// (default DefaultJournalInterval). Simulation embedders drive
	// FlushJournal explicitly instead.
	JournalInterval time.Duration
	// SeqReserve is the per-flush counter reservation (default
	// DefaultSeqReserve): how many datagrams/states a session may emit
	// between flushes. Larger values flush less often under load; smaller
	// values bound how much a hard crash can suppress.
	SeqReserve uint64

	// FS is the filesystem the journal reads and writes through (nil =
	// the real filesystem). Fault tests substitute a faultinject.FaultFS
	// so every operation of the atomic-rename protocol can fail on
	// schedule.
	FS faultinject.FS
	// JournalRetryMin/JournalRetryMax bound the exponential backoff
	// between failed journal-flush attempts (defaults 100ms / 10s). The
	// retry never blocks the packet path: it rides the journal loop's
	// timer (async) or the daemon's deadline heap (simulation).
	JournalRetryMin, JournalRetryMax time.Duration
	// JournalSuspendAfter is how many consecutive flush failures put the
	// journal into its explicit suspended state (default 8; negative
	// never suspends — the daemon retries at JournalRetryMax forever).
	JournalSuspendAfter int
	// FaultSeed seeds the deterministic jitter on journal-retry backoff
	// (0 = a fixed default), keeping fault-schedule runs reproducible.
	FaultSeed int64

	// UnauthQuotaBurst/UnauthQuotaRate parameterize the per-source token
	// bucket on auth-failing datagrams: a source that fails
	// authentication Burst times faster than Rate tokens/second refill is
	// refused before the AEAD runs, so a spoofed-envelope flood cannot
	// starve live sessions of CPU. Any authentic datagram clears its
	// source's record, so a legitimate roaming client can never be locked
	// out. Defaults 64 and 16/s; a negative Burst disables the quota.
	UnauthQuotaBurst int
	UnauthQuotaRate  float64

	// OnEcho, when non-nil, observes every matched keystroke→echo-frame
	// completion: the session, the end-to-end latency, and the smoothed
	// RTT at match time (0 before the first RTT sample). Called with the
	// session's lock held — it must be fast and must not call back into
	// the daemon.
	OnEcho func(session uint64, latency, srtt time.Duration)
	// OnDegrade, when non-nil, receives a human-readable flight-recorder
	// dump whenever a degradation state trips: pressure shed, journal
	// suspension, or unauth-quota exhaustion. Dumps are rate limited to
	// one per reason per 10 s. May be called with daemon or session
	// locks held — it must not call back into the daemon (write the dump
	// somewhere and return).
	OnDegrade func(reason string, dump []byte)
}

// limits are the daemon's fixed bounds. Nothing outside the tests of the
// bounds themselves ever asked for other values, so production has one set
// (defaultLimits) and no Config field; those tests build a daemon with small
// ones through newDaemon.
type limits struct {
	// inboxDepth bounds how many of one session's datagrams a single
	// ingest sweep handles: the prefix of the session's run is admitted,
	// the excess is dropped unopened and counted in drops_queue_full — SSP
	// retransmits. It is what keeps a flooding session from buying more
	// than its share of a sweep; the shed policy halves it.
	inboxDepth int
	// egressDepth bounds the daemon-wide egress ring in datagrams. Overflow
	// drops the datagram (drops_egress_full) — backpressure; a sweep
	// flushes at half occupancy, so only a single session emitting
	// thousands of datagrams at once can reach it.
	egressDepth int
	// journalCompactMinBytes floors the segment-tail growth that triggers
	// compaction back into a checkpoint. The trigger itself is relative:
	// the tail must also outgrow twice the checkpoint, bounding the log at
	// O(live state).
	journalCompactMinBytes int64
	// When pressure drops (sweep budgets exceeded, full egress ring) reach
	// shedThreshold within shedWindow, the daemon sheds for shedHold —
	// halving every session's sweep budget so the flood pays for the
	// pressure it creates — and meters the event (shed_events).
	shedThreshold        int64
	shedWindow, shedHold time.Duration
}

var defaultLimits = limits{
	inboxDepth:             128,
	egressDepth:            4096,
	journalCompactMinBytes: DefaultJournalCompactMinBytes,
	shedThreshold:          DefaultShedThreshold,
	shedWindow:             time.Second,
	shedHold:               2 * time.Second,
}

// Daemon multiplexes many SSP sessions over one socket.
type Daemon struct {
	cfg     Config
	lim     limits
	reg     *registry
	timers  *timerHeap
	metrics Metrics
	nextID  atomic.Uint64

	// openMu serializes OpenSession's capacity check against its insert so
	// concurrent opens cannot over-admit.
	openMu sync.Mutex

	// journal is the persistence of the sessions' durable cores (nil when
	// Config.StateDir is empty); see durable.go.
	journal *journal.Journal

	// quota is the per-source unauthenticated-datagram token bucket (nil
	// when disabled); shed is the sweep-budget/egress pressure-shed policy.
	quota *unauthQuota
	shed  shedState

	// pipe is the stage-latency/echo pipeline and rec the flight recorder
	// (neither is nil). dumpMu/lastDump rate-limit OnDegrade dumps per
	// reason.
	pipe     *telemetry.Pipeline
	rec      *telemetry.Recorder
	dumpMu   sync.Mutex
	lastDump map[string]int64

	// out is where egress flushes write: the simulated socket wrapping
	// Config.Send when that is set (New installs it), else the connection
	// ServeBatch runs on; nil until one of them exists. model accounts the
	// read side of batches handed to HandleBatch. serveConn remembers the
	// served connection so Close can unblock its pending read.
	out       atomic.Pointer[batchWriter]
	model     *modelConn
	serveConn atomic.Pointer[udpbatch.Conn]

	// Batched I/O state: pooled egress copies (RecycleWire), the
	// daemon-wide egress ring, and the demultiplexer/flush scratch (single
	// reader / single sim driver; egressMu serializes flush sweeps).
	wirePool        *udpbatch.Pool
	egress          *egressRing
	groupScratch    []sessGroup
	slotScratch     []int
	runScratch      []udpbatch.Message
	groupEpoch      uint64
	egressMu        sync.Mutex
	egressScratch   []egressEntry
	writeMsgScratch []udpbatch.Message

	startOnce sync.Once
	closeOnce sync.Once
	stop      chan struct{}

	// closing gates packet handling during shutdown: it is set BEFORE the
	// final journal flush, so no input can be delivered to an application
	// after the snapshot that a restore will resume from — that ordering
	// is what makes a clean shutdown exactly-once. Packets arriving in the
	// window are dropped; SSP retransmits them to the next incarnation.
	closing atomic.Bool
}

// New builds a daemon. Clock is required.
func New(cfg Config) (*Daemon, error) { return newDaemon(cfg, defaultLimits) }

func newDaemon(cfg Config, lim limits) (*Daemon, error) {
	if cfg.Clock == nil {
		return nil, errors.New("sessiond: Config.Clock is required")
	}
	if !cfg.IOModel.valid() {
		return nil, fmt.Errorf("sessiond: unknown io model %d", int(cfg.IOModel))
	}
	if cfg.Width == 0 {
		cfg.Width = 80
	}
	if cfg.Height == 0 {
		cfg.Height = 24
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = DefaultIdleTimeout
	}
	if cfg.SeqReserve == 0 {
		cfg.SeqReserve = DefaultSeqReserve
	}
	if cfg.UnauthQuotaBurst == 0 {
		cfg.UnauthQuotaBurst = DefaultUnauthQuotaBurst
	}
	if cfg.UnauthQuotaRate <= 0 {
		cfg.UnauthQuotaRate = DefaultUnauthQuotaRate
	}
	// Wire-buffer slots must hold any datagram this daemon's transport
	// can legitimately produce: the configured MTU (fragment contents)
	// plus headers, envelope, AEAD tag and slack. A truncated read would
	// fail authentication and, because SSP retransmits the identical
	// datagram, stall its session forever.
	bufSize := udpbatch.DefaultBufSize
	if cfg.Timing != nil && cfg.Timing.MTU > 0 {
		if need := cfg.Timing.MTU + 512; need > bufSize {
			bufSize = need
		}
	}
	d := &Daemon{
		cfg:      cfg,
		lim:      lim,
		reg:      newRegistry(),
		timers:   newTimerHeap(),
		model:    &modelConn{model: cfg.IOModel, send: cfg.Send},
		stop:     make(chan struct{}),
		wirePool: udpbatch.NewPool(bufSize, lim.egressDepth),
		egress:   newEgressRing(lim.egressDepth),
	}
	if cfg.Send != nil {
		var w batchWriter = d.model
		d.out.Store(&w)
	}
	if cfg.UnauthQuotaBurst > 0 {
		d.quota = newUnauthQuota(float64(cfg.UnauthQuotaBurst), cfg.UnauthQuotaRate)
	}
	// Telemetry must exist before restore: sessions revived from the
	// journal get their probe wired at construction like fresh ones.
	d.pipe = telemetry.NewPipeline()
	d.rec = telemetry.NewRecorder(0)
	d.lastDump = make(map[string]int64)
	if cfg.StateDir != "" {
		if err := d.openJournal(); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Metrics exposes the daemon's counters.
func (d *Daemon) Metrics() *Metrics { return &d.metrics }

// Pipeline exposes the stage-latency/echo telemetry (never nil).
func (d *Daemon) Pipeline() *telemetry.Pipeline { return d.pipe }

// FlightRecorder exposes the event ring (never nil).
func (d *Daemon) FlightRecorder() *telemetry.Recorder { return d.rec }

// degradeDumpInterval rate-limits OnDegrade dumps: a sustained flood
// trips its degradation state on every packet, but one dump per reason
// per interval is what a human (or a log pipeline) can use.
const degradeDumpInterval = 10 * time.Second

// degrade records a degradation-state trip in the flight recorder and,
// when the embedder asked for dumps, hands it a rendered dump of the
// events leading up to the trip (rate limited per reason). Callers may
// hold session locks; OnDegrade must not call back into the daemon.
func (d *Daemon) degrade(reason string, code telemetry.Code, session, arg uint64, at time.Time) {
	d.rec.Record(code, session, arg, at)
	cb := d.cfg.OnDegrade
	if cb == nil {
		return
	}
	now := at.UnixNano()
	d.dumpMu.Lock()
	last, seen := d.lastDump[reason]
	if seen && now-last < int64(degradeDumpInterval) {
		d.dumpMu.Unlock()
		return
	}
	d.lastDump[reason] = now
	d.dumpMu.Unlock()
	cb(reason, d.FlightDump(reason))
}

// FlightDump renders the flight recorder human-readably: every buffered
// event, oldest first. Also the SIGQUIT handler's payload in
// cmd/mosh-server.
func (d *Daemon) FlightDump(reason string) []byte {
	now := d.cfg.Clock.Now()
	d.rec.Record(telemetry.EvDump, 0, 0, now)
	return d.rec.AppendDump(nil, reason, now)
}

// Lookup returns the live session with the given ID, or nil.
func (d *Daemon) Lookup(id uint64) *Session { return d.reg.lookup(id) }

// Sessions returns the live sessions in ascending ID order (a snapshot;
// sessions may be removed concurrently).
func (d *Daemon) Sessions() []*Session {
	var out []*Session
	d.reg.each(func(s *Session) { out = append(out, s) })
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// ---- Tick side ----

// TickDue runs every session whose deadline has arrived, then flushes
// their emissions as one egress sweep (sessions ticking at the same
// instant share write batches) — the tick side's run to completion, on one
// clock reading. The sim driver calls it from Pump; the tick loop calls it
// from its sleeper. In simulation it also drives a due journal-retry (the
// journal loop owns that job in served mode, keeping disk I/O off the tick
// loop).
func (d *Daemon) TickDue() {
	now := d.cfg.Clock.Now()
	due := d.timers.popDue(now)
	for _, s := range due {
		s.tick(now)
	}
	if j := d.journal; j != nil {
		if at, ok := j.RetryAt(); ok && !now.Before(at) {
			j.Flush(false) // outcome recorded in metrics/backoff state
		}
	}
	d.flushEgress()
	for _, s := range due {
		s.settle()
	}
}

// NextDeadline reports the earliest pending deadline: session timers
// plus, in simulation mode, a pending journal-retry.
func (d *Daemon) NextDeadline() (time.Time, bool) {
	at, ok := d.timers.next()
	if j := d.journal; j != nil {
		if rt, retry := j.RetryAt(); retry && (!ok || rt.Before(at)) {
			at, ok = rt, true
		}
	}
	return at, ok
}

// Pump attaches the daemon to a simulation scheduler with a
// self-rescheduling timer (the virtual-time analogue of the served tick
// loop) and returns a wake function to call after delivering packets.
func (d *Daemon) Pump(sched *simclock.Scheduler) (wake func()) {
	var pump func()
	timer := sched.NewEventTimer(func() { pump() })
	pump = func() {
		d.TickDue()
		if at, ok := d.NextDeadline(); ok {
			timer.Reset(at)
		}
	}
	sched.AfterFunc(0, pump)
	return pump
}

// ---- Serving (production) ----

// Start launches the next-deadline tick loop (and, with persistence
// configured, the journal flush loop). It is called implicitly by
// ServeBatch and is idempotent. Requires a real clock.
func (d *Daemon) Start() {
	d.startOnce.Do(func() {
		go d.tickLoop()
		if d.journal != nil {
			// The journal's loop owns flush-retry timing from here on; the
			// simulation deadline hooks (RetryAt) stand down so the tick
			// loop never does disk I/O.
			d.journal.Start(d.stop)
		}
	})
}

// tickLoop sleeps until the earliest session deadline and ticks every due
// session — one goroutine for the whole daemon, woken early whenever a new
// minimum is armed. The sleep goes through the injected Clock: deadlines
// are computed against Clock.Now, so sleeping on anything else (a real
// time.Timer, say) silently miscomputes every sleep the moment a non-real
// clock is injected.
func (d *Daemon) tickLoop() {
	timer := d.cfg.Clock.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		var sleeve <-chan time.Time
		if at, ok := d.timers.next(); ok {
			dur := at.Sub(d.cfg.Clock.Now())
			if dur < 0 {
				dur = 0
			}
			if !timer.Stop() {
				select {
				case <-timer.C():
				default:
				}
			}
			timer.Reset(dur)
			sleeve = timer.C()
		}
		select {
		case <-d.stop:
			return
		case <-d.timers.wake:
			// New earliest deadline; recompute the sleep.
		case <-sleeve:
			d.TickDue()
		}
	}
}

// Close stops the tick loop, flushes the journal one final time (so a
// clean shutdown preserves every session for the next incarnation), removes
// every session, and — when the served connection supports Close —
// unblocks ServeBatch's pending read so it returns.
func (d *Daemon) Close() {
	d.closeOnce.Do(func() {
		// Order matters for exactly-once delivery across a clean restart:
		// stop accepting input first (closing gate + stop channel), THEN
		// take the final snapshot. Any handle() in flight when the gate
		// rises holds its session lock and therefore completes before the
		// flush encodes that session.
		d.closing.Store(true)
		close(d.stop)
		if d.journal != nil {
			// The on-shutdown flush bypasses the retry gate and gets a few
			// bounded attempts: under a probabilistic fault schedule a
			// retry often lands, and this snapshot is the next
			// incarnation's whole world. Persistent failure is recorded in
			// metrics and the sessions are lost — the documented cost of
			// dying while the disk is refusing writes.
			for attempt := 0; attempt < 3; attempt++ {
				if err := d.journal.Flush(true); err == nil {
					break
				}
			}
		}
	})
	// Give queued replies one final sweep before the transport goes away
	// (a Session.Do racing Close may have enqueued after its own flush).
	d.flushEgress()
	if bcp := d.serveConn.Load(); bcp != nil {
		if closer, ok := (*bcp).(interface{ Close() error }); ok {
			closer.Close()
		}
	}
	d.reg.each(func(s *Session) {
		s.mu.Lock()
		s.removeLocked(&d.metrics.SessionsClosed)
		s.mu.Unlock()
	})
}

// ---- Per-session machinery ----

// handleRun processes one session's share of an ingest sweep, in arrival
// order under one lock acquisition, emitting any replies onto the egress
// ring. now is the sweep's clock reading. It reports whether the run left
// the session anything to settle once the sweep has flushed: host output it
// applied to the screen, or a frame waiting out its collection interval. A
// run of acknowledgments, the common one, leaves neither.
func (s *Session) handleRun(run []udpbatch.Message, now time.Time) (unsettled bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.now = now
	for i := range run {
		if s.handleLocked(run[i].Buf, run[i].Addr, now) {
			unsettled = true
		}
	}
	return unsettled || s.srv.Transport().Sender().Collecting()
}

// handleLocked processes one datagram for this session, and reports whether
// it applied host output to the screen.
func (s *Session) handleLocked(wire []byte, src netem.Addr, now time.Time) (flushed bool) {
	if s.closed || s.d.closing.Load() {
		s.d.metrics.DropsUnknownSession.Add(1)
		return false
	}
	if q := s.d.quota; q != nil && q.blocked(src, now) {
		// This source has been failing authentication faster than its
		// token bucket refills: refuse the datagram BEFORE the AEAD runs,
		// so a spoofed-envelope flood pays nothing but an envelope parse
		// and cannot starve live sessions of CPU.
		s.d.metrics.DropsUnauthQuota.Add(1)
		s.d.degrade("unauth-quota", telemetry.EvQuotaBlocked, s.ID, 0, now)
		return false
	}
	roamsBefore := s.srv.Transport().Connection().RemoteAddrChanges()
	if err := s.srv.Receive(wire, src); errors.Is(err, statesync.ErrBadDiff) {
		// The datagram passed the AEAD, so its sender holds the key: a
		// diff that would not apply is no forgery, and its source is not
		// charged against the quota for unauthenticated floods.
		s.d.metrics.DropsBadDiff.Add(1)
		s.d.rec.Record(telemetry.EvDropBadDiff, s.ID, 0, now)
	} else if err != nil {
		// Forged, replayed or stale: normal network noise at this layer;
		// the envelope got it here but the key said no.
		s.d.metrics.DropsAuth.Add(1)
		s.d.rec.Record(telemetry.EvDropAuth, s.ID, 0, now)
		if q := s.d.quota; q != nil {
			q.charge(src, now)
		}
	} else {
		s.lastActive = now
		if q := s.d.quota; q != nil {
			// Forgive-on-success: an authentic datagram clears its
			// source's failure record, so a legitimate client sharing an
			// address with noise (NAT, injected corruption) can never be
			// locked out.
			q.forgive(src)
		}
		if roams := s.srv.Transport().Connection().RemoteAddrChanges(); roams > roamsBefore {
			s.d.metrics.RoamingEvents.Add(int64(roams - roamsBefore))
			s.d.rec.Record(telemetry.EvRoam, s.ID, uint64(roams), now)
		}
		// An accepted datagram moved durable state: the replay floor at
		// minimum, usually also the delivered-input watermarks (and the
		// screen, via any host output it provoked).
		s.markDirty()
	}
	// Echo matching brackets the output flush: a frame minted during
	// Receive echoes output applied on earlier entries (match before the
	// flush adds new waiters), and a frame minted inside the flush's own
	// HostOutput tick echoes what it just applied (match again after).
	s.noteEchoLocked(now)
	flushed = s.flushHostOutputLocked(now)
	s.noteEchoLocked(now)
	s.maybeRequestFlushLocked()
	s.rearmLocked(now)
	return flushed
}

// tick advances timers for this session: due host output, the transport's
// sender timing, and the idle-eviction check. now is the tick sweep's
// clock reading.
func (s *Session) tick(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.now = now
	// The tick loop popped this session's heap entry; whatever deadline
	// was armed is gone, so the rearm below must not dedup against it.
	s.lastArmed = time.Time{}
	s.flushHostOutputLocked(now)
	s.srv.Tick()
	// Both the flush's HostOutput tick and srv.Tick can mint the frame
	// that echoes the output applied above; one match pass covers both.
	s.noteEchoLocked(now)
	// Idle eviction applies only to sessions a client has actually used:
	// a pre-issued slot whose MOSH CONNECT line nobody has redeemed yet
	// waits indefinitely, like a listening mosh-server does.
	if idle := s.d.cfg.IdleTimeout; idle > 0 && now.Sub(s.lastActive) >= idle {
		if _, heard := s.srv.Transport().Connection().LastHeard(); heard {
			s.removeLocked(&s.d.metrics.SessionsEvicted)
			return
		}
	}
	s.maybeRequestFlushLocked()
	s.rearmLocked(now)
}

// settle is the post-flush pass a sweep (ingest, TickDue, Session.Do) gives
// the sessions it left something to settle, once its replies are on the
// wire: the work no client is waiting for. If the sweep left a frame waiting
// out its collection interval, that frame is built now (core.Server.Prepare)
// so that the tick serving its deadline has only to seal and write it.
func (s *Session) settle() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if s.srv.Prepare() {
		s.d.metrics.FramesPrepared.Add(1)
	}
}

// hostInput feeds decoded user keystrokes to the host application and
// queues its (delayed) response. Called by core.Server during Receive,
// with s.mu held; the keystroke arrived at s.now.
func (s *Session) hostInput(data []byte) {
	if s.app == nil {
		return
	}
	s.d.rec.Record(telemetry.EvKeystroke, s.ID, uint64(len(data)), s.now)
	// keyAt tags the response with its keystroke's arrival time so the
	// echo tracker can match it to the first frame that conveys it.
	s.appInputLocked(data, s.now, s.now)
}

// appInputLocked hands data to the host application at now and queues its
// (delayed) response, tagged keyAt (zero: no keystroke waits for its echo).
// Caller holds s.mu.
func (s *Session) appInputLocked(data []byte, now, keyAt time.Time) {
	out, delay := s.app.Input(data)
	if len(out) == 0 {
		return
	}
	at := now.Add(delay)
	// Host responses are serialized in input order, like a real pty.
	if n := len(s.pendingOut); n > 0 && at.Before(s.pendingOut[n-1].at) {
		at = s.pendingOut[n-1].at
	}
	s.pendingOut = append(s.pendingOut, timedOutput{at: at, keyAt: keyAt, data: out})
}

// answerHostLocked hands the terminal's replies to what the host asked of it
// (device attributes, cursor position) back to the host application as
// input, as a pty's would. They are not keystrokes: no echo waits on the
// application's response, and the flight recorder does not count them.
// Caller holds s.mu, after a host write.
func (s *Session) answerHostLocked(now time.Time) {
	if ab := s.srv.Answerback(); ab != nil && s.app != nil {
		s.appInputLocked(ab, now, time.Time{})
	}
}

// flushHostOutputLocked writes every due host response to the terminal, and
// reports whether there was one. The frame that will carry it counts its
// collection interval from now, the sweep's reading — when the daemon learned
// of the write — and not from whenever the emulator has finished with it.
func (s *Session) flushHostOutputLocked(now time.Time) bool {
	n := 0
	for n < len(s.pendingOut) && !s.pendingOut[n].at.After(now) {
		// The waiter joins the echo ring BEFORE the write: HostOutput
		// ticks the sender, and a frame minted there already carries
		// this output. A burst beyond the ring is sampled, not queued —
		// the ring is measurement, not accounting.
		if keyAt := s.pendingOut[n].keyAt; !keyAt.IsZero() && s.echoAwaitN < len(s.echoAwait) {
			s.echoAwait[s.echoAwaitN] = keyAt
			s.echoAwaitN++
		}
		s.srv.HostOutputAt(s.pendingOut[n].data, now)
		n++
	}
	if n > 0 {
		// Delete clears the vacated tail: a slot past the new length must not
		// keep a written response's bytes alive until a later one lands there.
		s.pendingOut = slices.Delete(s.pendingOut, 0, n)
		s.answerHostLocked(now)
		// Applied host output changed the screen and the pending-output
		// queue — both journaled state.
		s.markDirty()
	}
	return n > 0
}

// noteEchoLocked is the server-side keystroke→echo matcher (the paper's
// Fig. 6 measurement): when the sender has minted a new state since the
// last call, that state is the first frame carrying every host output
// applied so far, so each waiting keystroke's end-to-end latency is
// now − keystroke arrival. Observed into the pipeline's echo histogram
// and Fig. 6 counters, the flight recorder, and Config.OnEcho.
func (s *Session) noteEchoLocked(now time.Time) {
	sent := s.srv.Transport().Sender().LastSentNum()
	if sent == s.lastSentNum {
		return
	}
	s.lastSentNum = sent
	s.d.rec.Record(telemetry.EvFrameSent, s.ID, sent, now)
	// A frame left: credit the daemon's frames_prepared_sent if it (or one
	// since the last pass) was one built ahead.
	if n := s.srv.Transport().Sender().Stats().PreparedSent; n != s.preparedSent {
		s.d.metrics.FramesPreparedSent.Add(int64(n - s.preparedSent))
		s.preparedSent = n
	}
	if s.echoAwaitN == 0 {
		return
	}
	conn := s.srv.Transport().Connection()
	srtt := time.Duration(0)
	if conn.HaveRTT() {
		srtt = conn.SRTT(0)
	}
	for i := 0; i < s.echoAwaitN; i++ {
		lat := now.Sub(s.echoAwait[i])
		s.d.pipe.ObserveEcho(lat, srtt)
		s.d.rec.Record(telemetry.EvEcho, s.ID, uint64(lat/time.Microsecond), now)
		if cb := s.d.cfg.OnEcho; cb != nil {
			cb(s.ID, lat, srtt)
		}
		s.echoAwait[i] = time.Time{}
	}
	s.echoAwaitN = 0
}

// rearmLocked recomputes this session's single heap deadline: the earliest
// of the endpoint's next deadline, the next pending host response, and (for
// sessions a client has used) the idle-eviction horizon. The endpoint's
// deadline is armed as the absolute instant it is, however long the sweep
// that read now has been running: adding a wait time to now would arm it
// early by the sweep's age, and the tick loop would wake before the sender
// is due, sweep for nothing and come back a whole minTickInterval later.
// Only a deadline that is not ahead of now is floored, at minTickInterval
// from now, so a stale one can never spin the tick loop — and the floor never
// postpones an entry already armed short of it, or a caller that re-arms more
// often than once a minTickInterval (Session.Do in a polling loop) would keep
// an overdue session from ever being served.
func (s *Session) rearmLocked(now time.Time) {
	at, ok := s.srv.NextDeadline()
	if len(s.pendingOut) > 0 && (!ok || s.pendingOut[0].at.Before(at)) {
		at, ok = s.pendingOut[0].at, true
	}
	if idle := s.d.cfg.IdleTimeout; idle > 0 {
		if _, heard := s.srv.Transport().Connection().LastHeard(); heard {
			if idleAt := s.lastActive.Add(idle); !ok || idleAt.Before(at) {
				at, ok = idleAt, true
			}
		}
	}
	if !ok {
		// A slot no client has redeemed: nothing to send, nobody to send it
		// to, no host output queued. It holds no heap entry, and the datagram
		// that gives it a peer re-arms it.
		return
	}
	if !at.After(now) {
		at = now.Add(minTickInterval)
		if !s.lastArmed.IsZero() && s.lastArmed.Before(at) {
			// Armed sooner already — or popped a moment ago, and then
			// TickDue's tick is about to serve and re-arm it (lastArmed).
			return
		}
	}
	// Steady-state receives often leave the deadline where it was; skip
	// the shared heap lock when nothing moved so packet handling across
	// sessions does not serialize on it.
	if at.Equal(s.lastArmed) {
		return
	}
	s.d.timers.arm(s, at)
	s.lastArmed = at
}

// emit queues one sealed, enveloped datagram toward the session's
// current reply target on the daemon egress ring; the flush that ends the
// current sweep transmits it in a batch. Called by the transport with s.mu
// held, inside the sweep that stamped s.now. Roaming is fully per-session:
// the target is this session's datagram-layer address, which follows its
// latest authentic source independently of every other session on the
// socket.
func (s *Session) emit(wire []byte) {
	dst, ok := s.srv.Transport().Connection().RemoteAddr()
	if !ok {
		// The sender seals nothing for an endpoint without a peer, so this
		// is a regression in that gate; the datagram and its nonce are spent.
		s.d.rec.Record(telemetry.EvDropEgress, s.ID, 0, s.now)
		return
	}
	if !s.d.enqueueEgress(dst, wire, s.now) {
		s.d.rec.Record(telemetry.EvDropEgress, s.ID, 1, s.now)
	}
}
