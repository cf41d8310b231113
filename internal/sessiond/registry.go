package sessiond

import (
	"errors"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/journal"
	"repro/internal/network"
	"repro/internal/sspcrypto"
)

// shardCount splits the session map so the reader's lookups, the tick loop
// and session opens and closes do not serialize on one lock. Power of two;
// the low bits of the session ID pick the shard (IDs are sequential, so
// consecutive sessions land on different shards).
const shardCount = 64

type shard struct {
	mu       sync.RWMutex
	sessions map[uint64]*Session
}

// registry is the daemon's sharded session table.
type registry struct {
	shards [shardCount]shard
}

func newRegistry() *registry {
	r := &registry{}
	for i := range r.shards {
		r.shards[i].sessions = make(map[uint64]*Session)
	}
	return r
}

func (r *registry) shardFor(id uint64) *shard { return &r.shards[id&(shardCount-1)] }

func (r *registry) lookup(id uint64) *Session {
	sh := r.shardFor(id)
	sh.mu.RLock()
	s := sh.sessions[id]
	sh.mu.RUnlock()
	return s
}

func (r *registry) insert(s *Session) {
	sh := r.shardFor(s.ID)
	sh.mu.Lock()
	sh.sessions[s.ID] = s
	sh.mu.Unlock()
}

func (r *registry) delete(id uint64) {
	sh := r.shardFor(id)
	sh.mu.Lock()
	delete(sh.sessions, id)
	sh.mu.Unlock()
}

// each calls f on every live session (snapshot per shard; f runs without
// shard locks held).
func (r *registry) each(f func(*Session)) {
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		snapshot := make([]*Session, 0, len(sh.sessions))
		for _, s := range sh.sessions {
			snapshot = append(snapshot, s)
		}
		sh.mu.RUnlock()
		for _, s := range snapshot {
			f(s)
		}
	}
}

// timedOutput is one pending host-application write, delayed to model the
// application's think time (host.App.Input returns a delay).
type timedOutput struct {
	at time.Time
	// keyAt is the arrival time of the keystroke that provoked this
	// output (zero for output with no keystroke attribution), feeding the
	// keystroke→echo tracker when the output is applied.
	keyAt time.Time
	data  []byte
}

// Session is one SSP session multiplexed on the daemon's socket. Its state
// machine (core.Server, host app, pending output) is guarded by mu; the
// heap bookkeeping (deadline, heapIdx) is guarded by the daemon's timer
// heap lock.
type Session struct {
	// ID is the cleartext envelope identifier on the shared socket.
	ID uint64

	d   *Daemon
	key sspcrypto.Key

	// origW, origH are the terminal dimensions at session creation,
	// preserved across restarts: the blank state-0 baseline both sides
	// fall back to after a daemon restart must match the client's
	// pristine initial screen exactly, even if the session resized since.
	origW, origH int

	mu         sync.Mutex
	srv        *core.Server
	app        host.App
	pendingOut []timedOutput
	lastActive time.Time
	closed     bool

	// now is the clock reading of the sweep currently running this session
	// (ingest, tick or Do), set when the sweep takes mu: the callbacks the
	// session's state machine makes from inside it (hostInput, emit) stamp
	// from it instead of each reading the clock.
	now time.Time

	// groupEpoch/groupIdx are the batch demultiplexer's O(1) group lookup
	// (Daemon.groupBatch): when groupEpoch matches the current batch's
	// epoch, groupIdx is this session's slot in the scratch. Touched only
	// by the single reader (or sim driver) goroutine — never concurrently.
	groupEpoch uint64
	groupIdx   int

	// lastArmed is the deadline rearmLocked last put in the timer heap for
	// this session; guarded by mu. rearmLocked skips the heap lock when the
	// deadline is unchanged. It outlives its entry for a moment: popDue
	// removes the entry under the heap's lock, and only the Session.tick
	// that TickDue then always gives a popped session zeroes lastArmed and
	// re-arms. A re-arm that lands in between may dedup against the popped
	// entry and arm nothing; that tick makes it good.
	lastArmed time.Time

	// Keystroke→echo tracking (guarded by mu): echoAwait holds the
	// arrival times of keystrokes whose host output has been applied to
	// the terminal but not yet carried by a minted frame; lastSentNum is
	// the sender state number as of the last match pass, so a fresh mint
	// is detected by its advance. The ring samples bursts (overflow is
	// dropped, not queued): it is measurement, not accounting.
	echoAwait   [16]time.Time
	echoAwaitN  int
	lastSentNum uint64

	// preparedSent is the sender's PreparedSent counter as of the last
	// frame noteEchoLocked saw leave, which credits the daemon's
	// frames_prepared_sent with what it grew by; guarded by mu.
	preparedSent int

	// Timer-heap entry, guarded by the daemon's timerHeap lock.
	deadline time.Time
	heapIdx  int

	// jm is the journal's per-session state (dirty flag, screen-delta
	// base); only internal/journal looks inside.
	jm journal.Mark
}

// Key returns the session's pre-shared key for out-of-band bootstrap (the
// daemon's analogue of mosh-server's "MOSH CONNECT port key" line).
func (s *Session) Key() sspcrypto.Key { return s.key }

// Do runs f with the session locked, giving tests and embedders serialized
// access to the underlying server endpoint. Anything f caused the session
// to emit is flushed from the egress ring before Do returns, and a deadline
// f created or moved — a frame made pending by host output fed through it —
// is armed. The reader and the tick loop handle this session under the same
// lock, inline, so an f that blocks stalls the whole socket for as long:
// keep it short.
func (s *Session) Do(f func(srv *core.Server)) {
	s.mu.Lock()
	s.now = s.d.cfg.Clock.Now()
	f(s.srv)
	if !s.closed {
		s.rearmLocked(s.now)
	}
	s.mu.Unlock()
	// f had arbitrary access to the session's durable core; assume it
	// changed something so the next incremental flush records it.
	s.markDirty()
	s.d.flushEgress()
	s.settle()
}

// ErrCapacity is returned by OpenSession when the daemon is full.
var ErrCapacity = errors.New("sessiond: session capacity reached")

// OpenSession issues a new session: a fresh random key, the next session
// ID, a server endpoint configured with the envelope, and (when the daemon
// has an application factory) a freshly started host application. The
// returned session is live immediately; hand its ID and Key to the client
// out of band.
func (d *Daemon) OpenSession() (*Session, error) {
	d.openMu.Lock()
	defer d.openMu.Unlock()
	if d.cfg.Capacity > 0 && int(d.metrics.SessionsLive.Value()) >= d.cfg.Capacity {
		return nil, ErrCapacity
	}
	key, err := sspcrypto.NewRandomKey()
	if err != nil {
		return nil, err
	}
	id := d.nextID.Add(1)
	s := &Session{
		ID:      id,
		d:       d,
		key:     key,
		origW:   d.cfg.Width,
		origH:   d.cfg.Height,
		heapIdx: -1,
	}
	srv, err := core.NewServer(s.serverConfig(nil))
	if err != nil {
		return nil, err
	}
	s.srv = srv
	now := d.cfg.Clock.Now()
	s.lastActive = now
	if d.cfg.NewApp != nil {
		s.app = d.cfg.NewApp(id)
		if out := s.app.Start(); len(out) > 0 {
			s.mu.Lock()
			srv.HostOutput(out)
			s.answerHostLocked(now)
			s.mu.Unlock()
		}
	}
	if d.journal != nil {
		// A brand-new session has no journal record yet; cap its counters
		// at one reservation so that, if the daemon dies before the next
		// flush, the session's absence from the journal is the only loss
		// (nothing it sent can collide with a future restore). The flush
		// request below gets it journaled promptly. (In the fail-safe
		// suspension this cap is also the session's service bound.)
		s.setCeilingsLocked(d.cfg.SeqReserve, d.cfg.SeqReserve)
		if d.journal.Suspended() == journal.Unjournaled {
			// Unless journaling is suspended with the on-disk snapshot
			// invalidated: nothing can be restored, so nothing this
			// session sends can collide with a future restore — it joins
			// the other sessions at lifted ceilings, and the eventual
			// resume flush re-caps it at snapshot time like everyone else.
			s.liftCeilingsLocked()
		}
	}
	d.reg.insert(s)
	d.metrics.SessionsLive.Add(1)
	d.metrics.SessionsOpened.Add(1)
	if j := d.journal; j != nil {
		// A new session is durable state the journal has never seen. It is
		// marked only now that it is registered: a flush finds the sessions
		// on its dirty list by ID.
		s.markDirty()
		j.RequestFlush()
	}
	s.mu.Lock()
	s.rearmLocked(now)
	s.mu.Unlock()
	return s, nil
}

// serverConfig is the endpoint configuration of this session, fresh
// (resume nil) or revived from the journal.
func (s *Session) serverConfig(resume *core.ServerResume) core.ServerConfig {
	return core.ServerConfig{
		Key:         s.key,
		Clock:       s.d.cfg.Clock,
		Width:       s.origW,
		Height:      s.origH,
		Timing:      s.d.cfg.Timing,
		Envelope:    &network.Envelope{ID: s.ID},
		Probe:       s.d.pipe,
		RecycleWire: s.d.cfg.RecycleWire,
		Emit:        s.emit,
		HostInput:   s.hostInput,
		Resume:      resume,
	}
}

// removeLocked takes the session out of the daemon: registry and timer
// heap. Caller holds s.mu; counter is the metric to credit.
func (s *Session) removeLocked(counter interface{ Add(int64) }) {
	if s.closed {
		return
	}
	s.closed = true
	s.d.reg.delete(s.ID)
	s.d.timers.remove(s)
	if j := s.d.journal; j != nil {
		// Record the close durably: without a tombstone the next restart
		// would resurrect this session from its last journal record.
		j.NoteClosed(s.ID)
	}
	s.d.metrics.SessionsLive.Add(-1)
	counter.Add(1)
}
