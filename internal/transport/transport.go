package transport

import (
	"time"

	"repro/internal/netem"
	"repro/internal/network"
	"repro/internal/simclock"
	"repro/internal/sspcrypto"
	"repro/internal/telemetry"
)

// Transport binds one SSP direction pair over a single datagram-layer
// connection: a Sender synchronizing the local object outward and a
// Receiver reconstructing the remote object. Mosh instantiates one
// Transport per endpoint — on the client the local object is the user
// input stream and the remote object is the screen; on the server the
// roles are reversed.
//
// Transport is a single-threaded state machine driven by three entries:
// Receive (a datagram arrived), Tick (timers or the local object may have
// advanced; TickChangedAt when the caller knows when it did), and WaitTime
// (how long the event loop may sleep). Prepare is optional: an event loop
// with time to spare before the next deadline may spend it there.
//
// A server endpoint is mute, and has no deadline, until it has a peer: Tick
// and Prepare send and build nothing, NextDeadline reports none and WaitTime
// NoDeadline, and the first authentic datagram's Receive sends the first
// frame (the package comment has the contract). An event loop needs no case
// for it beyond arming nothing when NextDeadline says so.
type Transport[L State[L], R State[R]] struct {
	conn     *network.Connection
	clock    simclock.Clock
	sender   *Sender[L]
	receiver *Receiver[R]
	assembly assembly
	probe    *telemetry.Pipeline
}

// Config assembles a Transport endpoint.
type Config[L State[L], R State[R]] struct {
	// Direction is ToServer on the client and ToClient on the server.
	Direction sspcrypto.Direction
	// Key is the pre-shared session key.
	Key sspcrypto.Key
	// Clock drives all timing.
	Clock simclock.Clock
	// Timing overrides SSP timing field by field; a zero field takes the
	// endpoint's default (DefaultTiming on the server, ClientTiming on the
	// client).
	Timing Timing
	// Envelope enables the sessiond session-ID envelope on every datagram
	// (nil = single-session wire format).
	Envelope *network.Envelope
	// LocalInitial is the live local object (state number 0 as currently
	// constituted); the application keeps mutating it in place.
	LocalInitial L
	// RemoteInitial is the agreed initial remote state (number 0).
	RemoteInitial R
	// Emit transmits one sealed wire datagram.
	Emit func(wire []byte)
	// RecycleWire declares that Emit fully consumes each datagram before
	// returning (for example a blocking UDP write), letting the sender
	// reuse wire buffers instead of allocating one per datagram. Leave it
	// off when Emit retains the buffer (internal/netem keeps payloads in
	// flight).
	RecycleWire bool

	// Resume, when non-nil, restores this endpoint from a journal snapshot
	// written by a previous incarnation (internal/sessiond's crash-safe
	// restart). LocalInitial is then the restored live object and
	// LocalBaseline must be set to the agreed initial state (state number
	// 0); RemoteInitial is the restored remote object, installed as state
	// number Resume.RecvNum.
	Resume *Resume
	// LocalBaseline is the agreed initial local state; read only when
	// Resume is non-nil. Ownership transfers to the sender.
	LocalBaseline L

	// Probe, when non-nil, receives per-stage latency observations:
	// StageApply spans around statesync application, StageTick spans
	// around sender ticks (timer rules, and for a tick that sends, the
	// frame's diff and encoding unless Prepare had built it — then only the
	// check, the seals and the emits), StagePrepare spans around frames
	// built ahead, and (through the datagram layer) StageSeal / StageVerify
	// spans around the AEAD. Measured on Clock, so virtual time yields
	// deterministic (0-duration) CPU spans.
	Probe *telemetry.Pipeline
}

// Resume restores a Transport endpoint across a process restart: the
// datagram layer's counters and the two state numbers. Every counter in it
// must come from a durable journal whose reservation rules guarantee it
// exceeds anything the dead process sent (see
// network.Connection.SetSeqCeiling and Sender.SetNumCeiling).
type Resume struct {
	network.Resume
	// SendNumFloor is the state-number reservation: the first state minted
	// after restore takes at least this number.
	SendNumFloor uint64
	// RecvNum is the state number the restored remote object is installed
	// as (the newest remote state the dead process had received).
	RecvNum uint64
}

// New builds a Transport endpoint.
func New[L State[L], R State[R]](cfg Config[L, R]) (*Transport[L, R], error) {
	def := DefaultTiming()
	if cfg.Direction == sspcrypto.ToServer {
		def = ClientTiming()
	}
	timing := cfg.Timing.or(def)
	var netResume *network.Resume
	if rs := cfg.Resume; rs != nil {
		netResume = &rs.Resume
	}
	conn, err := network.NewConnection(network.Config{
		Direction: cfg.Direction,
		Key:       cfg.Key,
		Clock:     cfg.Clock,
		MinRTO:    timing.MinRTO,
		MaxRTO:    timing.MaxRTO,
		Envelope:  cfg.Envelope,
		Resume:    netResume,
		Probe:     cfg.Probe,
	})
	if err != nil {
		return nil, err
	}
	var s *Sender[L]
	var r *Receiver[R]
	if rs := cfg.Resume; rs != nil {
		s = newResumedSender[L](conn, cfg.Clock, timing, cfg.LocalInitial, cfg.LocalBaseline, rs.SendNumFloor)
		// The journal proves receipt through RecvNum; advertising it from
		// the first post-restore instruction lets a surviving client whose
		// ack was lost in the crash collapse its history instead of
		// retransmitting its newest state at every RTO forever.
		s.ackNum = rs.RecvNum
		r = newResumedReceiver[R](cfg.RemoteInitial, rs.RecvNum)
	} else {
		s = newSender[L](conn, cfg.Clock, timing, cfg.LocalInitial)
		r = newReceiver[R](cfg.RemoteInitial)
	}
	s.emit = cfg.Emit
	s.recycleWire = cfg.RecycleWire
	return &Transport[L, R]{
		conn:     conn,
		clock:    cfg.Clock,
		sender:   s,
		receiver: r,
		probe:    cfg.Probe,
	}, nil
}

// Connection exposes the datagram layer (RTT estimates, roaming target).
func (t *Transport[L, R]) Connection() *network.Connection { return t.conn }

// Sender exposes the outbound half.
func (t *Transport[L, R]) Sender() *Sender[L] { return t.sender }

// CurrentState returns the live local object.
func (t *Transport[L, R]) CurrentState() L { return t.sender.currentState }

// RemoteState returns the newest reconstructed remote state, less the
// prefix every state the receiver still retains has in common (nothing for
// a screen; for the user-input stream, every event the peer has promised
// never to diff from again). Consume what is new by global index
// (UserStream.EventsSince / Size) after the Receive that reported it; treat
// it as read-only and do not retain it across the next Receive, which may
// subtract what was just read and recycles retired history (Clone before
// retaining).
func (t *Transport[L, R]) RemoteState() R { return t.receiver.Latest() }

// RemoteStateNum returns the newest remote state number.
func (t *Transport[L, R]) RemoteStateNum() uint64 { return t.receiver.LatestNum() }

// Receive processes one wire datagram from src. It returns true when the
// remote object advanced to a new state. Stale, replayed and inauthentic
// packets are rejected by the datagram layer and reported as errors the
// caller may ignore.
func (t *Transport[L, R]) Receive(wire []byte, src netem.Addr) (bool, error) {
	payload, err := t.conn.Receive(wire, src)
	if err != nil {
		return false, err
	}
	frag, err := parseFragment(t.conn.ExpectedSeq()-1, payload) // the sequence number just accepted
	if err != nil {
		return false, err
	}
	inst, err := t.assembly.add(&frag)
	if err != nil || inst == nil {
		t.assembly.release() // nothing to apply, but a join or an inflate may have borrowed
		return false, err
	}
	t.sender.processAcknowledgmentThrough(inst.AckNum)
	var applyStart time.Time
	if t.probe != nil {
		applyStart = t.clock.Now()
	}
	isNew, err := t.receiver.processInstruction(inst)
	t.assembly.release() // the diff is applied, and Apply copied what it keeps
	if t.probe != nil {
		t.probe.Observe(telemetry.StageApply, t.clock.Now().Sub(applyStart))
	}
	if err != nil {
		return false, err
	}
	if isNew {
		t.sender.setDataAck(t.receiver.LatestNum())
	}
	// Any authentic arrival can unblock sending (acks freed history, a
	// timestamp refined RTT), so tick opportunistically.
	t.tickSender()
	return isNew, nil
}

// Tick runs the sender's timing logic; call it after mutating the local
// object and whenever WaitTime elapses.
func (t *Transport[L, R]) Tick() { t.tickSender() }

// TickChangedAt is Tick for a caller that knows when the local object
// changed — an event loop that read the clock once when the host's write
// woke it, and has spent time interpreting the write since. A collection
// interval this tick starts counts from at (clamped to now) instead of from
// the tick; one already running does not move, and no frame leaves sooner
// than CollectionInterval after at or than the frame-rate rule allows. Each
// call also counts as one change — Prepare builds ahead only frames that
// carry exactly one, from a sender whose previous frame carried no more —
// and retires a frame prepared before it.
func (t *Transport[L, R]) TickChangedAt(at time.Time) {
	t.sender.noteChange(at)
	t.tickSender()
}

// tickSender runs one sender tick, wrapped in a StageTick span when a
// probe is configured.
func (t *Transport[L, R]) tickSender() {
	if t.probe == nil {
		t.sender.tick()
		return
	}
	start := t.clock.Now()
	t.sender.tick()
	t.probe.Observe(telemetry.StageTick, t.clock.Now().Sub(start))
}

// Prepare builds the frame the pending send deadline is expected to send —
// snapshot, diff, marshal, deflate — so that the tick serving the deadline
// only has to stamp, seal and write it. Call it after a Tick or
// NextDeadline (it reads the deadlines they computed), from the goroutine
// that drives the endpoint, when nothing is waiting on that goroutine: an
// event loop calls it after it has written out what its sweep emitted.
// quietUntil is the earliest instant the caller already knows the local
// object will change again (zero: none known); a frame due after that is
// not built. It is idempotent and costs a few comparisons when nothing is
// pending, and reports whether it built a frame. The package comment has the
// contract, and what the sender does when the forecast was wrong.
func (t *Transport[L, R]) Prepare(quietUntil time.Time) bool {
	if !t.sender.wantsPrepare(quietUntil) {
		return false
	}
	if t.probe == nil {
		return t.sender.prepare()
	}
	start := t.clock.Now()
	built := t.sender.prepare()
	t.probe.Observe(telemetry.StagePrepare, t.clock.Now().Sub(start))
	return built
}

// FragmentsHeld reports how many fragments of a partially assembled
// incoming instruction the endpoint currently buffers (0 when no
// multi-fragment instruction is in flight) — live introspection of
// reassembly depth.
func (t *Transport[L, R]) FragmentsHeld() int {
	if !t.assembly.active {
		return 0
	}
	return t.assembly.held
}

// NextDeadline reports the instant the next Tick is needed, as an absolute
// time on the endpoint's clock. ok is false when none is: an endpoint without
// a peer (network.Connection.HasPeer) wants no tick until Receive has given it
// one, and an event loop arms nothing for it.
func (t *Transport[L, R]) NextDeadline() (at time.Time, ok bool) {
	return t.sender.nextDeadline(t.clock.Now())
}

// WaitTime reports how long the event loop may sleep before the next Tick
// is needed: NextDeadline less the current time, never negative, and
// NoDeadline when there is none.
func (t *Transport[L, R]) WaitTime() time.Duration { return t.sender.waitTime() }
