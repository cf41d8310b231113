// Package transport implements SSP's transport layer (paper §2.3): it
// conveys the current state of an abstract object to the remote host by
// sending Instructions — self-contained messages carrying the source and
// target state numbers and the logical diff between them — and modulates
// its "frame rate" from the datagram layer's RTT estimate so that network
// buffers never fill.
//
// The layer is agnostic to the object type: Mosh instantiates it twice per
// session, client→server on a user-input stream and server→client on a
// terminal screen state (see internal/statesync). The object implementation
// defines diff semantics; for user input the diff carries every keystroke,
// for screens only the minimal transformation to the newest frame, which is
// what lets SSP skip intermediate states on slow paths.
//
// # An endpoint without a peer
//
// A server endpoint is mute, and has no deadline, until it has a peer
// (network.Connection.HasPeer: a reply target — from the first authentic
// datagram, from SetRemoteAddr, or from a journal's Resume.RemoteAddr; a
// client always has one). Until then Tick runs the timing rules, so a
// collection interval the object's first change opened counts from that
// change, and stops: no state is minted, nothing is diffed, sealed or
// numbered, Prepare builds nothing, NextDeadline reports that there is none
// and WaitTime NoDeadline. The Receive that brings the peer ends, like every
// Receive, with a tick, and that tick sends the first frame — state 0 → 1
// under sequence number 0 — if the frame-rate rule (SendIntervalMax from
// state 0, no RTT sample yet) and any running collection interval have
// expired; otherwise it leaves on whichever is later. A frame sent to nobody
// would not be harmless: it is assumed delivered for RTO + AckDelay, and a
// client arriving inside those 1.1 s would wait them out for its first
// screen. Once there is a peer there always is: one that has gone quiet still
// gets heartbeats and new states at its last address.
//
// # Frames built ahead of their deadline
//
// A frame for fresh changes waits out Timing.CollectionInterval before it
// leaves, counted from the change (Transport.TickChangedAt) or from the tick
// that noticed it. The sender can spend that wait building the frame:
// Transport.Prepare does at once what the deadline's tick would do — clone
// the live object (the clone that becomes the sent state), diff it against
// the assumed receiver state, marshal, deflate — and keeps the encoded
// payload in the fragmenter's own buffer with the four header numbers it was
// built for. There is one such frame at most and no second payload buffer.
//
// Nothing about it is a promise. The tick that sends uses it only if it is
// byte for byte the instruction that tick would mint: OldNum (the assumed
// receiver state, re-derived — it flips to the acknowledged baseline at its
// RTO horizon), NewNum (floor and reservation ceiling re-checked), AckNum
// and ThrowawayNum all equal, the payload not overwritten by another
// instruction encoded since, and the live object identical to the snapshot
// (ExactState where the object has it, Equal otherwise). Then the snapshot
// enters the history, the payload is split under the next instruction id and
// each fragment is sealed with that tick's timestamps, exactly as if minted
// there. Anything else — a further change to the object (an announced one
// retires the frame on the spot), a resize, a new remote state to
// acknowledge, an exhausted reservation — discards it and the tick mints its
// own; an acknowledgment that moves the baseline discards it outright, since
// its snapshot would miss the Subtract. A discarded snapshot goes back
// through Recycle and pins nothing.
//
// Who may call Prepare: the goroutine that drives the endpoint, after a Tick
// or NextDeadline, when nobody is waiting on it — sessiond calls it, once a
// sweep's replies are written out, for the sessions the sweep applied host
// output to or left with a frame collecting (Sender.Collecting). Whether it
// then builds anything is decided by the traffic, not by a setting: every
// TickChangedAt counts one change, and a frame is built only if the pending
// one has seen exactly one so far and the previous frame coalesced at most
// one. A pty in a flood (many writes per interval) therefore costs one
// discarded frame when the flood starts and nothing after, and the first
// quiet interval switches building back on; and a frame that carries no
// announced write at all — an echo acknowledgment, a resize — is left to its
// deadline: nobody waits for it, and the keystroke whose output somebody
// will wait for usually overtakes it. The caller adds what it knows that the
// sender cannot: the instant of the next change it already expects
// (core.Server passes the next echo-acknowledgment timeout), before which a
// deadline must fall for its frame to be worth building. On a closed loop,
// whose frames leave 20 ms apart on the frame-rate rule with an earlier
// keystroke's 50 ms echo timeout inside every wait, that is the difference
// between building each frame once and building it twice.
package transport

// State is the object interface SSP synchronizes, the Go rendering of the
// paper's abstract state object. The type parameter is the concrete
// implementation itself (e.g. *UserStream), so Clone and DiffFrom are fully
// typed.
//
// Implementations must satisfy the diff algebra SSP relies on:
//
//	target.Apply(target.DiffFrom(source)) applied to a copy of source
//	yields a state Equal to target,
//
// and diffs must be idempotent in the sense that applying the same
// instruction twice (source → target, then again) is detectable by state
// number and therefore never re-applied — the transport guarantees that by
// construction.
type State[T any] interface {
	// Clone returns a deep copy; the transport stores clones in its sent-
	// and received-state lists, which must not alias the live object.
	Clone() T

	// Equal reports semantic equality. The sender uses it to decide
	// whether anything new needs to be conveyed.
	Equal(other T) bool

	// DiffFrom returns the logical diff that, applied to source, produces
	// this state. The transport treats it as opaque bytes.
	DiffFrom(source T) []byte

	// AppendDiff appends the same diff DiffFrom returns to buf (which may
	// be nil) and returns the extended buffer. The sender reuses one
	// buffer across ticks so the per-frame diff costs no allocations; the
	// transport never retains the returned slice past the tick that
	// produced it.
	AppendDiff(buf []byte, source T) []byte

	// Apply mutates the state by applying a diff produced by DiffFrom.
	Apply(diff []byte) error

	// Subtract removes the shared prefix with other. It exists so both
	// ends can garbage-collect history common to all the states they
	// retain (meaningful for append-only objects like the user-input
	// stream; screen states implement it as a no-op): the sender subtracts
	// the acknowledged baseline from every sent state and the live object,
	// the receiver its oldest retained state from every received one —
	// itself included, so other may be the receiver of the call. Global
	// positions a state reports (a size, an index) must not change.
	Subtract(other T)
}

// Recycler is an optional State capability: the sender calls Recycle on a
// retained snapshot it is dropping for good (an acknowledged baseline, a
// culled history entry), and on the scratch clones it creates during
// acknowledgment processing; the receiver does the same with the states
// ThrowawayNum retires. An implementation may feed the object's shell back
// to its Clone path — statesync.Complete keeps the framebuffer's slice
// capacity, which is what makes the steady-state snapshot allocation-free
// — but a recycled object must stop pinning what it referenced: the call
// is the protocol saying "forget this state", so whatever waits on a free
// list holds capacity, not content. Implementations must tolerate Recycle
// being the last call ever made on the object; the transport never touches
// a state after recycling it, and neither may anyone it lent one to.
type Recycler interface {
	Recycle()
}

// recycle hands a dropped state back to its implementation, when the
// implementation wants it.
func recycle[T State[T]](st T) {
	if r, ok := any(st).(Recycler); ok {
		r.Recycle()
	}
}

// ExactState is an optional State capability for objects whose diff depends
// on more than Equal compares. Identical reports that the two states yield
// byte-identical diffs from any source; the sender asks it, and not Equal,
// before it sends a frame it built ahead of time from a snapshot (see
// Transport.Prepare). A screen needs it — its frame ends by restoring the
// active rendition, which Equal ignores, and detects scrolls by row
// generation, which two screens with equal contents need not share; the
// user-input stream and any state whose diff is a function of what Equal
// compares do not, and are asked Equal.
type ExactState[T any] interface {
	Identical(other T) bool
}

// identical reports whether a frame diffed from snapshot is the frame live
// would produce now.
func identical[T State[T]](live, snapshot T) bool {
	if x, ok := any(live).(ExactState[T]); ok {
		return x.Identical(snapshot)
	}
	return live.Equal(snapshot)
}

// ResumableState is an optional State capability for objects whose diffs
// are self-verifying: they carry enough position information that applying
// a diff whose source state the receiver does not hold is still exactly
// correct (or detectably unusable). The user-input stream qualifies — its
// diffs carry the absolute event index they start at — while screen states
// do not (a screen diff applied to the wrong base renders garbage).
//
// A receiver restored from a journal (Receiver "any base" mode, see
// transport.Resume) uses this to resynchronize with a sender that still
// references pre-crash states: the diff is applied to a clone of the
// newest state, skipping any overlap by index.
type ResumableState interface {
	// ApplyUnknownBase applies diff to this state even though this state
	// is not the diff's source. ackedSource reports that the instruction
	// proves its source state was acknowledged end-to-end (OldNum equals
	// ThrowawayNum), which licenses skipping a gap the dead process is
	// known to have delivered. It returns ok=false when the diff cannot be
	// applied safely (the caller treats the instruction as unusable and
	// SSP's fallback-to-acked-base recovers), and a non-nil error only for
	// malformed input.
	ApplyUnknownBase(diff []byte, ackedSource bool) (ok bool, err error)
}
