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
