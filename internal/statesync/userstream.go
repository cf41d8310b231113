// Package statesync defines the two state objects Mosh synchronizes with
// SSP (paper §2): the UserStream, a client→server record of everything the
// user has done (keystrokes and window resizes, where the diff carries
// every intervening event), and Complete, the server→client terminal
// screen state (where the diff is only the minimal transformation to the
// newest frame).
package statesync

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/terminal"
)

// EventType distinguishes user-stream events.
type EventType uint8

const (
	// EventBytes carries user keystrokes, already encoded as the byte
	// sequence the host application should receive.
	EventBytes EventType = 1
	// EventResize reports a client window-size change.
	EventResize EventType = 2
)

// Event is one element of the user input history. Data is immutable once
// the event is in a stream (PushBytes and Apply copy what they are given),
// so clones share it.
type Event struct {
	Type EventType
	Data []byte // EventBytes
	W, H int    // EventResize
}

func (e Event) equal(o Event) bool {
	if e.Type != o.Type || e.W != o.W || e.H != o.H || len(e.Data) != len(o.Data) {
		return false
	}
	for i := range e.Data {
		if e.Data[i] != o.Data[i] {
			return false
		}
	}
	return true
}

// UserStream is the client→server SSP object: an append-only event log.
// Acknowledged prefixes are garbage-collected by Subtract; base tracks how
// many events have been subtracted so global indices stay stable. Both
// ends subtract (the sender on every ack, the receiver whenever the
// sender's ThrowawayNum retires history), so a stream holds only the
// unacknowledged window however old the session is.
type UserStream struct {
	base   uint64
	events []Event
	// pool is the free list shared by this stream and every clone derived
	// from it (lazily created on first Clone): the transport recycles the
	// states it drops (transport.Recycler) and Clone reuses their storage.
	pool *freeList[UserStream]
}

// cloneHeadroom is the spare capacity a freshly allocated clone gets, so
// the receiver's clone-then-Apply does not regrow it at once.
const cloneHeadroom = 4

// NewUserStream returns an empty stream.
func NewUserStream() *UserStream { return &UserStream{} }

// RestoreUserStream returns an empty stream positioned at a persisted
// global size: the restored server's record of how many user events it had
// received (and delivered to the application) when the journal was
// flushed. Diffs carry absolute event indices, so a surviving client
// resynchronizes against it exactly once per event.
func RestoreUserStream(size uint64) *UserStream { return &UserStream{base: size} }

// PushBytes appends a keystroke event.
func (u *UserStream) PushBytes(data []byte) {
	u.events = append(u.events, Event{Type: EventBytes, Data: append([]byte(nil), data...)})
}

// PushResize appends a window-size event.
func (u *UserStream) PushResize(w, h int) {
	u.events = append(u.events, Event{Type: EventResize, W: w, H: h})
}

// Size returns the global event count (including subtracted history).
func (u *UserStream) Size() uint64 { return u.base + uint64(len(u.events)) }

// EventsSince returns the events with global indices >= from. The server
// uses it to feed newly arrived input to the host application exactly once.
func (u *UserStream) EventsSince(from uint64) []Event {
	if from < u.base {
		from = u.base
	}
	idx := from - u.base
	if idx > uint64(len(u.events)) {
		return nil
	}
	return u.events[idx:]
}

// Clone implements transport.State. Event payloads are shared, and a
// recycled clone's storage is reused when one is available, so the steady
// state allocates nothing.
func (u *UserStream) Clone() *UserStream {
	if u.pool == nil {
		u.pool = &freeList[UserStream]{}
	}
	n := u.pool.take()
	if n == nil {
		n = &UserStream{pool: u.pool}
	}
	if cap(n.events) < len(u.events) {
		n.events = make([]Event, 0, len(u.events)+cloneHeadroom)
	}
	n.base = u.base
	n.events = append(n.events[:0], u.events...)
	return n
}

// Recycle implements transport.Recycler: the transport hands back states
// it has dropped from its history, and Clone reuses their storage.
func (u *UserStream) Recycle() {
	clear(u.events) // do not pin payloads from the free list
	u.events = u.events[:0]
	u.pool.put(u)
}

// Equal implements transport.State.
func (u *UserStream) Equal(o *UserStream) bool {
	if u.base != o.base || len(u.events) != len(o.events) {
		return false
	}
	for i := range u.events {
		if !u.events[i].equal(o.events[i]) {
			return false
		}
	}
	return true
}

// DiffFrom implements transport.State: the diff carries every event the
// source lacks (the paper: "for user inputs, the diff contains every
// intervening keystroke").
func (u *UserStream) DiffFrom(src *UserStream) []byte {
	return u.AppendDiff(nil, src)
}

// AppendDiff implements transport.State: DiffFrom appended to a caller-
// reused buffer. The diff leads with the absolute global index of the
// event before its first one, which makes application idempotent by
// position — a receiver holding more of the stream than the source simply
// skips the overlap. That self-verification is what lets a journal-restored
// server apply a surviving client's diff without holding its numbered
// source state (see transport.ResumableState).
func (u *UserStream) AppendDiff(buf []byte, src *UserStream) []byte {
	srcSize := src.Size()
	if srcSize > u.Size() {
		srcSize = u.base // defensive; cannot happen in SSP usage
	}
	newEvents := u.EventsSince(srcSize)
	if len(newEvents) == 0 {
		return buf
	}
	start := u.Size() - uint64(len(newEvents))
	buf = binary.AppendUvarint(buf, start)
	buf = binary.AppendUvarint(buf, uint64(len(newEvents)))
	for _, e := range newEvents {
		buf = append(buf, byte(e.Type))
		switch e.Type {
		case EventBytes:
			buf = binary.AppendUvarint(buf, uint64(len(e.Data)))
			buf = append(buf, e.Data...)
		case EventResize:
			buf = binary.AppendUvarint(buf, uint64(e.W))
			buf = binary.AppendUvarint(buf, uint64(e.H))
		}
	}
	return buf
}

// ErrBadDiff reports a malformed user-stream diff.
var ErrBadDiff = errors.New("statesync: malformed user stream diff")

// Apply implements transport.State. Events the stream already holds (the
// diff's start index plus offset falls at or below Size) are skipped, so
// overlapping diffs — replays across a daemon restart — are applied
// exactly once by global index. A diff starting beyond the stream's size
// is a gap and is refused (it cannot occur between a matched source and
// target; gaps are only ever bridged by ApplyUnknownBase's proven case).
func (u *UserStream) Apply(diff []byte) error {
	if len(diff) == 0 {
		return nil
	}
	streamApplies.Add(1)
	streamApplyBytes.Add(int64(len(diff)))
	start, n := binary.Uvarint(diff)
	if n <= 0 {
		return ErrBadDiff
	}
	if start > u.Size() {
		return fmt.Errorf("%w: diff starts at event %d beyond stream size %d", ErrBadDiff, start, u.Size())
	}
	return u.applyEvents(start, diff[n:])
}

// ApplyUnknownBase implements transport.ResumableState: the diff's source
// state is unknown to this (journal-restored) receiver, but the absolute
// start index makes application safe whenever the diff overlaps or abuts
// what we hold. A diff that starts beyond our size is accepted only when
// ackedSource proves its source state was acknowledged end-to-end — the
// dead incarnation received (and delivered) every event below the start
// index, so the restored stream jumps over the gap rather than
// re-delivering or losing anything; events we hold below the jump were
// all delivered too (the server delivers on receipt), so discarding them
// is safe. An unproven gap is unusable: it may cover events the dead
// process never received, and SSP's fallback to diffing from the acked
// baseline eventually presents a provable diff instead.
func (u *UserStream) ApplyUnknownBase(diff []byte, ackedSource bool) (bool, error) {
	if len(diff) == 0 {
		return false, nil
	}
	start, n := binary.Uvarint(diff)
	if n <= 0 {
		return false, ErrBadDiff
	}
	if start > u.Size() {
		if !ackedSource {
			return false, nil
		}
		u.events = u.events[:0]
		u.base = start
	}
	return true, u.applyEvents(start, diff[n:])
}

// applyEvents decodes the events of a diff starting at global index start,
// skipping any prefix the stream already holds and appending the rest.
func (u *UserStream) applyEvents(start uint64, diff []byte) error {
	count, n := binary.Uvarint(diff)
	if n <= 0 {
		return ErrBadDiff
	}
	diff = diff[n:]
	skip := u.Size() - start // events already held; caller ensured start <= Size
	for i := uint64(0); i < count; i++ {
		if len(diff) < 1 {
			return ErrBadDiff
		}
		t := EventType(diff[0])
		diff = diff[1:]
		var ev Event
		switch t {
		case EventBytes:
			l, n := binary.Uvarint(diff)
			if n <= 0 || uint64(len(diff[n:])) < l {
				return ErrBadDiff
			}
			if i >= skip {
				ev = Event{Type: EventBytes, Data: append([]byte(nil), diff[n:n+int(l)]...)}
			}
			diff = diff[n+int(l):]
		case EventResize:
			w, h, rest, ok := decodeDims(diff)
			if !ok {
				return ErrBadDiff
			}
			diff = rest
			ev = Event{Type: EventResize, W: w, H: h}
		default:
			return fmt.Errorf("%w: unknown event type %d", ErrBadDiff, t)
		}
		if i >= skip {
			u.events = append(u.events, ev)
		}
	}
	if len(diff) != 0 {
		return ErrBadDiff
	}
	return nil
}

// decodeDims reads a screen's width and height, two uvarints, from the front
// of diff and returns them with the rest of it. ok is false — the diff is
// malformed — unless both are in [1, terminal.MaxDim]: a peer's dimensions
// are bounded where they are decoded, so no screen is ever sized by one the
// journal could not restore (or by one no allocation can satisfy).
func decodeDims(diff []byte) (w, h int, rest []byte, ok bool) {
	var dims [2]int
	for i := range dims {
		v, n := binary.Uvarint(diff)
		if n <= 0 || v < 1 || v > terminal.MaxDim {
			return 0, 0, nil, false
		}
		dims[i], diff = int(v), diff[n:]
	}
	return dims[0], dims[1], diff, true
}

// Subtract implements transport.State: drops the shared prefix with other,
// advancing base so global indices remain stable. It compacts in place
// (other may be u itself), so a slice from EventsSince does not survive it.
func (u *UserStream) Subtract(other *UserStream) {
	if other.Size() <= u.base {
		return
	}
	drop := min(other.Size()-u.base, uint64(len(u.events)))
	u.events = slices.Delete(u.events, 0, int(drop)) // clears the vacated tail
	u.base += drop
}
