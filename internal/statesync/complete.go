package statesync

import (
	"encoding/binary"
	"sync"

	"repro/internal/terminal"
)

// Complete is the server→client SSP object: the complete terminal state.
// Its diff is a small header (dimensions and the echo ack) followed by the
// minimal ANSI byte string that transforms the source screen into this one
// (computed by terminal.NewFrame) — so intermediate screen states are never
// transmitted, which is what keeps "Control-C" working within an RTT on a
// flooded terminal (paper §1, §2.3).
type Complete struct {
	emu *terminal.Emulator
	// pool is the snapshot free list shared by this Complete and every
	// clone derived from it (lazily created on first Clone). The transport
	// recycles retired snapshots (transport.Recycler), Clone reuses their
	// shells via Framebuffer.CloneInto, and the steady-state snapshot churn
	// of a session allocates nothing. Pooled shells reference no rows (see
	// Recycle).
	pool *freeList[Complete]
}

// freeList recycles retired clones of one state object within one session.
// Like the rest of the state machinery it is single-owner: an object and
// its clones live on one goroutine.
type freeList[T any] struct {
	free []*T
}

// maxPooledSnapshots bounds a free list; the transport's steady state
// retires about as many snapshots per tick as it takes.
const maxPooledSnapshots = 4

// take pops a retired clone, or returns nil.
func (p *freeList[T]) take() *T {
	n := len(p.free)
	if n == 0 {
		return nil
	}
	x := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return x
}

// put keeps x for a later take unless the list is full (or was never
// created: x is not a clone and has none).
func (p *freeList[T]) put(x *T) {
	if p != nil && len(p.free) < maxPooledSnapshots {
		p.free = append(p.free, x)
	}
}

// NewComplete returns a blank terminal state of the given size.
func NewComplete(w, h int) *Complete {
	return &Complete{emu: terminal.NewEmulator(w, h)}
}

// NewCompleteWithFramebuffer wraps an existing screen state — a framebuffer
// decoded from a session journal — as the live terminal state. The
// framebuffer's storage is freshly owned (terminal.DecodeSnapshot allocates
// everything it returns), so no pooled or shared object leaks across the
// restore boundary.
func NewCompleteWithFramebuffer(fb *terminal.Framebuffer) *Complete {
	return &Complete{emu: terminal.NewEmulatorWithFramebuffer(fb)}
}

// Terminal exposes the wrapped emulator (the server writes host output to
// it; the client reads the synchronized screen from it).
func (c *Complete) Terminal() *terminal.Emulator { return c.emu }

// Framebuffer exposes the screen state.
func (c *Complete) Framebuffer() *terminal.Framebuffer { return c.emu.Framebuffer() }

// SetEchoAck updates the synchronized echo acknowledgment: the newest
// user-stream state whose keystrokes have been presented to the host
// application for at least the server's echo timeout (§3.2). Returns true
// when the value changed (making the state dirty).
func (c *Complete) SetEchoAck(n uint64) bool {
	if c.emu.Framebuffer().EchoAck == n {
		return false
	}
	c.emu.Framebuffer().EchoAck = n
	return true
}

// EchoAck reads the synchronized echo acknowledgment.
func (c *Complete) EchoAck() uint64 { return c.emu.Framebuffer().EchoAck }

// Clone implements transport.State. The screen snapshot is copy-on-write
// (terminal.Framebuffer.Clone), so cloning costs O(height) regardless of
// how much of the screen is populated — and when a recycled snapshot is
// available its storage is reused outright (Framebuffer.CloneInto), so the
// steady state costs no allocations either. Parser state is not cloned:
// every diff is a self-contained byte string, so a fresh parser is
// equivalent.
func (c *Complete) Clone() *Complete {
	if c.pool == nil {
		c.pool = &freeList[Complete]{}
	}
	if d := c.pool.take(); d != nil {
		d.emu.SetFramebuffer(c.emu.Framebuffer().CloneInto(d.emu.Framebuffer()))
		return d
	}
	return &Complete{
		emu:  terminal.NewEmulatorWithFramebuffer(c.emu.Framebuffer().Clone()),
		pool: c.pool,
	}
}

// Recycle implements transport.Recycler: the sender and the receiver hand
// back snapshots they have dropped from their history. A retired snapshot
// pins nothing: every row pointer and the title are dropped on the spot,
// and only the shell — the object and the capacity of its row and tab
// slices, which is all CloneInto reuses — waits on the free list. SSP's acknowledgments exist so the sender may forget (§2.3);
// a parked shell that kept its rows would hold a dead screen per pool slot.
func (c *Complete) Recycle() {
	c.emu.Framebuffer().Release()
	c.pool.put(c)
}

// AccumulatePooledResident tallies, like Framebuffer.AccumulateResident,
// the cell storage reachable from the retired shells waiting on this
// state's free list. Recycle releases a shell before pooling it, so the
// answer is zero; the resident gauge asks anyway, because a free list is
// exactly where dead screens hid from it before.
func (c *Complete) AccumulatePooledResident(seen terminal.ResidentSet) (bytes int) {
	if c.pool == nil {
		return 0
	}
	for _, d := range c.pool.free {
		bytes += d.emu.Framebuffer().AccumulateResident(seen)
	}
	return bytes
}

// Equal implements transport.State.
func (c *Complete) Equal(o *Complete) bool {
	return c.emu.Framebuffer().Equal(o.emu.Framebuffer())
}

// Identical implements transport.ExactState: Equal, and the same diff from
// any source byte for byte (terminal.Framebuffer.Identical).
func (c *Complete) Identical(o *Complete) bool {
	return c.emu.Framebuffer().Identical(o.emu.Framebuffer())
}

// DiffFrom implements transport.State.
func (c *Complete) DiffFrom(src *Complete) []byte {
	return c.AppendDiff(nil, src)
}

// frameWriters lends the diff renderer's scratch (the scroll-detection
// tables) to one AppendDiff at a time. It is the process's, not a session's:
// a writer's tables are sized by the screen it last rendered, and the frame
// it renders next does not depend on which one that was.
var frameWriters = sync.Pool{New: func() any { return new(terminal.FrameWriter) }}

// AppendDiff implements transport.State: it appends the wire diff to buf
// and returns the extended buffer. With a reused buffer and a warm writer
// pool this path performs no heap allocations in steady state.
func (c *Complete) AppendDiff(buf []byte, src *Complete) []byte {
	fb, sfb := c.emu.Framebuffer(), src.emu.Framebuffer()
	sameSize := fb.W == sfb.W && fb.H == sfb.H
	buf = binary.AppendUvarint(buf, uint64(fb.W))
	buf = binary.AppendUvarint(buf, uint64(fb.H))
	buf = binary.AppendUvarint(buf, fb.EchoAck)
	fw := frameWriters.Get().(*terminal.FrameWriter)
	buf = fw.AppendFrame(buf, sameSize, sfb, fb)
	frameWriters.Put(fw)
	return buf
}

// Apply implements transport.State.
func (c *Complete) Apply(diff []byte) error {
	if len(diff) == 0 {
		return nil
	}
	screenApplies.Add(1)
	screenApplyBytes.Add(int64(len(diff)))
	w, h, diff, ok := decodeDims(diff)
	if !ok {
		return ErrBadDiff
	}
	echoAck, n := binary.Uvarint(diff)
	if n <= 0 {
		return ErrBadDiff
	}
	diff = diff[n:]
	fb := c.emu.Framebuffer()
	if w != fb.W || h != fb.H {
		c.emu.Resize(w, h)
	}
	c.emu.Write(diff)
	c.emu.Framebuffer().EchoAck = echoAck
	return nil
}

// Subtract implements transport.State: screen states share no removable
// prefix, so this is a no-op (as in the reference implementation).
func (c *Complete) Subtract(*Complete) {}
