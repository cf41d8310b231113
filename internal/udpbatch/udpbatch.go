// Package udpbatch is the vectorized socket surface under the sessiond
// daemon. The paper's mosh-server owns one socket per session, so one
// syscall per datagram is free; a daemon multiplexing thousands of
// sessions over one UDP socket pays that syscall on every packet in each
// direction, and at high session counts it dominates the per-packet cost.
// This package replaces the one-datagram-at-a-time contract with a
// batch-first one:
//
//   - Conn moves whole batches: ReadBatch fills a caller-owned slice of
//     Messages (one syscall on Linux via recvmmsg), WriteBatch transmits
//     one (sendmmsg), with short-batch and partial-write semantics spelled
//     out below.
//   - Pool is a bounded free ring of wire buffers, so the egress ring's
//     copies of outgoing datagrams recycle without allocating per
//     datagram. (The read path needs none: the reader hands the same
//     slots back to the kernel after every sweep.)
//   - NewLoopConn adapts a single-datagram connection to Conn: one
//     datagram per call — the portable fallback path, and the accounting
//     baseline.
//
// The Linux fast path lives in mmsg_linux.go behind a build tag and uses
// raw syscalls only (no new dependencies); NewUDPConn picks it when
// available and falls back to the loop adapter elsewhere. Every provider
// moves one datagram per traversal of the kernel's UDP stack.
package udpbatch

import (
	"sync"

	"repro/internal/netem"
)

// DefaultBatch is the batch capacity used by callers that do not choose
// their own: large enough that a loaded daemon amortizes a syscall over
// tens of datagrams, small enough that one batch of MTU-sized buffers
// stays within a few hundred kilobytes.
const DefaultBatch = 64

// DefaultBufSize is the per-datagram buffer capacity the pool hands out.
// SSP fragments at an MTU of ~1200 bytes plus datagram-layer overhead, so
// 2 KiB covers every packet this stack emits; an oversized foreign
// datagram is truncated by the kernel and then discarded by the AEAD.
const DefaultBufSize = 2048

// Message is one datagram slot in a batch.
//
// For reads the caller provides Buf with free capacity (len is ignored,
// cap is the receive window) and ReadBatch reslices Buf to the datagram's
// bytes and sets Addr to its source. For writes the caller sets Buf to
// the wire bytes and Addr to the destination.
type Message struct {
	Buf  []byte
	Addr netem.Addr
}

// Conn is a batched datagram connection.
//
// ReadBatch blocks until at least one datagram is available, fills up to
// len(msgs) slots, and returns how many it filled ("short batch": any
// 1 <= n <= len(msgs) is a complete, successful read — the kernel simply
// had no more queued). n == 0 with a nil error is a transient-pressure
// yield (e.g. recvmmsg ENOMEM): nothing was read, the caller just calls
// again.
//
// WriteBatch transmits msgs in order and returns how many datagrams were
// consumed. A short count with a nil error means the kernel took only a
// prefix (partial write) — the caller retries the remainder. A non-nil
// error means msgs[n] itself failed; the caller should drop that datagram
// (SSP treats it as loss) and continue with msgs[n+1:].
type Conn interface {
	ReadBatch(msgs []Message) (n int, err error)
	WriteBatch(msgs []Message) (n int, err error)
	// BatchCap reports the largest batch one underlying syscall can move:
	// DefaultBatch-like values for vectorized implementations, 1 for
	// loop adapters. Metrics use it to attribute syscall counts honestly.
	BatchCap() int
}

// Optional Conn refinements. Conn itself must not grow methods — fault
// injectors and test fakes implement it structurally — so capabilities
// beyond the three-call contract are discovered by interface assertion.

// SlotSizer is implemented by providers whose reads can legitimately
// exceed the transport MTU, up to the 64 KiB UDP payload ceiling. The serve loop sizes
// its read slots to it, so an oversized-but-legitimate read can never be
// truncated (a truncated datagram fails the AEAD, and the peer's
// retransmissions of it fail forever — a livelock).
type SlotSizer interface {
	ReadSlotSize() int
}

// ReadSlotSize reports the read-slot capacity conn needs: its SlotSizer
// value when it declares one, fallback otherwise.
func ReadSlotSize(conn Conn, fallback int) int {
	if s, ok := conn.(SlotSizer); ok {
		if n := s.ReadSlotSize(); n > fallback {
			return n
		}
	}
	return fallback
}

// Provider names the kernel facility a Conn rides on ("mmsg", "loop");
// the capability probe, startup logs and CI read it.
type Provider interface {
	ProviderName() string
}

// ProviderName reports conn's provider, or "unknown" for implementations
// that do not declare one (fault injectors, test fakes).
func ProviderName(conn Conn) string {
	if p, ok := conn.(Provider); ok {
		return p.ProviderName()
	}
	return "unknown"
}

// TraversalCounter reports cumulative traversals of the kernel's UDP
// stack per direction. Every provider here moves one datagram per
// traversal, so none implements it; only the repository's benchmark
// (benchmark/) uses it, to report traversals per datagram for each rung.
type TraversalCounter interface {
	Traversals() (in, out int64)
}

// SingleConn is the one-datagram surface the loop adapter rides on: a
// blocking read and a consuming write.
type SingleConn interface {
	ReadFrom(buf []byte) (n int, src netem.Addr, err error)
	WriteTo(wire []byte, dst netem.Addr) error
}

// Pool is a bounded free ring of wire buffers. Get returns a zero-length
// buffer with at least BufSize capacity; Put recycles one. The ring is
// bounded so a burst cannot pin memory forever, and misses simply
// allocate — the steady state is all hits.
type Pool struct {
	mu   sync.Mutex
	free [][]byte
	size int
	max  int
	// gets/misses meter pool effectiveness: a miss is a Get that had to
	// allocate. A steady-state daemon should see the miss count plateau.
	gets   int64
	misses int64
}

// NewPool builds a pool handing out bufSize-capacity buffers and keeping
// at most max free ones (0 means 4×DefaultBatch).
func NewPool(bufSize, max int) *Pool {
	if bufSize <= 0 {
		bufSize = DefaultBufSize
	}
	if max <= 0 {
		max = 4 * DefaultBatch
	}
	return &Pool{size: bufSize, max: max}
}

// BufSize reports the capacity of buffers this pool hands out.
func (p *Pool) BufSize() int { return p.size }

// Get returns an empty buffer with at least BufSize capacity.
func (p *Pool) Get() []byte {
	p.mu.Lock()
	p.gets++
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return b[:0]
	}
	p.misses++
	p.mu.Unlock()
	return make([]byte, 0, p.size)
}

// Stats reports how many buffers Get has handed out and how many of
// those had to be freshly allocated (pool misses).
func (p *Pool) Stats() (gets, misses int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gets, p.misses
}

// Put recycles a buffer obtained from Get. Undersized foreign buffers are
// dropped rather than poisoning the ring.
func (p *Pool) Put(b []byte) {
	if cap(b) < p.size {
		return
	}
	p.mu.Lock()
	if len(p.free) < p.max {
		p.free = append(p.free, b)
	}
	p.mu.Unlock()
}

// loopConn adapts a SingleConn to the batch interface: one datagram per
// read call, a write loop per batch. This is the portable fallback and
// the semantic baseline the batched implementations must match.
type loopConn struct {
	sc SingleConn
}

// NewLoopConn wraps a single-datagram connection as a Conn.
func NewLoopConn(sc SingleConn) Conn { return &loopConn{sc: sc} }

func (l *loopConn) BatchCap() int { return 1 }

func (l *loopConn) ProviderName() string { return "loop" }

func (l *loopConn) ReadBatch(msgs []Message) (int, error) {
	if len(msgs) == 0 {
		return 0, nil
	}
	buf := msgs[0].Buf[:cap(msgs[0].Buf)]
	n, src, err := l.sc.ReadFrom(buf)
	if err != nil {
		return 0, err
	}
	msgs[0].Buf = buf[:n]
	msgs[0].Addr = src
	return 1, nil
}

func (l *loopConn) WriteBatch(msgs []Message) (int, error) {
	for i := range msgs {
		if err := l.sc.WriteTo(msgs[i].Buf, msgs[i].Addr); err != nil {
			return i, err
		}
	}
	return len(msgs), nil
}

// Close forwards to the underlying connection when it supports closing,
// so a daemon shutdown can unblock a pending read through the adapter.
func (l *loopConn) Close() error {
	if c, ok := l.sc.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}
