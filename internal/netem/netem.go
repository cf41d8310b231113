// Package netem is a deterministic network emulator in the spirit of the
// Linux netem qdisc the paper used for its packet-loss experiment. It models
// unidirectional links with propagation delay, jitter, i.i.d. loss,
// duplication, corruption and truncation, a bottleneck transmission rate
// and a drop-tail queue, delivering packets through a simclock.Scheduler so
// that entire experiments run in virtual time and are exactly reproducible
// from a seed.
//
// A link is the only place a simulated datagram is lost or damaged, and
// every fault is drawn from the link's own seeded rng: the fault a
// datagram gets depends on its link's seed and that link's traffic alone,
// never on what other links carry. Link.SetParams changes a live link's
// parameters (netem's "tc qdisc change"), so a schedule can open and close
// a fault window.
//
// The same emulator reproduces every network in the paper's evaluation:
// Sprint EV-DO (long RTT), Verizon LTE with a deep bufferbloated bottleneck
// queue, the MIT–Singapore wired path, and the 29%-loss netem router.
package netem

import (
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/simclock"
)

// Addr identifies an endpoint on the emulated network, standing in for an
// (IP, UDP port) pair. The Host field changes when a mobile client roams.
//
// IPv4 addresses (and everything the emulator itself mints) use Host+Port
// alone. A native IPv6 peer on the real-socket path sets V6 and carries
// its upper 12 address bytes in Pfx, with the low 4 bytes in Host — the
// struct stays comparable (it is a map key throughout the stack) and the
// mapping stays bijective, so replies decompress straight back into
// socket addresses with no side table to poison. IPv4-mapped IPv6 sources
// (::ffff:a.b.c.d) canonicalize to the plain IPv4 form; the V6 flag
// disambiguates ::0.0.0.1 from 0.0.0.1. Scope IDs (link-local zones) are
// out of scope: such peers are refused at decode rather than aliased.
type Addr struct {
	Host uint32
	Port uint16
	V6   bool
	Pfx  [12]byte
}

// String renders the address as Go's net package renders the socket
// address it stands for: a.b.c.d:port, or [v6]:port for a native IPv6 peer.
func (a Addr) String() string {
	ip := netip.AddrFrom4([4]byte{byte(a.Host >> 24), byte(a.Host >> 16), byte(a.Host >> 8), byte(a.Host)})
	if a.V6 {
		var v6 [16]byte
		copy(v6[:], a.Pfx[:])
		copy(v6[12:], ip.AsSlice())
		ip = netip.AddrFrom16(v6)
	}
	return netip.AddrPortFrom(ip, a.Port).String()
}

// Packet is a datagram in flight on the emulated network.
type Packet struct {
	Src, Dst Addr
	Payload  []byte
}

// Handler receives packets addressed to an attached node.
type Handler func(p Packet)

// Network dispatches delivered packets to attached nodes by address.
// Packets addressed to a detached node are silently dropped, exactly as on
// a real network.
type Network struct {
	sched *simclock.Scheduler
	nodes map[Addr]Handler
}

// NewNetwork returns an empty network driven by sched.
func NewNetwork(sched *simclock.Scheduler) *Network {
	return &Network{sched: sched, nodes: make(map[Addr]Handler)}
}

// Attach registers h to receive packets addressed to a. Re-attaching an
// address replaces the previous handler; a roaming client attaches its new
// address and detaches the old one.
func (n *Network) Attach(a Addr, h Handler) { n.nodes[a] = h }

// Detach removes the node at a.
func (n *Network) Detach(a Addr) { delete(n.nodes, a) }

func (n *Network) deliver(p Packet) {
	if h, ok := n.nodes[p.Dst]; ok {
		h(p)
	}
}

// LinkParams configures one direction of an emulated path.
type LinkParams struct {
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// Jitter adds a uniform random extra delay in [0, Jitter).
	Jitter time.Duration
	// LossProb is the i.i.d. probability that a packet is dropped.
	LossProb float64
	// DupProb is the i.i.d. probability that a packet is delivered twice,
	// both copies at the original's instant.
	DupProb float64
	// CorruptProb is the i.i.d. probability that a packet arrives with one
	// bit flipped (in a copy; the sender's buffer is never written).
	CorruptProb float64
	// TruncProb is the i.i.d. probability that a packet arrives as a
	// strict, non-empty prefix of itself.
	TruncProb float64
	// RateBitsPerSec is the bottleneck transmission rate; 0 means infinite.
	RateBitsPerSec int64
	// QueueBytes is the drop-tail queue capacity ahead of the bottleneck;
	// 0 means unlimited. Deep queues model 3G/LTE bufferbloat.
	QueueBytes int
	// Overhead is added to each packet's length when computing
	// transmission time and queue occupancy (IP+UDP headers and so on).
	Overhead int
	// AllowReorder permits jitter to reorder packets. When false
	// (the default), delivery times are monotonized per link.
	AllowReorder bool
	// DeliveryQuantum, when positive, rounds every delivery instant up to
	// the next multiple of the quantum. It models receive-side interrupt
	// coalescing / reader-wakeup granularity: a real NIC and epoll loop
	// hand the process everything that arrived since the last wakeup in
	// one go, which is exactly the clustering that makes recvmmsg pay off.
	// Packets that would land within the same quantum are delivered at the
	// same (quantized) instant, where a batch-aware endpoint (BatchSink)
	// can take them as one batch. Zero keeps exact delivery times.
	DeliveryQuantum time.Duration
}

// LinkStats counts what happened to packets offered to a link.
type LinkStats struct {
	Sent          int // packets accepted onto the link
	Delivered     int // deliveries, a duplicate's two included
	DroppedLoss   int // random loss
	DroppedQueue  int // drop-tail overflow
	Duplicated    int // accepted packets delivered twice
	Corrupted     int // accepted packets delivered with one bit flipped
	Truncated     int // accepted packets delivered as a strict prefix
	MaxQueueBytes int // high-water mark of queue occupancy
}

// Link is one direction of an emulated path. Multiple flows may share a
// Link, in which case they share its bottleneck queue — this is how the
// "concurrent TCP download" experiment fills the buffer that delays SSH.
type Link struct {
	net          *Network
	params       LinkParams
	rng          *rand.Rand
	busyUntil    time.Time // when the bottleneck transmitter frees up
	queuedBytes  int
	lastDelivery time.Time
	stats        LinkStats
}

// NewLink creates a link on net with the given parameters. Links with the
// same seed and traffic behave identically run-to-run.
func NewLink(net *Network, params LinkParams, seed int64) *Link {
	return &Link{net: net, params: params, rng: rand.New(rand.NewSource(seed))}
}

// SetParams changes the live link's configuration from the next Send on.
// Packets already in flight keep the instants they were given.
func (l *Link) SetParams(p LinkParams) { l.params = p }

// Stats returns a snapshot of the link's counters.
func (l *Link) Stats() LinkStats { return l.stats }

// Send offers a packet to the link and reports whether it entered the link
// (false means it was dropped at ingress by loss or a full queue). The
// payload is not copied; callers must not reuse the buffer.
func (l *Link) Send(p Packet) bool {
	now := l.net.sched.Now()
	if l.params.LossProb > 0 && l.rng.Float64() < l.params.LossProb {
		l.stats.DroppedLoss++
		return false
	}
	size := len(p.Payload) + l.params.Overhead
	deliverAt := now
	if l.params.RateBitsPerSec > 0 {
		if l.params.QueueBytes > 0 && l.queuedBytes+size > l.params.QueueBytes {
			l.stats.DroppedQueue++
			return false
		}
		start := now
		if l.busyUntil.After(start) {
			start = l.busyUntil
		}
		tx := time.Duration(int64(size) * 8 * int64(time.Second) / l.params.RateBitsPerSec)
		l.busyUntil = start.Add(tx)
		l.queuedBytes += size
		if l.queuedBytes > l.stats.MaxQueueBytes {
			l.stats.MaxQueueBytes = l.queuedBytes
		}
		endOfTx := l.busyUntil
		l.net.sched.At(endOfTx, func() { l.queuedBytes -= size })
		deliverAt = endOfTx
	}
	// Damage happens on the wire, past the bottleneck: the packet occupied
	// the queue at its full size. Each draw is made only when its
	// probability is set, so a link without these faults draws exactly
	// the sequence it always has.
	if l.params.CorruptProb > 0 && len(p.Payload) > 0 && l.rng.Float64() < l.params.CorruptProb {
		c := append([]byte(nil), p.Payload...)
		c[l.rng.Intn(len(c))] ^= 1 << l.rng.Intn(8)
		p.Payload = c
		l.stats.Corrupted++
	}
	if l.params.TruncProb > 0 && len(p.Payload) > 1 && l.rng.Float64() < l.params.TruncProb {
		n := 1 + l.rng.Intn(len(p.Payload)-1)
		p.Payload = p.Payload[:n:n]
		l.stats.Truncated++
	}
	var dup []byte
	if l.params.DupProb > 0 && l.rng.Float64() < l.params.DupProb {
		// The copy has its own buffer: a receiver may decrypt in place.
		dup = make([]byte, len(p.Payload))
		copy(dup, p.Payload)
		l.stats.Duplicated++
	}
	deliverAt = deliverAt.Add(l.params.Delay)
	if l.params.Jitter > 0 {
		deliverAt = deliverAt.Add(time.Duration(l.rng.Int63n(int64(l.params.Jitter))))
	}
	if q := l.params.DeliveryQuantum; q > 0 {
		// Round up to the next quantum boundary (ceiling preserves per-link
		// ordering, so it composes with the monotonize step below).
		if rem := deliverAt.UnixNano() % int64(q); rem > 0 {
			deliverAt = deliverAt.Add(q - time.Duration(rem))
		}
	}
	if !l.params.AllowReorder && deliverAt.Before(l.lastDelivery) {
		deliverAt = l.lastDelivery
	}
	l.lastDelivery = deliverAt
	l.stats.Sent++
	l.net.sched.At(deliverAt, func() {
		l.deliver(p)
		if dup != nil {
			p.Payload = dup
			l.deliver(p)
		}
	})
	return true
}

func (l *Link) deliver(p Packet) {
	l.stats.Delivered++
	l.net.deliver(p)
}

// BatchSink is a batch-aware endpoint: it coalesces every packet
// delivered to its address in the same scheduler instant and hands them
// to the handler as one slice — the virtual-time analogue of one
// recvmmsg call draining the socket queue. Combined with
// LinkParams.DeliveryQuantum (which clusters near-simultaneous arrivals
// onto shared instants) it lets in-process simulations exercise the same
// batch ingress code path a production daemon runs on a real socket.
type BatchSink struct {
	net     *Network
	handler func(pkts []Packet)
	pending []Packet
	scratch []Packet // drained batch handed to the handler, then recycled
	armed   bool
}

// NewBatchSink attaches a coalescing endpoint for a at its network.
// The batch slice passed to h is reused after h returns; retain copies.
func NewBatchSink(n *Network, a Addr, h func(pkts []Packet)) *BatchSink {
	s := &BatchSink{net: n, handler: h}
	n.Attach(a, s.deliver)
	return s
}

func (s *BatchSink) deliver(p Packet) {
	s.pending = append(s.pending, p)
	if !s.armed {
		// All deliveries for this instant were scheduled before now, so an
		// After(0) event runs behind them (same-instant events fire FIFO)
		// and the drain sees the complete batch.
		s.armed = true
		s.net.sched.AfterFunc(0, s.drain)
	}
}

func (s *BatchSink) drain() {
	s.armed = false
	batch := s.pending
	// Swap buffers before invoking the handler, so packets a re-entrant
	// same-instant delivery might add are not lost (they start a new
	// batch) and the handler's slice is stable while it runs.
	s.pending = s.scratch[:0]
	s.scratch = batch
	if len(batch) > 0 {
		s.handler(batch)
	}
}

// Path is a bidirectional link pair between a client side and a server
// side: Up carries client→server traffic, Down carries server→client.
type Path struct {
	Up, Down *Link
}

// NewPath builds a symmetric path from one parameter set, with independent
// loss/jitter randomness per direction derived from seed.
func NewPath(net *Network, params LinkParams, seed int64) *Path {
	return &Path{
		Up:   NewLink(net, params, seed),
		Down: NewLink(net, params, seed+0x9e3779b9),
	}
}

// NewAsymmetricPath builds a path with distinct per-direction parameters.
func NewAsymmetricPath(net *Network, up, down LinkParams, seed int64) *Path {
	return &Path{
		Up:   NewLink(net, up, seed),
		Down: NewLink(net, down, seed+0x9e3779b9),
	}
}

// Profiles for the paper's evaluation networks. RTTs follow §4: EV-DO
// "about half a second", MIT–Singapore 273 ms, the loss experiment 100 ms.
// Rates and queue depths are chosen to reproduce the published bufferbloat
// behaviour (multi-second delays under a concurrent bulk transfer).

// EVDO models the Sprint EV-DO (3G) connection: ~500 ms RTT, modest rate,
// a deep buffer, light jitter.
func EVDO() LinkParams {
	return LinkParams{
		Delay:          190 * time.Millisecond,
		Jitter:         25 * time.Millisecond,
		RateBitsPerSec: 900_000,
		QueueBytes:     30_000,
		Overhead:       28,
	}
}

// LTE models the Verizon LTE connection: short propagation delay, high
// rate, and a very deep drop-tail buffer — the bufferbloat that produces
// multi-second SSH latency when a concurrent download fills it.
func LTE() LinkParams {
	return LinkParams{
		Delay:          25 * time.Millisecond,
		Jitter:         10 * time.Millisecond,
		RateBitsPerSec: 8_000_000,
		QueueBytes:     4_000_000,
		Overhead:       28,
	}
}

// Transoceanic models the MIT→Singapore wired path: 273 ms RTT, fast,
// effectively lossless, tiny jitter.
func Transoceanic() LinkParams {
	return LinkParams{
		Delay:          136 * time.Millisecond,
		Jitter:         2 * time.Millisecond,
		RateBitsPerSec: 100_000_000,
		QueueBytes:     1_000_000,
		Overhead:       28,
	}
}

// LossyNetem models the paper's router experiment: 100 ms RTT and 29%
// i.i.d. loss in each direction (≈50% round-trip loss), no rate limit.
func LossyNetem() LinkParams {
	return LinkParams{
		Delay:    50 * time.Millisecond,
		LossProb: 0.29,
		Overhead: 28,
	}
}
