package netem

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/simclock"
)

var t0 = time.Date(2012, 4, 1, 0, 0, 0, 0, time.UTC)

func testNet() (*simclock.Scheduler, *Network) {
	s := simclock.NewScheduler(t0)
	return s, NewNetwork(s)
}

func TestDeliveryAfterDelay(t *testing.T) {
	s, n := testNet()
	var gotAt time.Time
	var got Packet
	dst := Addr{Host: 2, Port: 60001}
	n.Attach(dst, func(p Packet) { gotAt, got = s.Now(), p })
	l := NewLink(n, LinkParams{Delay: 100 * time.Millisecond}, 1)
	ok := l.Send(Packet{Src: Addr{Host: 1, Port: 9}, Dst: dst, Payload: []byte("hi")})
	if !ok {
		t.Fatal("send failed")
	}
	s.Drain(0)
	if !gotAt.Equal(t0.Add(100 * time.Millisecond)) {
		t.Fatalf("delivered at %v", gotAt)
	}
	if string(got.Payload) != "hi" || got.Src.Port != 9 {
		t.Fatalf("wrong packet %+v", got)
	}
}

func TestDetachedNodeDrops(t *testing.T) {
	s, n := testNet()
	l := NewLink(n, LinkParams{}, 1)
	l.Send(Packet{Dst: Addr{Host: 9}, Payload: []byte("x")})
	s.Drain(0) // must not panic
	if l.Stats().Delivered != 1 {
		t.Fatalf("stats = %+v", l.Stats())
	}
}

func TestLossRate(t *testing.T) {
	s, n := testNet()
	dst := Addr{Host: 2}
	delivered := 0
	n.Attach(dst, func(Packet) { delivered++ })
	l := NewLink(n, LinkParams{LossProb: 0.29}, 42)
	const total = 20000
	for i := 0; i < total; i++ {
		l.Send(Packet{Dst: dst, Payload: []byte("p")})
	}
	s.Drain(0)
	rate := 1 - float64(delivered)/float64(total)
	if math.Abs(rate-0.29) > 0.02 {
		t.Fatalf("observed loss %.3f, want ~0.29", rate)
	}
	st := l.Stats()
	if st.DroppedLoss+st.Delivered != total {
		t.Fatalf("loss accounting: %+v", st)
	}
}

func TestRateLimitSerializes(t *testing.T) {
	s, n := testNet()
	dst := Addr{Host: 2}
	var deliveries []time.Duration
	n.Attach(dst, func(Packet) { deliveries = append(deliveries, s.Now().Sub(t0)) })
	// 8000 bit/s => a 100-byte packet (no overhead) takes exactly 100ms.
	l := NewLink(n, LinkParams{RateBitsPerSec: 8000}, 1)
	for i := 0; i < 3; i++ {
		l.Send(Packet{Dst: dst, Payload: make([]byte, 100)})
	}
	s.Drain(0)
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 300 * time.Millisecond}
	for i := range want {
		if deliveries[i] != want[i] {
			t.Fatalf("delivery %d at %v, want %v (all: %v)", i, deliveries[i], want[i], deliveries)
		}
	}
}

func TestDropTailQueue(t *testing.T) {
	s, n := testNet()
	dst := Addr{Host: 2}
	n.Attach(dst, func(Packet) {})
	l := NewLink(n, LinkParams{RateBitsPerSec: 8000, QueueBytes: 250}, 1)
	accepted := 0
	for i := 0; i < 5; i++ {
		if l.Send(Packet{Dst: dst, Payload: make([]byte, 100)}) {
			accepted++
		}
	}
	if accepted != 2 {
		t.Fatalf("accepted %d packets into a 250-byte queue of 100-byte packets, want 2", accepted)
	}
	if l.Stats().DroppedQueue != 3 {
		t.Fatalf("stats = %+v", l.Stats())
	}
	s.Drain(0)
	if l.queuedBytes != 0 {
		t.Fatalf("queue did not drain: %d", l.queuedBytes)
	}
}

func TestQueueDrainsAllowingLaterTraffic(t *testing.T) {
	s, n := testNet()
	dst := Addr{Host: 2}
	delivered := 0
	n.Attach(dst, func(Packet) { delivered++ })
	l := NewLink(n, LinkParams{RateBitsPerSec: 8000, QueueBytes: 150}, 1)
	l.Send(Packet{Dst: dst, Payload: make([]byte, 100)})
	s.RunFor(150 * time.Millisecond) // first packet transmitted at 100ms
	if !l.Send(Packet{Dst: dst, Payload: make([]byte, 100)}) {
		t.Fatal("queue should have drained")
	}
	s.Drain(0)
	if delivered != 2 {
		t.Fatalf("delivered %d", delivered)
	}
}

func TestNoReorderByDefault(t *testing.T) {
	s, n := testNet()
	dst := Addr{Host: 2}
	var order []int
	n.Attach(dst, func(p Packet) { order = append(order, int(p.Payload[0])) })
	l := NewLink(n, LinkParams{Delay: 10 * time.Millisecond, Jitter: 50 * time.Millisecond}, 7)
	for i := 0; i < 50; i++ {
		l.Send(Packet{Dst: dst, Payload: []byte{byte(i)}})
		s.RunFor(time.Millisecond)
	}
	s.Drain(0)
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("reordered despite AllowReorder=false: %v", order)
		}
	}
}

func TestJitterCanReorderWhenAllowed(t *testing.T) {
	s, n := testNet()
	dst := Addr{Host: 2}
	var order []int
	n.Attach(dst, func(p Packet) { order = append(order, int(p.Payload[0])) })
	l := NewLink(n, LinkParams{Delay: time.Millisecond, Jitter: 100 * time.Millisecond, AllowReorder: true}, 7)
	for i := 0; i < 100; i++ {
		l.Send(Packet{Dst: dst, Payload: []byte{byte(i)}})
		s.RunFor(time.Millisecond)
	}
	s.Drain(0)
	reordered := false
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			reordered = true
		}
	}
	if !reordered {
		t.Fatal("expected at least one reordering with large jitter")
	}
}

func TestRoamingReattach(t *testing.T) {
	s, n := testNet()
	oldAddr := Addr{Host: 1, Port: 5}
	newAddr := Addr{Host: 99, Port: 6}
	atOld, atNew := 0, 0
	n.Attach(oldAddr, func(Packet) { atOld++ })
	l := NewLink(n, LinkParams{}, 1)
	l.Send(Packet{Dst: oldAddr})
	s.Drain(0)
	n.Detach(oldAddr)
	n.Attach(newAddr, func(Packet) { atNew++ })
	l.Send(Packet{Dst: oldAddr}) // stale destination: dropped
	l.Send(Packet{Dst: newAddr})
	s.Drain(0)
	if atOld != 1 || atNew != 1 {
		t.Fatalf("atOld=%d atNew=%d", atOld, atNew)
	}
}

func TestSharedLinkSharesQueue(t *testing.T) {
	s, n := testNet()
	a, b := Addr{Host: 2, Port: 1}, Addr{Host: 2, Port: 2}
	var aTimes []time.Duration
	n.Attach(a, func(Packet) { aTimes = append(aTimes, s.Now().Sub(t0)) })
	n.Attach(b, func(Packet) {})
	l := NewLink(n, LinkParams{RateBitsPerSec: 8000}, 1)
	// Bulk flow to b occupies the transmitter for 1s (1000 bytes at 1kB/s).
	l.Send(Packet{Dst: b, Payload: make([]byte, 1000)})
	// Interactive packet to a must wait behind it.
	l.Send(Packet{Dst: a, Payload: make([]byte, 10)})
	s.Drain(0)
	if len(aTimes) != 1 || aTimes[0] < time.Second {
		t.Fatalf("interactive packet did not queue behind bulk: %v", aTimes)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []time.Duration {
		s, n := testNet()
		dst := Addr{Host: 2}
		var times []time.Duration
		n.Attach(dst, func(Packet) { times = append(times, s.Now().Sub(t0)) })
		l := NewLink(n, LinkParams{Delay: 20 * time.Millisecond, Jitter: 30 * time.Millisecond, LossProb: 0.1}, 99)
		for i := 0; i < 200; i++ {
			l.Send(Packet{Dst: dst, Payload: []byte{byte(i)}})
			s.RunFor(3 * time.Millisecond)
		}
		s.Drain(0)
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPathDirections(t *testing.T) {
	s, n := testNet()
	client, server := Addr{Host: 1, Port: 10}, Addr{Host: 2, Port: 20}
	gotAtServer, gotAtClient := 0, 0
	n.Attach(client, func(Packet) { gotAtClient++ })
	n.Attach(server, func(Packet) { gotAtServer++ })
	p := NewPath(n, LinkParams{Delay: 5 * time.Millisecond}, 3)
	p.Up.Send(Packet{Src: client, Dst: server})
	p.Down.Send(Packet{Src: server, Dst: client})
	s.Drain(0)
	if gotAtServer != 1 || gotAtClient != 1 {
		t.Fatalf("server=%d client=%d", gotAtServer, gotAtClient)
	}
}

func TestProfilesSane(t *testing.T) {
	for name, p := range map[string]LinkParams{
		"evdo": EVDO(), "lte": LTE(), "transoceanic": Transoceanic(), "lossy": LossyNetem(),
	} {
		if p.Delay <= 0 {
			t.Errorf("%s: non-positive delay", name)
		}
		if p.LossProb < 0 || p.LossProb >= 1 {
			t.Errorf("%s: bad loss prob %f", name, p.LossProb)
		}
	}
	if LossyNetem().LossProb != 0.29 {
		t.Error("loss experiment must use the paper's 29% per-direction loss")
	}
}

// TestDeliveryQuantumClusters proves quantization rounds delivery
// instants up to shared boundaries: packets sent a few hundred
// microseconds apart on distinct links land at the same quantized
// instant, while exact delivery stays untouched with the quantum off.
func TestDeliveryQuantumClusters(t *testing.T) {
	s, n := testNet()
	dst := Addr{Host: 9, Port: 1}
	var at []time.Time
	n.Attach(dst, func(Packet) { at = append(at, s.Now()) })
	params := LinkParams{Delay: 2 * time.Millisecond, DeliveryQuantum: time.Millisecond}
	la := NewLink(n, params, 1)
	lb := NewLink(n, params, 2)
	s.RunFor(300 * time.Microsecond) // off a boundary: exact deliveries would differ
	la.Send(Packet{Dst: dst})
	s.RunFor(300 * time.Microsecond)
	lb.Send(Packet{Dst: dst})
	s.Drain(0)
	if len(at) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(at))
	}
	if !at[0].Equal(at[1]) {
		t.Fatalf("quantized deliveries differ: %v vs %v", at[0], at[1])
	}
	if got := at[0]; got.UnixNano()%int64(time.Millisecond) != 0 {
		t.Fatalf("delivery %v is not on a quantum boundary", got)
	}
	if early := t0.Add(2 * time.Millisecond); at[0].Before(early) {
		t.Fatalf("quantization delivered early: %v before %v", at[0], early)
	}
}

// TestDeliveryQuantumKeepsOrder checks per-link monotonicity survives
// quantization (ceiling is order-preserving, then monotonized).
func TestDeliveryQuantumKeepsOrder(t *testing.T) {
	s, n := testNet()
	dst := Addr{Host: 9, Port: 1}
	var seq []byte
	n.Attach(dst, func(p Packet) { seq = append(seq, p.Payload[0]) })
	l := NewLink(n, LinkParams{Delay: time.Millisecond, Jitter: 3 * time.Millisecond, DeliveryQuantum: 2 * time.Millisecond}, 7)
	for i := byte(0); i < 20; i++ {
		l.Send(Packet{Dst: dst, Payload: []byte{i}})
		s.RunFor(200 * time.Microsecond)
	}
	s.Drain(0)
	if len(seq) != 20 {
		t.Fatalf("delivered %d/20", len(seq))
	}
	for i := range seq {
		if seq[i] != byte(i) {
			t.Fatalf("reordered delivery: %v", seq)
		}
	}
}

// TestBatchSinkCoalescesInstant: all packets delivered at one instant
// arrive as one batch; packets at a later instant start a new batch.
func TestBatchSinkCoalescesInstant(t *testing.T) {
	s, n := testNet()
	dst := Addr{Host: 3, Port: 60001}
	var batches [][]byte
	NewBatchSink(n, dst, func(pkts []Packet) {
		var b []byte
		for _, p := range pkts {
			b = append(b, p.Payload[0])
		}
		batches = append(batches, b)
	})
	params := LinkParams{Delay: 5 * time.Millisecond, DeliveryQuantum: time.Millisecond}
	for i := byte(0); i < 6; i++ {
		l := NewLink(n, params, int64(i))
		l.Send(Packet{Dst: dst, Payload: []byte{i}})
	}
	s.RunFor(20 * time.Millisecond)
	l := NewLink(n, params, 99)
	l.Send(Packet{Dst: dst, Payload: []byte{42}})
	s.Drain(0)
	if len(batches) != 2 {
		t.Fatalf("got %d batches (%v), want 2", len(batches), batches)
	}
	if len(batches[0]) != 6 {
		t.Fatalf("first batch = %v, want all 6 same-instant packets", batches[0])
	}
	if len(batches[1]) != 1 || batches[1][0] != 42 {
		t.Fatalf("second batch = %v", batches[1])
	}
}

// faultParams sets every wire fault often enough that a short run mixes
// them all.
var faultParams = LinkParams{
	Delay: 5 * time.Millisecond, LossProb: 0.15, DupProb: 0.15, CorruptProb: 0.15, TruncProb: 0.15,
}

// TestLinkFaultsPerLink: a link's faults are drawn from its own rng, so
// link A's sequence of drops, duplicates, corruptions and truncations is
// the same whether or not link B on the same network carries traffic in
// between.
func TestLinkFaultsPerLink(t *testing.T) {
	type trace struct {
		stats     []LinkStats // A's counters after each send
		delivered []string    // what arrived at A's destination, in order
	}
	run := func(withB bool) trace {
		s, n := testNet()
		dstA, dstB := Addr{Host: 2, Port: 1}, Addr{Host: 2, Port: 2}
		var tr trace
		n.Attach(dstA, func(p Packet) { tr.delivered = append(tr.delivered, string(p.Payload)) })
		n.Attach(dstB, func(Packet) {})
		a := NewLink(n, faultParams, 11)
		b := NewLink(n, faultParams, 12)
		for i := 0; i < 300; i++ {
			a.Send(Packet{Dst: dstA, Payload: []byte(fmt.Sprintf("datagram %03d on link A", i))})
			tr.stats = append(tr.stats, a.Stats())
			if withB {
				for j := 0; j < 1+i%3; j++ {
					b.Send(Packet{Dst: dstB, Payload: []byte("link B traffic")})
				}
			}
			s.RunFor(time.Millisecond)
		}
		s.Drain(0)
		st := a.Stats()
		if st.DroppedLoss == 0 || st.Duplicated == 0 || st.Corrupted == 0 || st.Truncated == 0 {
			t.Fatalf("faults did not mix: %+v", st)
		}
		return tr
	}
	quiet, busy := run(false), run(true)
	for i := range quiet.stats {
		if quiet.stats[i] != busy.stats[i] {
			t.Fatalf("send %d: link A's counters depend on link B's traffic:\nquiet %+v\nbusy  %+v",
				i, quiet.stats[i], busy.stats[i])
		}
	}
	if !slices.Equal(quiet.delivered, busy.delivered) {
		t.Fatal("link A delivered different datagrams when link B carried traffic")
	}
}

// TestLinkFaultDuplicate: a duplicate arrives twice at one instant, in a
// buffer of its own.
func TestLinkFaultDuplicate(t *testing.T) {
	s, n := testNet()
	dst := Addr{Host: 2}
	var at []time.Time
	var got [][]byte
	n.Attach(dst, func(p Packet) { at, got = append(at, s.Now()), append(got, p.Payload) })
	l := NewLink(n, LinkParams{Delay: 7 * time.Millisecond, DupProb: 1}, 1)
	l.Send(Packet{Dst: dst, Payload: []byte("twice")})
	s.Drain(0)
	if len(got) != 2 || !at[0].Equal(at[1]) || !at[0].Equal(t0.Add(7*time.Millisecond)) {
		t.Fatalf("deliveries at %v, want two at %v", at, t0.Add(7*time.Millisecond))
	}
	if string(got[0]) != "twice" || string(got[1]) != "twice" || &got[0][0] == &got[1][0] {
		t.Fatalf("copies %q %q must be equal and in distinct buffers", got[0], got[1])
	}
	if st := l.Stats(); st.Duplicated != 1 || st.Sent != 1 || st.Delivered != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestLinkFaultCorrupt: a corrupted datagram differs from the original by
// exactly one bit, and the sender's buffer is never written.
func TestLinkFaultCorrupt(t *testing.T) {
	s, n := testNet()
	dst := Addr{Host: 2}
	var got []byte
	n.Attach(dst, func(p Packet) { got = p.Payload })
	l := NewLink(n, LinkParams{CorruptProb: 1}, 1)
	const orig = "datagram-payload-bytes"
	for i := 0; i < 50; i++ {
		sent := []byte(orig)
		l.Send(Packet{Dst: dst, Payload: sent})
		s.Drain(0)
		if string(sent) != orig {
			t.Fatalf("corruption wrote the sender's buffer: %q", sent)
		}
		if len(got) != len(orig) {
			t.Fatalf("corrupted length %d, want %d", len(got), len(orig))
		}
		flipped := 0
		for j := range got {
			flipped += bits.OnesCount8(got[j] ^ orig[j])
		}
		if flipped != 1 {
			t.Fatalf("%q differs from %q by %d bits, want 1", got, orig, flipped)
		}
	}
	if l.Stats().Corrupted != 50 {
		t.Fatalf("stats = %+v", l.Stats())
	}
}

// TestLinkFaultTruncate: a truncated datagram is a strict, non-empty
// prefix of the original.
func TestLinkFaultTruncate(t *testing.T) {
	s, n := testNet()
	dst := Addr{Host: 2}
	var got []byte
	n.Attach(dst, func(p Packet) { got = p.Payload })
	l := NewLink(n, LinkParams{TruncProb: 1}, 1)
	const orig = "datagram-payload-bytes"
	for i := 0; i < 50; i++ {
		l.Send(Packet{Dst: dst, Payload: []byte(orig)})
		s.Drain(0)
		if len(got) == 0 || len(got) >= len(orig) || !strings.HasPrefix(orig, string(got)) {
			t.Fatalf("got %q, want a strict non-empty prefix of %q", got, orig)
		}
	}
	if l.Stats().Truncated != 50 {
		t.Fatalf("stats = %+v", l.Stats())
	}
}

// TestLinkFaultSetParams: SetParams takes effect on the next Send, so a
// schedule can open and close a fault window on a live link.
func TestLinkFaultSetParams(t *testing.T) {
	s, n := testNet()
	dst := Addr{Host: 2}
	delivered := 0
	n.Attach(dst, func(Packet) { delivered++ })
	base := LinkParams{Delay: time.Millisecond}
	l := NewLink(n, base, 1)
	if !l.Send(Packet{Dst: dst, Payload: []byte("a")}) {
		t.Fatal("clean link dropped")
	}
	open := base
	open.LossProb = 1
	l.SetParams(open)
	if l.Send(Packet{Dst: dst, Payload: []byte("b")}) {
		t.Fatal("send after opening a 100% loss window was accepted")
	}
	open.LossProb, open.DupProb = 0, 1
	l.SetParams(open)
	l.Send(Packet{Dst: dst, Payload: []byte("c")})
	l.SetParams(base)
	l.Send(Packet{Dst: dst, Payload: []byte("d")})
	s.Drain(0)
	if delivered != 4 || l.params != base {
		t.Fatalf("delivered %d (want a, c twice, d), params %+v", delivered, l.params)
	}
	if st := l.Stats(); st.DroppedLoss != 1 || st.Duplicated != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
