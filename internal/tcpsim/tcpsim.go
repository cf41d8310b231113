// Package tcpsim is a simplified TCP implementation over the emulated
// network, built as the substrate for the SSH baseline in the paper's
// evaluation (§4). It reproduces the TCP mechanisms that dominate SSH's
// interactive latency on bad networks:
//
//   - reliable, in-order delivery with cumulative acks;
//   - retransmission timeout per RFC 6298 with TCP's one-second floor and
//     exponential backoff — the source of the "huge delays" the paper
//     measures under loss (SSP lowers the floor to 50 ms instead);
//   - slow start and congestion avoidance with fast retransmit on three
//     duplicate acks; interactive flows rarely have enough data in flight
//     to trigger it, which is exactly the paper's point (§2.2);
//   - head-of-line blocking: nothing after a lost byte is delivered until
//     the gap is repaired.
//
// A second use is the bulk "concurrent TCP download" flow that fills the
// LTE bottleneck buffer in the bufferbloat experiment.
package tcpsim

import (
	"encoding/binary"
	"math"
	"time"

	"repro/internal/netem"
	"repro/internal/simclock"
)

// Config parameterizes a connection endpoint.
type Config struct {
	// Sched drives timers (and supplies the clock).
	Sched *simclock.Scheduler
	// Link carries outgoing segments; the peer's address is Remote.
	Link *netem.Link
	// Local, Remote are the endpoint addresses.
	Local, Remote netem.Addr
	// Deliver receives in-order application bytes.
	Deliver func(data []byte)
	// UseCubic switches congestion avoidance to the CUBIC window curve
	// (RFC 8312): wall-clock growth that plateaus near the window where
	// loss last occurred. This is "Linux default TCP (cubic)" from the
	// paper's footnote, and it is what keeps a deep drop-tail buffer
	// standing full under a bulk download even as the queue inflates the
	// RTT — the LTE experiment's bufferbloat.
	UseCubic bool
}

// Stats counts connection activity.
type Stats struct {
	SegmentsSent    int
	Retransmissions int
	Timeouts        int
	FastRetransmits int
}

const (
	// mss is the maximum segment payload.
	mss = 1200
	// minRTO is the retransmission-timeout floor (RFC 6298 §2.4).
	minRTO = time.Second
	// maxRTO caps exponential backoff, as in Linux.
	maxRTO = 60 * time.Second
	// initialCwnd is the initial window in segments, like modern Linux.
	initialCwnd = 10
	// beta is the multiplicative-decrease factor on loss (CUBIC's value;
	// Reno would be 0.5).
	beta = 0.7
	// caGain scales congestion-avoidance growth relative to Reno's one
	// MSS per RTT, approximating CUBIC's faster reprobing of a
	// previously-achieved window on long-queue paths.
	caGain = 4
)

// segment header layout: seq(4) ack(4) flags(1) [payload].
const headerLen = 9

const flagData = 1

// Conn is one endpoint of a simplified TCP connection. The "handshake" is
// implicit (both endpoints are constructed knowing each other), matching
// an SSH session that is already established when measurement begins.
type Conn struct {
	cfg Config

	// Send state (byte sequence space).
	sndBuf []byte // unacknowledged + unsent bytes, base sndUna
	sndUna uint32
	sndNxt uint32
	// segEnds tracks the end sequence of each unacked segment: the
	// congestion window is enforced in packets (like Linux), which is
	// what strangles dup-ack traffic after a timeout and produces TCP's
	// deep backoff stalls on interactive flows.
	segEnds  []uint32
	cwnd     float64 // in bytes
	ssthresh float64
	dupAcks  int
	// recoverSeq implements NewReno loss recovery: the window is reduced
	// at most once per loss event (until sndUna passes recoverSeq).
	recoverSeq uint32
	// rtxNext is the retransmission sweep position within a recovery
	// episode: it advances once through the window (approximating SACK)
	// so a mass drop is repaired in one pass rather than one hole per
	// round trip.
	rtxNext   uint32
	rtxTimer  *simclock.EventTimer
	rtxArmed  bool
	backoff   uint
	srtt      float64 // ms
	rttvar    float64
	minRTT    float64 // ms; HyStart-style slow-start exit signal
	haveRTT   bool
	sampleSeq uint32    // sequence being timed
	sampleAt  time.Time // when it was sent
	sampling  bool

	// Receive state.
	rcvNxt uint32
	ooo    map[uint32][]byte

	// CUBIC state.
	wMax       float64
	epochStart time.Time

	stats Stats
}

// New creates a connection endpoint.
func New(cfg Config) *Conn {
	c := &Conn{
		cfg:      cfg,
		cwnd:     initialCwnd * mss,
		ssthresh: 1 << 30,
		ooo:      make(map[uint32][]byte),
	}
	c.rtxTimer = cfg.Sched.NewEventTimer(c.onTimeout)
	return c
}

// Outstanding reports bytes sent but not yet acknowledged.
func (c *Conn) Outstanding() int { return int(c.sndNxt - c.sndUna) }

// Buffered reports bytes accepted by Send but not yet acknowledged.
func (c *Conn) Buffered() int { return len(c.sndBuf) }

// RTO returns the current retransmission timeout with backoff applied.
func (c *Conn) RTO() time.Duration {
	var base time.Duration
	if !c.haveRTT {
		base = time.Second // RFC 6298 initial RTO
	} else {
		base = time.Duration((c.srtt + 4*c.rttvar) * float64(time.Millisecond))
	}
	if base < minRTO {
		base = minRTO
	}
	rto := base << c.backoff
	if rto > maxRTO {
		rto = maxRTO
	}
	return rto
}

// Send queues application data for reliable delivery.
func (c *Conn) Send(data []byte) {
	c.sndBuf = append(c.sndBuf, data...)
	c.trySend()
}

// cwndPackets is the congestion window in whole segments.
func (c *Conn) cwndPackets() int {
	p := int(c.cwnd) / mss
	if p < 1 {
		p = 1
	}
	return p
}

// trySend transmits as much queued data as the congestion window allows,
// gated both in bytes and in packets.
func (c *Conn) trySend() {
	for {
		inFlight := int(c.sndNxt - c.sndUna)
		if inFlight >= int(c.cwnd) || len(c.segEnds) >= c.cwndPackets() {
			return
		}
		unsent := len(c.sndBuf) - inFlight
		if unsent <= 0 {
			return
		}
		n := unsent
		if n > mss {
			n = mss
		}
		if room := int(c.cwnd) - inFlight; n > room {
			n = room
		}
		if n <= 0 {
			return
		}
		payload := c.sndBuf[inFlight : inFlight+n]
		c.transmit(c.sndNxt, payload, false)
		c.sndNxt += uint32(n)
		c.segEnds = append(c.segEnds, c.sndNxt)
	}
}

// transmit sends one data segment and manages the RTT sample and timer.
func (c *Conn) transmit(seq uint32, payload []byte, isRtx bool) {
	buf := make([]byte, headerLen+len(payload))
	binary.BigEndian.PutUint32(buf, seq)
	binary.BigEndian.PutUint32(buf[4:], c.rcvNxt)
	buf[8] = flagData
	copy(buf[headerLen:], payload)
	c.stats.SegmentsSent++
	if isRtx {
		c.stats.Retransmissions++
		if c.sampling && c.sampleSeq == seq {
			c.sampling = false // Karn's algorithm: never time retransmits
		}
	} else if !c.sampling {
		c.sampling = true
		c.sampleSeq = seq
		c.sampleAt = c.cfg.Sched.Now()
	}
	c.cfg.Link.Send(netem.Packet{Src: c.cfg.Local, Dst: c.cfg.Remote, Payload: buf})
	// RFC 6298 (5.1): start the timer when data is put in flight — but
	// only if it is not already running, or new transmissions would
	// postpone a lost segment's timeout indefinitely.
	if !c.rtxArmed || isRtx {
		c.armTimer()
	}
}

// cubicGrow advances the window along the CUBIC curve (RFC 8312):
// W(t) = C·(t−K)³ + Wmax, in segments, with C = 0.4 and
// K = ∛(Wmax·(1−β)/C). Growth is steep far from Wmax and flattens near
// it, so a flow sharing a deep drop-tail buffer hovers at the buffer's
// capacity instead of oscillating between empty and full.
func (c *Conn) cubicGrow() {
	now := c.cfg.Sched.Now()
	if c.epochStart.IsZero() {
		c.epochStart = now
		if c.wMax < c.cwnd {
			c.wMax = c.cwnd
		}
	}
	t := now.Sub(c.epochStart).Seconds()
	wmaxSeg := c.wMax / mss
	const cubicC = 0.4
	b := beta // 1−β in float64 arithmetic, not as an exact constant
	k := math.Cbrt(wmaxSeg * (1 - b) / cubicC)
	target := (cubicC*math.Pow(t-k, 3) + wmaxSeg) * mss
	if target > c.cwnd {
		// At most one MSS per ack keeps growth ack-clocked.
		c.cwnd += math.Min(target-c.cwnd, mss)
	}
}

// retransmitSweep resends up to maxSegs segments at the sweep position,
// advancing it. Segments the receiver already holds are discarded there;
// the sweep visits each outstanding byte at most once per recovery
// episode, so even a mass drop is repaired in a single self-clocked pass.
func (c *Conn) retransmitSweep(maxSegs int) {
	if c.rtxNext < c.sndUna {
		c.rtxNext = c.sndUna
	}
	for i := 0; i < maxSegs; i++ {
		off := int(c.rtxNext - c.sndUna)
		remaining := c.Outstanding() - off
		if remaining <= 0 {
			return
		}
		n := remaining
		if n > mss {
			n = mss
		}
		c.transmit(c.rtxNext, c.sndBuf[off:off+n], true)
		c.rtxNext += uint32(n)
	}
}

func (c *Conn) sendAck() {
	buf := make([]byte, headerLen)
	binary.BigEndian.PutUint32(buf, c.sndNxt)
	binary.BigEndian.PutUint32(buf[4:], c.rcvNxt)
	c.stats.SegmentsSent++
	c.cfg.Link.Send(netem.Packet{Src: c.cfg.Local, Dst: c.cfg.Remote, Payload: buf})
}

func (c *Conn) armTimer() {
	c.rtxArmed = true
	c.rtxTimer.ResetAfter(c.RTO())
}

// onTimeout is the RTO expiry: back off exponentially, collapse the
// window, and retransmit the first unacknowledged segment (RFC 6298 §5).
func (c *Conn) onTimeout() {
	c.rtxArmed = false
	if c.Outstanding() == 0 {
		return
	}
	c.stats.Timeouts++
	c.backoff++
	c.ssthresh = c.cwnd / 2
	if min := float64(2 * mss); c.ssthresh < min {
		c.ssthresh = min
	}
	c.cwnd = mss
	c.dupAcks = 0
	// The timeout opens a fresh recovery episode; the repair sweep
	// restarts at the ack point.
	c.recoverSeq = c.sndNxt
	c.rtxNext = c.sndUna
	c.wMax = c.cwnd
	c.epochStart = time.Time{}
	n := c.Outstanding()
	if n > mss {
		n = mss
	}
	c.transmit(c.sndUna, c.sndBuf[:n], true)
}

// Receive processes one incoming segment (wire bytes from the netem
// handler).
func (c *Conn) Receive(pkt []byte) {
	if len(pkt) < headerLen {
		return
	}
	seq := binary.BigEndian.Uint32(pkt)
	ack := binary.BigEndian.Uint32(pkt[4:])
	hasData := pkt[8]&flagData != 0
	payload := pkt[headerLen:]

	c.processAck(ack)

	if hasData && len(payload) > 0 {
		c.processData(seq, payload)
		c.sendAck()
	}
}

func (c *Conn) processAck(ack uint32) {
	if ack > c.sndNxt {
		return // nonsense
	}
	if ack > c.sndUna {
		acked := int(ack - c.sndUna)
		// RTT sample (only for never-retransmitted segments).
		if c.sampling && ack > c.sampleSeq {
			ms := float64(c.cfg.Sched.Now().Sub(c.sampleAt).Milliseconds())
			if !c.haveRTT {
				c.srtt, c.rttvar, c.minRTT, c.haveRTT = ms, ms/2, ms, true
			} else {
				d := c.srtt - ms
				if d < 0 {
					d = -d
				}
				c.rttvar = 0.75*c.rttvar + 0.25*d
				c.srtt = 0.875*c.srtt + 0.125*ms
				if ms < c.minRTT {
					c.minRTT = ms
				}
			}
			c.sampling = false
			// HyStart-style delay signal: building queue ends slow start
			// before the window wildly overshoots the path.
			if c.cwnd < c.ssthresh && c.minRTT > 0 && c.srtt > 3*c.minRTT {
				c.ssthresh = c.cwnd
			}
		}
		c.sndUna = ack
		c.sndBuf = c.sndBuf[acked:]
		for len(c.segEnds) > 0 && c.segEnds[0] <= ack {
			c.segEnds = c.segEnds[1:]
		}
		c.backoff = 0
		c.dupAcks = 0
		// Congestion control: slow start, then additive increase. Growth
		// is per-ACK in MSS units (packet-counted, like Linux) so
		// interactive flows with tiny segments recover at the same pace
		// as bulk flows.
		switch {
		case c.cwnd < c.ssthresh:
			c.cwnd += mss
		case c.cfg.UseCubic:
			c.cubicGrow()
		default:
			c.cwnd += caGain * mss * mss / c.cwnd
		}
		if c.Outstanding() == 0 {
			c.rtxTimer.Stop()
			c.rtxArmed = false
		} else {
			// RFC 6298 (5.3): restart the timer when new data is acked.
			c.armTimer()
			// Partial ack during recovery: continue the repair sweep
			// rather than waiting one round trip per hole, which no
			// SACK-era TCP suffers. If the sweep already covered the
			// window but holes remain (retransmissions were dropped
			// too), start another pass.
			if ack <= c.recoverSeq {
				if c.rtxNext >= c.sndNxt {
					c.rtxNext = c.sndUna
				}
				c.retransmitSweep(2)
			}
		}
		c.trySend()
		return
	}
	if ack == c.sndUna && c.Outstanding() > 0 {
		c.dupAcks++
		// Modern Linux recovers from isolated loss with early
		// retransmit / SACK-based recovery well before the classic
		// three-dupack threshold; two duplicate acks trigger repair
		// here. The counter resets so a lost retransmission can be
		// repaired again by further duplicates.
		if c.dupAcks >= 2 {
			c.dupAcks = 0
			c.stats.FastRetransmits++
			if c.sndUna > c.recoverSeq {
				// New loss event: reduce once and remember how far the
				// recovery extends (NewReno), then start the repair
				// sweep at the hole.
				c.recoverSeq = c.sndNxt
				c.rtxNext = c.sndUna
				c.wMax = c.cwnd
				c.epochStart = time.Time{}
				c.ssthresh = c.cwnd * beta
				if min := float64(2 * mss); c.ssthresh < min {
					c.ssthresh = min
				}
				c.cwnd = c.ssthresh
			}
			c.retransmitSweep(2)
		}
	}
}

func (c *Conn) processData(seq uint32, payload []byte) {
	switch {
	case seq == c.rcvNxt:
		c.deliver(payload)
		// Drain any out-of-order segments that are now contiguous.
		for {
			next, ok := c.ooo[c.rcvNxt]
			if !ok {
				break
			}
			delete(c.ooo, c.rcvNxt)
			c.deliver(next)
		}
	case seq > c.rcvNxt:
		if len(c.ooo) < 4096 {
			c.ooo[seq] = append([]byte(nil), payload...)
		}
	default:
		// Duplicate of already-delivered data: just re-ack.
	}
}

func (c *Conn) deliver(data []byte) {
	c.rcvNxt += uint32(len(data))
	if c.cfg.Deliver != nil {
		c.cfg.Deliver(data)
	}
}
