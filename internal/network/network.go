// Package network implements SSP's datagram layer (paper §2.2). It accepts
// opaque transport payloads, prepends an incrementing sequence number,
// encrypts each packet with AES-OCB, and tracks the connection's timing and
// the client's current address.
//
// Responsibilities, per the paper:
//
//   - confidentiality and authenticity under a single pre-shared key;
//   - idempotent datagrams — reordered or replayed packets are simply
//     discarded by sequence number, with no replay cache;
//   - client roaming — whenever the server receives an authentic datagram
//     with the highest sequence number so far, that packet's source address
//     becomes the new reply target;
//   - RTT and RTT-variation estimation from per-packet millisecond
//     timestamps and hold-time-adjusted timestamp replies, using TCP's
//     algorithm (RFC 6298) with a 50 ms (not 1 s) lower bound on the RTO.
//
// A multiplexing daemon prefixes each datagram with a cleartext session-ID
// envelope, the ID's minimal unsigned varint (1 byte for IDs up to 127);
// without an Envelope the datagram is the single-session SSP packet alone.
//
// The layer is IO-free: AppendPacket returns wire bytes for the caller to
// transmit (over internal/netem in simulation, or a real UDP socket in
// cmd/mosh-client and cmd/mosh-server), and Receive consumes wire bytes.
package network

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"time"

	"repro/internal/netem"
	"repro/internal/simclock"
	"repro/internal/sspcrypto"
	"repro/internal/telemetry"
)

// Timing constants from the paper and the reference implementation.
const (
	// DefaultMinRTO is SSP's floor on the retransmission timeout: 50 ms
	// rather than TCP's one second (§2.2 change 3).
	DefaultMinRTO = 50 * time.Millisecond
	// DefaultMaxRTO caps the retransmission timeout.
	DefaultMaxRTO = 1000 * time.Millisecond
	// maxRTTSampleMs bounds the RTT samples the estimator believes: the
	// reference implementation ignores samples of 5 s or more. Such a
	// sample measures a stopped peer (Ctrl-Z, a suspended laptop) that
	// answered a long-queued datagram on resuming, not the path; folded
	// in, one of them holds SRTT inflated for some 30 round trips.
	maxRTTSampleMs = 5000
)

// tsNone is the wire encoding of "no timestamp reply".
const tsNone = 0xFFFF

// Errors surfaced by Receive. ErrOldPacket and ErrOwnDirection are normal
// network noise and safe to ignore; authentication failures mean the packet
// was forged or corrupted.
var (
	ErrOldPacket    = errors.New("network: stale or replayed sequence number")
	ErrOwnDirection = errors.New("network: packet from our own direction")
	ErrEnvelope     = errors.New("network: missing or mismatched session envelope")
	// ErrSeqExhausted reports that the outgoing sequence number has reached
	// the durable reservation ceiling (see SetSeqCeiling). The packet is not
	// sent; SSP treats the suppression as ordinary loss and the embedder is
	// expected to extend the reservation (flush its journal) promptly.
	ErrSeqExhausted = errors.New("network: sequence reservation exhausted")
)

// Session-ID envelope. A multiplexing daemon (internal/sessiond) runs many
// independent SSP sessions behind one socket by prepending a cleartext
// session ID to every datagram, as the ID's minimal unsigned varint
// (encoding/binary's uvarint: seven bits a byte, low bits first): 1 byte for
// IDs 1–127, 2 bytes up to 16 383. The ID is routing metadata only:
// authenticity still comes from each session's AES-OCB key, so a spoofed or
// corrupted ID merely selects a session whose key fails to open the packet.
// Without an Envelope the wire format is byte-identical to single-session
// SSP.

// EnvelopeLen is the longest session-ID envelope, binary.MaxVarintLen64
// bytes (an ID of 2^63 or more). A session's own envelope is usually far
// shorter: see AppendEnvelope.
const EnvelopeLen = binary.MaxVarintLen64

// Envelope configures the session-ID header on a Connection.
type Envelope struct {
	// ID is this session's 64-bit identifier on the shared socket.
	ID uint64
}

// envelopeLen is the length of id's minimal uvarint.
func envelopeLen(id uint64) int { return (bits.Len64(id|1) + 6) / 7 }

// AppendEnvelope appends the envelope for session id to dst: id's minimal
// uvarint.
func AppendEnvelope(dst []byte, id uint64) []byte {
	return binary.AppendUvarint(dst, id)
}

// ParseEnvelope splits an enveloped datagram into its session ID and the
// inner SSP packet. The daemon uses it to demultiplex before any
// cryptography runs. An envelope that is missing, longer than EnvelopeLen,
// or not the minimal encoding of its ID is ErrEnvelope, so each session
// has exactly one envelope.
func ParseEnvelope(wire []byte) (id uint64, inner []byte, err error) {
	id, n := binary.Uvarint(wire)
	if n <= 0 || n != envelopeLen(id) {
		return 0, nil, ErrEnvelope
	}
	return id, wire[n:], nil
}

// Config parameterizes a Connection.
type Config struct {
	// Direction identifies which end this is (client seals ToServer).
	Direction sspcrypto.Direction
	// Key is the pre-shared session key.
	Key sspcrypto.Key
	// Clock supplies time; required.
	Clock simclock.Clock
	// MinRTO/MaxRTO bound the retransmission timeout. Zero values take
	// the defaults. transport.New sets them from transport.Timing.
	MinRTO, MaxRTO time.Duration
	// Envelope, when non-nil, prepends the cleartext session-ID header to
	// outgoing packets and requires (and strips) a matching one on
	// incoming packets — the sessiond multiplexer's wire format. Nil keeps
	// the single-session format byte-identical.
	Envelope *Envelope
	// Resume, when non-nil, restores the connection's durable counters
	// from a persisted snapshot instead of starting at zero (a sessiond
	// restart). See Resume for the crash-safety contract.
	Resume *Resume
	// Probe, when non-nil, receives AEAD timing: a StageSeal span per
	// sealed datagram and a StageVerify span per opened one, measured on
	// cfg.Clock (0-duration under virtual time, still counted).
	Probe *telemetry.Pipeline
}

// Resume restores a Connection across a process restart. NextSeq must be a
// previously journaled reservation ceiling (every nonce the dead process
// could have sealed is strictly below it — see SetSeqCeiling), so the
// (key, direction, sequence) nonce is never reused. ExpectedSeq restores
// the replay floor for the incoming direction as of the journal flush:
// packets accepted before that flush stay rejected. Packets the dead
// process accepted AFTER its last flush can each be replayed once against
// the restored endpoint — the live floor cannot be reconstructed, and
// over-bumping it would deafen the connection to its genuine peer forever.
// The layers above keep that window harmless for state (instructions are
// idempotent by state number and user-input diffs by event index); its
// real residue is that a replayed packet can transiently re-aim the
// roaming reply target until the genuine peer's next datagram (higher
// sequence number) re-learns the address.
type Resume struct {
	// NextSeq seeds the outgoing sequence counter.
	NextSeq uint64
	// ExpectedSeq seeds the lowest acceptable incoming sequence number.
	ExpectedSeq uint64
	// RemoteAddr, when non-nil, seeds the reply target so the restored
	// server can resume sending (heartbeats, the resume repaint) before
	// the client speaks. Roaming re-learns it from authentic traffic.
	RemoteAddr *netem.Addr
	// Heard marks that the dead process had heard authentic traffic; the
	// restored connection treats the restart instant as the last-heard
	// time so retransmission stays active.
	Heard bool
}

// Connection is one end of an SSP datagram-layer association. It is a pure
// state machine: not safe for concurrent use.
type Connection struct {
	cfg     Config
	session *sspcrypto.Session
	envLen  int // bytes of cfg.Envelope on the wire; 0 without one

	nextSeq     uint64 // sequence number of the next outgoing packet
	expectedSeq uint64 // lowest acceptable incoming sequence number

	// seqCeiling bounds nextSeq for crash safety: packets with seq >=
	// seqCeiling are refused (ErrSeqExhausted) until the embedder journals
	// a higher reservation and raises the ceiling. 0 means unlimited (no
	// persistence configured).
	seqCeiling uint64

	// Timestamp bookkeeping for RTT measurement. savedTimestamp is the
	// most recently received remote timestamp, echoed back (adjusted for
	// hold time) on our next outgoing packet.
	savedTimestamp   int32 // -1 when none pending
	savedTimestampAt time.Time

	srtt    float64 // smoothed RTT, milliseconds
	rttvar  float64
	haveRTT bool

	lastHeard time.Time
	heardOnce bool

	// remoteAddr is where to send. The server learns and re-learns it from
	// incoming packets (roaming), or is given it (SetRemoteAddr, Resume).
	remoteAddr    netem.Addr
	haveRemote    bool
	remoteChanges int // times the peer's address changed (roaming events)

	// ptBuf is scratch for assembling the timestamped plaintext; it is
	// consumed by sealing before AppendPacket returns, so reuse is safe.
	ptBuf []byte
}

// NewConnection builds a datagram-layer endpoint.
func NewConnection(cfg Config) (*Connection, error) {
	if cfg.Clock == nil {
		return nil, errors.New("network: Config.Clock is required")
	}
	if cfg.MinRTO == 0 {
		cfg.MinRTO = DefaultMinRTO
	}
	if cfg.MaxRTO == 0 {
		cfg.MaxRTO = DefaultMaxRTO
	}
	sess, err := sspcrypto.NewSession(cfg.Key)
	if err != nil {
		return nil, err
	}
	c := &Connection{
		cfg:            cfg,
		session:        sess,
		savedTimestamp: -1,
	}
	if cfg.Envelope != nil {
		c.envLen = envelopeLen(cfg.Envelope.ID)
	}
	if rs := cfg.Resume; rs != nil {
		c.nextSeq = rs.NextSeq
		c.expectedSeq = rs.ExpectedSeq
		if rs.RemoteAddr != nil {
			c.remoteAddr = *rs.RemoteAddr
			c.haveRemote = true
		}
		if rs.Heard {
			c.heardOnce = true
			c.lastHeard = cfg.Clock.Now()
		}
	}
	return c, nil
}

// SetRemoteAddr fixes the peer address, as an authentic datagram from it
// would.
func (c *Connection) SetRemoteAddr(a netem.Addr) {
	c.remoteAddr = a
	c.haveRemote = true
}

// RemoteAddr returns the current reply target and whether one is known.
func (c *Connection) RemoteAddr() (netem.Addr, bool) { return c.remoteAddr, c.haveRemote }

// HasPeer reports whether this endpoint has anybody to talk to. A client is
// built knowing its server, whether or not the embedder told the datagram
// layer the address (SetRemoteAddr); a server has a peer once it has a reply
// target: from the first authentic datagram, from SetRemoteAddr, or from a
// journal's Resume.RemoteAddr. It never reverts — a peer that has gone quiet
// is still a peer. The layers above send nothing, build nothing and ask for
// no wake-up until it is true (the reference's get_has_remote_addr).
func (c *Connection) HasPeer() bool {
	return c.cfg.Direction == sspcrypto.ToServer || c.haveRemote
}

// RemoteAddrChanges counts roaming events observed (server side).
func (c *Connection) RemoteAddrChanges() int { return c.remoteChanges }

// NextSeq reports the sequence number the next outgoing packet will carry.
func (c *Connection) NextSeq() uint64 { return c.nextSeq }

// ExpectedSeq reports the lowest incoming sequence number Receive will
// accept (the replay floor a persistence layer must journal).
func (c *Connection) ExpectedSeq() uint64 { return c.expectedSeq }

// SetSeqCeiling installs the durable nonce-reservation ceiling: AppendPacket
// refuses to seal a packet whose sequence number is not strictly below it.
//
// Crash-safety protocol (two-phase): the journal writer records the
// proposed ceiling (NextSeq + reserve) in its snapshot FIRST, and only
// after the snapshot is durably renamed does it raise the live ceiling
// here. A crash at any point therefore restores a NextSeq that is >= every
// ceiling the dead process ever sent under, so no (key, direction,
// sequence) nonce is ever sealed twice.
func (c *Connection) SetSeqCeiling(ceiling uint64) { c.seqCeiling = ceiling }

// SeqRemaining reports how many packets may still be sealed under the
// current reservation; the embedder flushes its journal before this runs
// out. Unlimited when no ceiling is set.
func (c *Connection) SeqRemaining() uint64 {
	if c.seqCeiling == 0 {
		return sspcrypto.MaxSeq - c.nextSeq
	}
	if c.nextSeq >= c.seqCeiling {
		return 0
	}
	return c.seqCeiling - c.nextSeq
}

func timestamp16(t time.Time) uint16 { return uint16(t.UnixMilli()) }

// AppendPacket seals payload into a wire datagram appended to dst,
// embedding the current 16-bit millisecond timestamp and, if one is
// pending, a timestamp reply adjusted by how long we held it (so delayed
// acks do not inflate the peer's RTT estimate — §2.2 change 2). When an
// Envelope is configured, the datagram is prefixed with the cleartext
// session ID. The transport sender passes recycled buffers through it so
// steady-state sending does not allocate per datagram.
func (c *Connection) AppendPacket(dst, payload []byte) ([]byte, error) {
	if c.seqCeiling != 0 && c.nextSeq >= c.seqCeiling {
		return nil, ErrSeqExhausted
	}
	now := c.cfg.Clock.Now()
	reply := uint16(tsNone)
	if c.savedTimestamp >= 0 {
		hold := now.Sub(c.savedTimestampAt).Milliseconds()
		reply = uint16(uint32(c.savedTimestamp) + uint32(hold))
		c.savedTimestamp = -1
	}
	pt := append(c.ptBuf[:0], 0, 0, 0, 0)
	binary.BigEndian.PutUint16(pt[0:], timestamp16(now))
	binary.BigEndian.PutUint16(pt[2:], reply)
	pt = append(pt, payload...)
	c.ptBuf = pt[:0]
	seq := c.nextSeq
	c.nextSeq++
	if c.cfg.Envelope != nil {
		dst = AppendEnvelope(dst, c.cfg.Envelope.ID)
	}
	wire, err := c.session.SealAppend(dst, c.cfg.Direction, seq, pt)
	if pr := c.cfg.Probe; pr != nil {
		pr.Observe(telemetry.StageSeal, c.cfg.Clock.Now().Sub(now))
	}
	if err != nil {
		return nil, fmt.Errorf("network: sealing packet: %w", err)
	}
	return wire, nil
}

// Receive authenticates and opens a wire datagram received from src,
// returning the transport payload. Stale and replayed packets return
// ErrOldPacket; packets sealed by our own direction return ErrOwnDirection.
// On the server, an authentic packet with the newest sequence number makes
// src the new reply target, implementing roaming.
func (c *Connection) Receive(wire []byte, src netem.Addr) ([]byte, error) {
	if c.cfg.Envelope != nil {
		id, inner, err := ParseEnvelope(wire)
		if err != nil {
			return nil, err
		}
		if id != c.cfg.Envelope.ID {
			return nil, ErrEnvelope
		}
		wire = inner
	}
	pr := c.cfg.Probe
	var verifyStart time.Time
	if pr != nil {
		verifyStart = c.cfg.Clock.Now()
	}
	dir, seq, pt, err := c.session.Decrypt(wire)
	if pr != nil {
		// Failed opens are measured too: verification cost is paid either
		// way, and a flood of failures should be visible in this stage.
		pr.Observe(telemetry.StageVerify, c.cfg.Clock.Now().Sub(verifyStart))
	}
	if err != nil {
		return nil, err
	}
	if dir == c.cfg.Direction {
		return nil, ErrOwnDirection
	}
	if len(pt) < 4 {
		return nil, sspcrypto.ErrTooShort
	}
	if seq < c.expectedSeq {
		return nil, ErrOldPacket
	}
	c.expectedSeq = seq + 1
	now := c.cfg.Clock.Now()
	c.lastHeard = now
	c.heardOnce = true

	ts := binary.BigEndian.Uint16(pt[0:])
	c.savedTimestamp = int32(ts)
	c.savedTimestampAt = now

	if reply := binary.BigEndian.Uint16(pt[2:]); reply != tsNone {
		sample := float64(timestamp16(now) - reply) // mod-2^16 arithmetic
		c.observeRTT(sample)
	}

	// Roaming: the server re-targets replies at the newest source address.
	if c.cfg.Direction == sspcrypto.ToClient {
		if !c.haveRemote || c.remoteAddr != src {
			if c.haveRemote {
				c.remoteChanges++
			}
			c.remoteAddr = src
			c.haveRemote = true
		}
	}
	return pt[4:], nil
}

// observeRTT folds one RTT sample (milliseconds) into SRTT/RTTVAR per
// RFC 6298. Every SSP packet has a unique sequence number, so there is no
// retransmission ambiguity (§2.2 change 1); only a sample of
// maxRTTSampleMs or more is ignored.
func (c *Connection) observeRTT(ms float64) {
	if ms < 0 || ms >= maxRTTSampleMs {
		return
	}
	if !c.haveRTT {
		c.srtt = ms
		c.rttvar = ms / 2
		c.haveRTT = true
		return
	}
	const alpha, beta = 1.0 / 8.0, 1.0 / 4.0
	diff := c.srtt - ms
	if diff < 0 {
		diff = -diff
	}
	c.rttvar = (1-beta)*c.rttvar + beta*diff
	c.srtt = (1-alpha)*c.srtt + alpha*ms
}

// SRTT returns the smoothed round-trip estimate, or def if no sample yet.
func (c *Connection) SRTT(def time.Duration) time.Duration {
	if !c.haveRTT {
		return def
	}
	return time.Duration(c.srtt * float64(time.Millisecond))
}

// HaveRTT reports whether at least one RTT sample has been folded in.
func (c *Connection) HaveRTT() bool { return c.haveRTT }

// RTO returns the retransmission timeout: SRTT + 4·RTTVAR clamped to
// [MinRTO, MaxRTO]. Before any sample it returns MaxRTO.
func (c *Connection) RTO() time.Duration {
	if !c.haveRTT {
		return c.cfg.MaxRTO
	}
	rto := time.Duration((c.srtt + 4*c.rttvar) * float64(time.Millisecond))
	if rto < c.cfg.MinRTO {
		rto = c.cfg.MinRTO
	}
	if rto > c.cfg.MaxRTO {
		rto = c.cfg.MaxRTO
	}
	return rto
}

// LastHeard returns when the last authentic packet arrived, and whether any
// has. The client uses this to warn the user about lost connectivity.
func (c *Connection) LastHeard() (time.Time, bool) { return c.lastHeard, c.heardOnce }

// Overhead is the byte overhead this layer adds to the packet it seals
// next: its sequence header, the AEAD tag, the timestamps, and the session
// envelope when one is configured. The header grows with the sequence
// number (sspcrypto.SeqHeaderLen), so a later packet may cost more.
func (c *Connection) Overhead() int {
	// Session.Overhead counts the longest header; the next one is shorter
	// by this much.
	short := sspcrypto.MaxSeqHeaderLen - sspcrypto.SeqHeaderLen(c.nextSeq)
	return c.session.Overhead() - short + 4 + c.envLen
}
