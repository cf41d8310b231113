// Package faultconn is the socket half of the fault-injection harness: a
// udpbatch.Conn wrapper driven by the same seeded PRNG discipline as
// internal/faultinject. It lives apart from that package so that what only
// needs the filesystem seam (internal/journal) does not link the socket
// layer.
package faultconn

import (
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/udpbatch"
)

// ConnFaults parameterizes the probabilistic fault schedule of a Conn.
// All probabilities are per opportunity (per read call, per datagram, per
// write batch); zero values inject nothing.
type ConnFaults struct {
	// ReadErrProb returns an errno from ReadErrnos instead of reading.
	ReadErrProb float64
	// ReadErrnos cycles the injected read errnos (defaults to the
	// transient trio EINTR, ENOBUFS, ENOMEM when empty).
	ReadErrnos []error
	// TruncProb truncates one received datagram to a strict prefix,
	// modeling an undersized receive buffer; the AEAD must reject it.
	TruncProb float64
	// CorruptProb flips one byte of a received datagram in place.
	CorruptProb float64
	// DupProb duplicates a received datagram into the next free batch
	// slot, modeling kernel/network duplication behind one poll wakeup.
	DupProb float64
	// WriteErrProb fails one datagram of a write batch with an errno from
	// WriteErrnos (per the Conn contract: msgs[n] failed, caller drops it
	// and continues).
	WriteErrProb float64
	// WriteErrnos cycles the injected write errnos (defaults to ENOBUFS).
	WriteErrnos []error
	// PartialWriteProb makes WriteBatch consume only a strict prefix of a
	// multi-datagram batch (short count, nil error — caller retries).
	PartialWriteProb float64
}

// ConnStats counts injected faults; read it after a run to prove the
// schedule actually fired.
type ConnStats struct {
	ReadErrs      atomic.Int64
	WriteErrs     atomic.Int64
	Truncated     atomic.Int64
	Corrupted     atomic.Int64
	Duplicated    atomic.Int64
	PartialWrites atomic.Int64
}

// Conn wraps a udpbatch.Conn and injects faults on the way through. The
// wrapped connection sees only what the schedule lets through; the
// wrapping daemon sees every hazard the batch contract documents.
//
// Scripted errors (ScriptReadError / ScriptWriteError) fire first, in
// FIFO order, before any probabilistic fault — they are how tests pin
// exact errno sequences (EINTR then ENOBUFS then a real read, a
// persistent EACCES, …).
type Conn struct {
	inner udpbatch.Conn
	rng   *faultinject.Rand

	mu          sync.Mutex
	faults      ConnFaults
	scriptRead  []error
	scriptWrite []error
	readErrIdx  int
	writeErrIdx int

	stats ConnStats
}

var defaultReadErrnos = []error{faultinject.ErrEINTR, faultinject.ErrENOBUFS, faultinject.ErrENOMEM}
var defaultWriteErrnos = []error{faultinject.ErrENOBUFS}

// NewConn wraps inner with a fault injector driven by the given seed.
func NewConn(inner udpbatch.Conn, seed int64) *Conn {
	return &Conn{inner: inner, rng: faultinject.NewRand(seed)}
}

// SetFaults replaces the probabilistic fault schedule (zero value
// disables it). Scripted errors are unaffected.
func (c *Conn) SetFaults(f ConnFaults) {
	c.mu.Lock()
	c.faults = f
	c.mu.Unlock()
}

// ScriptReadError queues errs to be returned by the next ReadBatch calls,
// in order, before anything is read.
func (c *Conn) ScriptReadError(errs ...error) {
	c.mu.Lock()
	c.scriptRead = append(c.scriptRead, errs...)
	c.mu.Unlock()
}

// ScriptWriteError queues errs to be returned by the next WriteBatch
// calls, in order, before anything is written.
func (c *Conn) ScriptWriteError(errs ...error) {
	c.mu.Lock()
	c.scriptWrite = append(c.scriptWrite, errs...)
	c.mu.Unlock()
}

// Stats exposes the injected-fault counters.
func (c *Conn) Stats() *ConnStats { return &c.stats }

// BatchCap forwards to the wrapped connection.
func (c *Conn) BatchCap() int { return c.inner.BatchCap() }

// Close forwards to the wrapped connection when it supports closing.
func (c *Conn) Close() error {
	if cl, ok := c.inner.(interface{ Close() error }); ok {
		return cl.Close()
	}
	return nil
}

func (c *Conn) nextReadErr() error {
	f := &c.faults
	errs := f.ReadErrnos
	if len(errs) == 0 {
		errs = defaultReadErrnos
	}
	e := errs[c.readErrIdx%len(errs)]
	c.readErrIdx++
	return e
}

func (c *Conn) nextWriteErr() error {
	f := &c.faults
	errs := f.WriteErrnos
	if len(errs) == 0 {
		errs = defaultWriteErrnos
	}
	e := errs[c.writeErrIdx%len(errs)]
	c.writeErrIdx++
	return e
}

// ReadBatch injects scripted/probabilistic read errors, then reads from
// the wrapped connection and mangles the received datagrams per the
// schedule (corrupt, truncate, duplicate).
func (c *Conn) ReadBatch(msgs []udpbatch.Message) (int, error) {
	c.mu.Lock()
	if len(c.scriptRead) > 0 {
		err := c.scriptRead[0]
		c.scriptRead = c.scriptRead[1:]
		c.mu.Unlock()
		c.stats.ReadErrs.Add(1)
		return 0, err
	}
	if c.rng.Chance(c.faults.ReadErrProb) {
		err := c.nextReadErr()
		c.mu.Unlock()
		c.stats.ReadErrs.Add(1)
		return 0, err
	}
	f := c.faults
	c.mu.Unlock()

	n, err := c.inner.ReadBatch(msgs)
	if err != nil || n == 0 {
		return n, err
	}
	for i := 0; i < n; i++ {
		buf := msgs[i].Buf
		if len(buf) > 1 && c.rng.Chance(f.CorruptProb) {
			buf[c.rng.Intn(len(buf))] ^= 1 << uint(c.rng.Intn(8))
			c.stats.Corrupted.Add(1)
		}
		if len(buf) > 1 && c.rng.Chance(f.TruncProb) {
			msgs[i].Buf = buf[:1+c.rng.Intn(len(buf)-1)]
			c.stats.Truncated.Add(1)
		}
	}
	// Duplicate at most one datagram per batch into the next free slot,
	// so the injected load stays bounded by the caller's batch size.
	if n < len(msgs) && c.rng.Chance(f.DupProb) {
		srcIdx := c.rng.Intn(n)
		src := msgs[srcIdx].Buf
		dst := msgs[n].Buf
		if cap(dst) < len(src) {
			dst = make([]byte, len(src))
		}
		dst = dst[:len(src)]
		copy(dst, src)
		msgs[n].Buf = dst
		msgs[n].Addr = msgs[srcIdx].Addr
		n++
		c.stats.Duplicated.Add(1)
	}
	return n, nil
}

// WriteBatch injects scripted/probabilistic write failures per the Conn
// contract, forwarding what the schedule admits.
func (c *Conn) WriteBatch(msgs []udpbatch.Message) (int, error) {
	c.mu.Lock()
	if len(c.scriptWrite) > 0 {
		err := c.scriptWrite[0]
		c.scriptWrite = c.scriptWrite[1:]
		c.mu.Unlock()
		c.stats.WriteErrs.Add(1)
		return 0, err
	}
	f := c.faults
	var injectErr error
	if c.rng.Chance(f.WriteErrProb) {
		injectErr = c.nextWriteErr()
	}
	c.mu.Unlock()

	if injectErr != nil {
		// msgs[fail] fails; the prefix before it is really transmitted.
		fail := c.rng.Intn(len(msgs) + 1)
		if fail == len(msgs) {
			fail = 0
		}
		n, err := c.inner.WriteBatch(msgs[:fail])
		if err != nil || n < fail {
			return n, err
		}
		c.stats.WriteErrs.Add(1)
		return fail, injectErr
	}
	if len(msgs) > 1 && c.rng.Chance(f.PartialWriteProb) {
		k := 1 + c.rng.Intn(len(msgs)-1)
		n, err := c.inner.WriteBatch(msgs[:k])
		if err == nil && n == k {
			c.stats.PartialWrites.Add(1)
		}
		return n, err
	}
	return c.inner.WriteBatch(msgs)
}
