// Package faultinject is the seeded, deterministic fault-injection layer
// behind the chaos tests: it makes the failure surfaces that loss/roam/
// restart experiments never touch — syscall errnos on the hot socket
// path, EIO/ENOSPC/torn writes in the journal — reproducible inputs
// instead of production surprises.
//
// It has one provider: FS is the filesystem seam internal/journal writes
// through; OSFS is the real thing and FaultFS injects EIO, ENOSPC, short
// writes, failed fsyncs and torn renames at every operation, with an
// OpHook for scripting exact failures and recording attempt times.
//
// A simulated datagram is damaged only by the emulated link it crosses:
// netem.LinkParams carries loss, duplication, corruption and truncation,
// each drawn from that link's own rng. A socket errno is a test's script:
// the test's own udpbatch.Conn returns it, spelled with this package's
// Err* values.
//
// Everything is driven by Rand, a splitmix64 PRNG: same seed, same fault
// schedule, every run. FaultFS is safe for concurrent use.
package faultinject

import "sync"

// Rand is a small deterministic PRNG (splitmix64). It is seeded
// explicitly — never from the clock — so a fault schedule is a pure
// function of its seed. Safe for concurrent use.
type Rand struct {
	mu    sync.Mutex
	state uint64
}

// NewRand returns a Rand seeded with seed.
func NewRand(seed int64) *Rand {
	return &Rand{state: uint64(seed)}
}

// Uint64 returns the next 64-bit value of the sequence.
func (r *Rand) Uint64() uint64 {
	r.mu.Lock()
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	r.mu.Unlock()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a value in [0, n). n must be > 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("faultinject: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Chance reports true with probability p (deterministically, from the
// seeded sequence). p <= 0 never fires; p >= 1 always fires.
func (r *Rand) Chance(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}
