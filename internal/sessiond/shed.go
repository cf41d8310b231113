package sessiond

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// This file is the daemon's explicit shed policy. Isolated pressure
// drops (one session over its sweep budget, a brief egress burst) are normal
// backpressure — SSP retransmits and nobody else notices. SUSTAINED
// pressure is different: it means offered load exceeds what the daemon
// can move, and continuing to admit full budgets for everyone just
// converts memory into drops at a different layer. The shed policy makes
// that regime a first-class, metered state: when pressure drops exceed a
// threshold within a window, the daemon "sheds" for a hold period —
// halving every session's per-sweep budget (limits.inboxDepth) so the
// heaviest offenders absorb the drops — and counts the event
// (shed_events, shedding gauge) so operators see the regime change
// instead of inferring it from scattered drop counters.

// DefaultShedThreshold is the pressure-drop count within the shed window
// that activates shedding.
const DefaultShedThreshold = 256

// shedState tracks pressure drops over a sliding window and the
// activation deadline. until is the lock-free read path (checked per
// ingest sweep); the window counters live under mu and are touched only
// when drops actually happen.
type shedState struct {
	until atomic.Int64 // unix nanos; shedding active while now < until

	mu          sync.Mutex
	windowStart int64 // unix nanos
	drops       int64
}

// notePressureDrop records n datagrams dropped for pressure (over a sweep
// budget, full egress ring) at the sweep's clock reading, and activates
// shedding when the windowed total trips the threshold. Never blocks; safe
// under session locks.
func (d *Daemon) notePressureDrop(n int64, at time.Time) {
	sh, lim := &d.shed, &d.lim
	now := at.UnixNano()
	sh.mu.Lock()
	if now-sh.windowStart > int64(lim.shedWindow) {
		sh.windowStart, sh.drops = now, 0
	}
	sh.drops += n
	trip := sh.drops >= lim.shedThreshold
	if trip {
		sh.windowStart, sh.drops = now, 0
	}
	sh.mu.Unlock()
	if trip {
		if prev := sh.until.Swap(now + int64(lim.shedHold)); prev < now {
			// Newly activated (not an extension of an active hold). The
			// flight-recorder dump here is the whole point of the recorder:
			// the events leading up to the trip are still in the ring.
			d.metrics.ShedEvents.Add(1)
			d.degrade("shed", telemetry.EvShedTrip, 0, uint64(lim.shedThreshold), at)
		}
		d.metrics.Shedding.Set(1)
	}
}

// shedding reports whether the shed policy is active at now, clearing the
// gauge lazily when the hold expires.
func (d *Daemon) shedding(now time.Time) bool {
	sh := &d.shed
	until := sh.until.Load()
	if until == 0 {
		return false
	}
	if now.UnixNano() >= until {
		if sh.until.CompareAndSwap(until, 0) {
			d.metrics.Shedding.Set(0)
		}
		return false
	}
	return true
}
