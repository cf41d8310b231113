package sessiond

import "time"

// The daemon's fixed bounds (limits) have no Config field; the tests of the
// bounds themselves — per-sweep admission, ring overflow, the shed trip,
// compaction — build a daemon with small ones here.

// Limit overrides one of the daemon's fixed bounds.
type Limit func(*limits)

func InboxDepth(n int) Limit               { return func(l *limits) { l.inboxDepth = n } }
func EgressDepth(n int) Limit              { return func(l *limits) { l.egressDepth = n } }
func JournalCompactMinBytes(n int64) Limit { return func(l *limits) { l.journalCompactMinBytes = n } }

func Shed(threshold int64, window, hold time.Duration) Limit {
	return func(l *limits) { l.shedThreshold, l.shedWindow, l.shedHold = threshold, window, hold }
}

// NewWithLimits is New with some of the fixed bounds replaced.
func NewWithLimits(cfg Config, over ...Limit) (*Daemon, error) {
	lim := defaultLimits
	for _, o := range over {
		o(&lim)
	}
	return newDaemon(cfg, lim)
}

// UnauthSources reports how many sources the unauthenticated-datagram
// quota is tracking.
func UnauthSources(d *Daemon) int64 { return d.quota.active.Load() }

// CloseSession removes a session explicitly, as an idle eviction does
// but credited to SessionsClosed.
func (d *Daemon) CloseSession(id uint64) {
	s := d.reg.lookup(id)
	if s == nil {
		return
	}
	s.mu.Lock()
	s.removeLocked(&d.metrics.SessionsClosed)
	s.mu.Unlock()
}
