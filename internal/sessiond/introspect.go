package sessiond

import (
	"sort"
	"time"
)

// SessionStats is a point-in-time transport snapshot of one session, read
// under the session lock: the live RTT estimator, the frame-rule interval
// the sender is currently honoring, and the transport depths that tell an
// operator where a slow session's latency is hiding.
type SessionStats struct {
	ID uint64
	// SRTT and RTTVar are the RFC 6298 estimator state (zero before the
	// first RTT sample); RTTSamples counts how many measurements fed it.
	SRTT       time.Duration
	RTTVar     time.Duration
	RTTSamples int
	// FrameInterval is the sender's current minimum inter-frame interval
	// (the paper's frame rule: SRTT/2 clamped to [20ms, 250ms]).
	FrameInterval time.Duration
	// OutstandingStates counts sender states not yet acknowledged by the
	// peer; FragmentsHeld counts partially reassembled inbound fragments.
	OutstandingStates int
	FragmentsHeld     int
}

// Stats snapshots the session's live transport state.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	tr := s.srv.Transport()
	conn := tr.Connection()
	st := SessionStats{
		ID:                s.ID,
		RTTVar:            conn.RTTVar(),
		RTTSamples:        conn.RTTSamples(),
		FrameInterval:     tr.Sender().SendInterval(),
		OutstandingStates: tr.Sender().SentStateCount(),
		FragmentsHeld:     tr.FragmentsHeld(),
	}
	if conn.HaveRTT() {
		st.SRTT = conn.SRTT(0)
	}
	return st
}

// TransportStats aggregates live transport introspection across every
// session: distribution points (p50/p99/max) for SRTT and frame interval,
// plus totals for outstanding states and held fragments.
// Sessions without an RTT sample yet are excluded from the SRTT quantiles
// but counted in Sessions.
type TransportStats struct {
	Sessions int

	SRTTp50, SRTTp99, SRTTMax                            time.Duration
	FrameIntervalP50, FrameIntervalP99, FrameIntervalMax time.Duration

	OutstandingStates int
	FragmentsHeld     int
}

// TransportStats walks the registry and aggregates per-session transport
// snapshots. It takes each session lock briefly; with thousands of sessions
// this is an operator-path call, not a hot-path one.
func (d *Daemon) TransportStats() TransportStats {
	var (
		out    TransportStats
		srtts  []time.Duration
		frames []time.Duration
	)
	d.reg.each(func(s *Session) {
		st := s.Stats()
		out.Sessions++
		out.OutstandingStates += st.OutstandingStates
		out.FragmentsHeld += st.FragmentsHeld
		if st.SRTT > 0 {
			srtts = append(srtts, st.SRTT)
		}
		frames = append(frames, st.FrameInterval)
	})
	out.SRTTp50, out.SRTTp99, out.SRTTMax = durQuantiles(srtts)
	out.FrameIntervalP50, out.FrameIntervalP99, out.FrameIntervalMax = durQuantiles(frames)
	return out
}

// durQuantiles sorts in place and returns p50, p99, and max (zeros for an
// empty slice). The rank formula matches telemetry.Hist.Quantile.
func durQuantiles(ds []time.Duration) (p50, p99, max time.Duration) {
	if len(ds) == 0 {
		return 0, 0, 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	rank := func(q float64) time.Duration {
		return ds[int(q*float64(len(ds)-1))]
	}
	return rank(0.50), rank(0.99), ds[len(ds)-1]
}
