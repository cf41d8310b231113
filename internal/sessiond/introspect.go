package sessiond

import (
	"sort"
	"time"
)

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

// TransportStats walks the registry and aggregates every session's live
// transport state, read under its lock: the RFC 6298 SRTT estimate, the
// frame-rule interval its sender is honoring (the paper's SRTT/2 clamped
// to [20ms, 250ms]), its unacknowledged sender states and its partially
// reassembled inbound fragments. With thousands of sessions this is an
// operator-path call, not a hot-path one.
func (d *Daemon) TransportStats() TransportStats {
	var (
		out    TransportStats
		srtts  []time.Duration
		frames []time.Duration
	)
	d.reg.each(func(s *Session) {
		s.mu.Lock()
		tr := s.srv.Transport()
		out.Sessions++
		out.OutstandingStates += tr.Sender().SentStateCount()
		out.FragmentsHeld += tr.FragmentsHeld()
		if srtt := tr.Connection().SRTT(0); srtt > 0 {
			srtts = append(srtts, srtt)
		}
		frames = append(frames, tr.Sender().SendInterval())
		s.mu.Unlock()
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
