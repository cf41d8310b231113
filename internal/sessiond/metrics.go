package sessiond

import (
	"expvar"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/journal"
	"repro/internal/statesync"
	"repro/internal/telemetry"
	"repro/internal/terminal"
)

// batchHistBuckets caps the histogram's resolution; batches larger than
// the last bucket (far beyond any sendmmsg vector this stack issues)
// accumulate there.
const batchHistBuckets = 128

// BatchHist is a concurrency-safe histogram of batch sizes
// (1..batchHistBuckets datagrams per syscall). It answers the operational
// question the batched pipeline raises: how many datagrams is one syscall
// actually moving? It is a thin clamp over telemetry.Hist: with subBits=8
// every value up to 256 gets an exact bucket, so clamping to 128 keeps the
// pre-telemetry quantiles bit-for-bit.
type BatchHist struct {
	once sync.Once
	h    *telemetry.Hist
}

func (h *BatchHist) hist() *telemetry.Hist {
	h.once.Do(func() { h.h = telemetry.NewHist(8) })
	return h.h
}

// Observe records one batch of n datagrams.
func (h *BatchHist) Observe(n int) {
	if n < 1 {
		return
	}
	if n > batchHistBuckets {
		n = batchHistBuckets
	}
	h.hist().Observe(int64(n))
}

// Samples reports how many batches have been observed.
func (h *BatchHist) Samples() int64 { return h.hist().Count() }

// Quantile returns the batch size at quantile q in [0,1] (0 when no
// samples have been observed).
func (h *BatchHist) Quantile(q float64) int { return int(h.hist().Quantile(q)) }

// expvarValue renders the histogram's summary for /debug/vars.
func (h *BatchHist) expvarValue() any {
	return map[string]int64{
		"samples": h.Samples(),
		"p50":     int64(h.Quantile(0.50)),
		"p99":     int64(h.Quantile(0.99)),
	}
}

// Metrics counts the daemon's activity. All fields are safe for concurrent
// update; tests read them directly and production publishes them through
// the expvar registry (and so over any net/http debug listener).
type Metrics struct {
	SessionsLive    expvar.Int // currently registered sessions
	SessionsOpened  expvar.Int // cumulative OpenSession successes
	SessionsEvicted expvar.Int // sessions removed by idle eviction
	SessionsClosed  expvar.Int // sessions removed by explicit close

	PacketsIn  expvar.Int // datagrams offered to the daemon
	BytesIn    expvar.Int
	PacketsOut expvar.Int // datagrams emitted by all sessions
	BytesOut   expvar.Int

	DropsBadEnvelope    expvar.Int // datagrams without a parseable envelope
	DropsUnknownSession expvar.Int // envelope named no live session
	DropsAuth           expvar.Int // per-session receive failures (forged, stale, replayed)
	DropsQueueFull      expvar.Int // datagrams beyond a session's per-sweep budget (limits.inboxDepth)

	RoamingEvents expvar.Int // authentic source-address changes observed

	// Batched-pipeline counters. ReadBatchCalls/WriteBatchCalls count
	// syscalls: the served connection's calls, or in simulation the calls
	// Config.IOModel's provider would have made, charged at the daemon's
	// edge (iomodel.go). With PacketsIn/PacketsOut they yield syscalls-
	// per-packet, the number the vectorized pipeline exists to shrink.
	ReadBatchCalls    expvar.Int
	WriteBatchCalls   expvar.Int
	ReadBatchSizes    BatchHist  // datagrams moved per read syscall
	WriteBatchSizes   BatchHist  // datagrams moved per write syscall
	EgressQueueDepth  expvar.Int // datagrams waiting on the egress ring
	DropsEgressFull   expvar.Int // datagrams dropped at a full egress ring (backpressure)
	EgressWriteErrors expvar.Int // datagrams dropped by a failing socket write

	// Stack traversals count how many times the kernel's UDP stack ran
	// per direction: one per wire datagram on mmsg/loop paths, one per
	// coalesced super-datagram on GSO/GRO paths. With PacketsIn/
	// PacketsOut they yield stack-traversals-per-packet — the below-
	// syscall cost GSO exists to shrink (a syscall moving 64 datagrams
	// still pays 64 stack traversals without segmentation offload). Real
	// served sockets meter through udpbatch.TraversalCounter; simulation
	// models the same run arithmetic via udpbatch.SegmentRun.
	StackTraversalsIn  expvar.Int
	StackTraversalsOut expvar.Int

	SessionsRestored expvar.Int // sessions revived from the journal at boot
	SnapshotsStale   expvar.Int // journal records evicted at boot (idle past the horizon)

	// The journal's own counters and gauges (flushes, bytes, errors, bad
	// records, changed bytes, segments, compactions, and the failure
	// posture), published under the names they have always had.
	journal.Counters

	// Degradation observability (the fault-injection hardening).
	DropsUnauthQuota    expvar.Int // datagrams refused by the per-source unauth token bucket
	ShedEvents          expvar.Int // times sustained pressure activated the shed policy
	Shedding            expvar.Int // gauge: 1 while the shed policy is active
	ReadErrorsTransient expvar.Int // transient socket read errors absorbed by ServeBatch

	// Frames built during their collection interval, after the sweep that
	// made them pending had flushed (transport.Transport.Prepare), and how
	// many of those left as built. Sent ÷ prepared is the speculation's
	// useful share; the rest were overtaken by a write, an ack or a resize
	// and minted at the deadline as before.
	FramesPrepared     expvar.Int
	FramesPreparedSent expvar.Int
}

// metricFields maps every published counter name to its accessor, so the
// expvar registrations can read through an atomic slot (see Publish).
// gauge marks a point-in-time value rather than a monotonic counter, which
// is all the Prometheus exposition needs to know beyond the name.
var metricFields = []struct {
	name  string
	get   func(m *Metrics) int64
	gauge bool
}{
	{"sessions_live", func(m *Metrics) int64 { return m.SessionsLive.Value() }, true},
	{"sessions_opened", func(m *Metrics) int64 { return m.SessionsOpened.Value() }, false},
	{"sessions_evicted", func(m *Metrics) int64 { return m.SessionsEvicted.Value() }, false},
	{"sessions_closed", func(m *Metrics) int64 { return m.SessionsClosed.Value() }, false},
	{"packets_in", func(m *Metrics) int64 { return m.PacketsIn.Value() }, false},
	{"bytes_in", func(m *Metrics) int64 { return m.BytesIn.Value() }, false},
	{"packets_out", func(m *Metrics) int64 { return m.PacketsOut.Value() }, false},
	{"bytes_out", func(m *Metrics) int64 { return m.BytesOut.Value() }, false},
	{"drops_bad_envelope", func(m *Metrics) int64 { return m.DropsBadEnvelope.Value() }, false},
	{"drops_unknown_session", func(m *Metrics) int64 { return m.DropsUnknownSession.Value() }, false},
	{"drops_auth", func(m *Metrics) int64 { return m.DropsAuth.Value() }, false},
	{"drops_queue_full", func(m *Metrics) int64 { return m.DropsQueueFull.Value() }, false},
	{"roaming_events", func(m *Metrics) int64 { return m.RoamingEvents.Value() }, false},
	{"read_batch_calls", func(m *Metrics) int64 { return m.ReadBatchCalls.Value() }, false},
	{"write_batch_calls", func(m *Metrics) int64 { return m.WriteBatchCalls.Value() }, false},
	{"egress_queue_depth", func(m *Metrics) int64 { return m.EgressQueueDepth.Value() }, true},
	{"drops_egress_full", func(m *Metrics) int64 { return m.DropsEgressFull.Value() }, false},
	{"egress_write_errors", func(m *Metrics) int64 { return m.EgressWriteErrors.Value() }, false},
	{"stack_traversals_in", func(m *Metrics) int64 { return m.StackTraversalsIn.Value() }, false},
	{"stack_traversals_out", func(m *Metrics) int64 { return m.StackTraversalsOut.Value() }, false},
	{"sessions_restored", func(m *Metrics) int64 { return m.SessionsRestored.Value() }, false},
	{"snapshots_stale", func(m *Metrics) int64 { return m.SnapshotsStale.Value() }, false},
	{"journal_flushes", func(m *Metrics) int64 { return m.JournalFlushes.Value() }, false},
	{"journal_bytes", func(m *Metrics) int64 { return m.JournalBytes.Value() }, false},
	{"journal_errors", func(m *Metrics) int64 { return m.JournalErrors.Value() }, false},
	{"journal_bad_records", func(m *Metrics) int64 { return m.JournalBadRecords.Value() }, false},
	{"journal_flush_bytes", func(m *Metrics) int64 { return m.JournalBytes.Value() }, false},
	{"journal_changed_bytes", func(m *Metrics) int64 { return m.JournalChangedBytes.Value() }, false},
	{"journal_segments", func(m *Metrics) int64 { return m.JournalSegments.Value() }, true},
	{"compaction_runs", func(m *Metrics) int64 { return m.CompactionRuns.Value() }, false},
	{"journal_flush_failures", func(m *Metrics) int64 { return m.JournalFlushFailures.Value() }, false},
	{"journal_suspended", func(m *Metrics) int64 { return m.JournalSuspended.Value() }, true},
	{"journal_retry_backoff_ms", func(m *Metrics) int64 { return m.JournalRetryBackoffMs.Value() }, true},
	{"drops_unauth_quota", func(m *Metrics) int64 { return m.DropsUnauthQuota.Value() }, false},
	{"shed_events", func(m *Metrics) int64 { return m.ShedEvents.Value() }, false},
	{"shedding", func(m *Metrics) int64 { return m.Shedding.Value() }, true},
	{"read_errors_transient", func(m *Metrics) int64 { return m.ReadErrorsTransient.Value() }, false},
	{"frames_prepared", func(m *Metrics) int64 { return m.FramesPrepared.Value() }, false},
	{"frames_prepared_sent", func(m *Metrics) int64 { return m.FramesPreparedSent.Value() }, false},
}

// pubMu guards the prefix→slot maps below. expvar.Publish panics on a
// duplicate name, so each prefix is registered exactly once, with every
// registered Func reading through an atomic slot; republishing the same
// prefix (a daemon restarted in-process, a test constructing a fresh
// Metrics) just swaps the slot.
var (
	pubMu       sync.Mutex
	metricSlots = map[string]*atomic.Pointer[Metrics]{}
	daemonSlots = map[string]*atomic.Pointer[Daemon]{}
)

// Publish registers every counter with the process-wide expvar registry
// under prefix (e.g. "sessiond.sessions_live"). Idempotent per prefix:
// the first call registers the names, later calls re-point them at m —
// no duplicate-name panic, and stale objects stop being scraped.
func (m *Metrics) Publish(prefix string) {
	pubMu.Lock()
	defer pubMu.Unlock()
	if slot, ok := metricSlots[prefix]; ok {
		slot.Store(m)
		return
	}
	slot := &atomic.Pointer[Metrics]{}
	slot.Store(m)
	metricSlots[prefix] = slot
	for _, f := range metricFields {
		get := f.get
		// An expvar.Func returning int64 renders exactly like expvar.Int
		// (both are json-encoded integers), so swapping the registration
		// style is invisible to scrapers.
		expvar.Publish(prefix+"."+f.name, expvar.Func(func() any { return get(slot.Load()) }))
	}
	// Batch-size distributions and the syscalls the vectorized pipeline
	// saved versus a one-datagram-per-syscall loop.
	expvar.Publish(prefix+".read_batch_size", expvar.Func(func() any {
		return slot.Load().ReadBatchSizes.expvarValue()
	}))
	expvar.Publish(prefix+".write_batch_size", expvar.Func(func() any {
		return slot.Load().WriteBatchSizes.expvarValue()
	}))
	expvar.Publish(prefix+".syscalls_avoided", expvar.Func(func() any {
		return slot.Load().SyscallsAvoided()
	}))
	// Float-valued ratio: published as a Func because the int64-rendering
	// metricFields table cannot carry it.
	expvar.Publish(prefix+".journal_write_amp", expvar.Func(func() any {
		return slot.Load().JournalWriteAmp()
	}))
}

// JournalWriteAmp reports the journal's cumulative write amplification:
// bytes flushed to disk per byte of changed durable state. The incremental
// log holds it near 1 between compactions and ≤ 2 amortized; full rewrites
// scale it with the ratio of total to changed sessions. Zero before any
// changed byte has been recorded.
func (m *Metrics) JournalWriteAmp() float64 {
	changed := m.JournalChangedBytes.Value()
	if changed <= 0 {
		return 0
	}
	return float64(m.JournalBytes.Value()) / float64(changed)
}

// SyscallsAvoided reports how many read+write syscalls batching has saved
// so far versus the one-per-datagram baseline.
func (m *Metrics) SyscallsAvoided() int64 {
	avoided := (m.PacketsIn.Value() - m.ReadBatchCalls.Value()) +
		(m.PacketsOut.Value() - m.WriteBatchCalls.Value())
	if avoided < 0 {
		return 0
	}
	return avoided
}

// ScreenStateStats aggregates the resident screen-state footprint across
// every live session: how much terminal memory the daemon actually holds
// and how much of it is shared or recycled. Together with the process-wide
// interned-grapheme count it makes memory-per-session observable under
// load.
type ScreenStateStats struct {
	// Sessions sampled (live at collection time).
	Sessions int
	// ScreenRows is the summed grid height; SharedScreenRows counts grid
	// rows currently shared copy-on-write with a sender snapshot.
	ScreenRows, SharedScreenRows int
	// PooledRows counts recycled rows waiting on per-session free lists.
	PooledRows int
	// ScrollbackRows is the summed visible history; ScrollbackArenaRows
	// counts shared-arena entries kept alive (retained for structural
	// sharing with snapshots, ≥ ScrollbackRows until compaction).
	ScrollbackRows, ScrollbackArenaRows int
	// ResidentBytes is the cell storage actually resident across every
	// sampled session — reachable from its live screen, from the snapshots
	// its sender still retains for unacknowledged states, from the snapshot
	// of a frame prepared and waiting for its deadline, or from the retired
	// shells on its snapshot free list — counting each distinct
	// backing array once, so the blank array every blank row aliases (and
	// rows structurally shared between a screen and its snapshots) are
	// charged a single time.
	ResidentBytes int
}

// ResidentBytesPerSession reports the deduplicated cell bytes every screen
// a session keeps reachable adds up to, divided by the sampled session
// count (0 with no sessions): what the cells of a session cost the heap,
// and the gauge the screen-memory work is measured by. It counts cells
// only — row headers, transport buffers and cipher state are the rest of a
// session's heap.
func (st ScreenStateStats) ResidentBytesPerSession() int {
	if st.Sessions == 0 {
		return 0
	}
	return st.ResidentBytes / st.Sessions
}

// ScreenStateStats samples every live session's screen footprint: the
// live framebuffer's row counters, and the cell bytes of every screen the
// session keeps reachable. It takes each session's lock briefly; intended
// for metric scrapes.
func (d *Daemon) ScreenStateStats() ScreenStateStats {
	var st ScreenStateStats
	seen := make(map[*terminal.Cell]struct{}, 1024)
	d.reg.each(func(s *Session) {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		live := s.srv.Transport().CurrentState()
		fb := live.Framebuffer()
		m := fb.MemStats()
		bytes := fb.AccumulateResident(seen)
		for snap := range s.srv.Transport().Sender().SentStates() {
			bytes += snap.Framebuffer().AccumulateResident(seen)
		}
		if snap, ok := s.srv.Transport().Sender().PreparedState(); ok {
			bytes += snap.Framebuffer().AccumulateResident(seen)
		}
		bytes += live.AccumulatePooledResident(seen)
		s.mu.Unlock()
		st.Sessions++
		st.ScreenRows += m.ScreenRows
		st.SharedScreenRows += m.SharedScreenRows
		st.PooledRows += m.PooledRows
		st.ScrollbackRows += m.ScrollbackRows
		st.ScrollbackArenaRows += m.ScrollbackArenaRows
		st.ResidentBytes += bytes
	})
	return st
}

// PublishExpvar registers the daemon's counters plus its live-inspection
// gauges with the process-wide expvar registry under prefix: resident
// screen state, transport introspection (SRTT/frame-interval quantiles,
// queue depths), keystroke→echo percentiles, per-stage pipeline latencies,
// buffer-pool effectiveness, and process-wide statesync/grapheme counters.
// The walking gauges (screen_state, transport) take each session's lock
// briefly at scrape time. Idempotent per prefix, like Metrics.Publish.
func (d *Daemon) PublishExpvar(prefix string) {
	d.metrics.Publish(prefix)
	pubMu.Lock()
	defer pubMu.Unlock()
	if slot, ok := daemonSlots[prefix]; ok {
		slot.Store(d)
		return
	}
	slot := &atomic.Pointer[Daemon]{}
	slot.Store(d)
	daemonSlots[prefix] = slot
	expvar.Publish(prefix+".interned_graphemes", expvar.Func(func() any {
		return terminal.InternedGraphemes()
	}))
	expvar.Publish(prefix+".screen_state", expvar.Func(func() any {
		return slot.Load().ScreenStateStats()
	}))
	expvar.Publish(prefix+".resident_bytes_per_session", expvar.Func(func() any {
		return slot.Load().ScreenStateStats().ResidentBytesPerSession()
	}))
	expvar.Publish(prefix+".statesync_applies", expvar.Func(func() any {
		sc, sb, uc, ub := statesync.ApplyStats()
		return map[string]int64{
			"screen": sc, "screen_bytes": sb,
			"stream": uc, "stream_bytes": ub,
		}
	}))
	expvar.Publish(prefix+".transport", expvar.Func(func() any {
		return slot.Load().TransportStats()
	}))
	expvar.Publish(prefix+".echo", expvar.Func(func() any {
		return slot.Load().echoExpvar()
	}))
	expvar.Publish(prefix+".stage_latency", expvar.Func(func() any {
		return slot.Load().stageExpvar()
	}))
	expvar.Publish(prefix+".buffer_pools", expvar.Func(func() any {
		return slot.Load().poolExpvar()
	}))
}

// echoExpvar renders the Fig. 6 keystroke→echo summary.
func (d *Daemon) echoExpvar() any {
	total, le16, leRTT := d.pipe.EchoStats()
	h := d.pipe.Stage(telemetry.StageEcho)
	return map[string]int64{
		"total":   total,
		"le_16ms": le16,
		"le_rtt":  leRTT,
		"p50_us":  int64(h.QuantileDuration(0.50) / time.Microsecond),
		"p99_us":  int64(h.QuantileDuration(0.99) / time.Microsecond),
		"p999_us": int64(h.QuantileDuration(0.999) / time.Microsecond),
	}
}

// stageExpvar renders every pipeline stage's latency summary.
func (d *Daemon) stageExpvar() any {
	out := make(map[string]map[string]int64, len(telemetry.Stages()))
	for _, st := range telemetry.Stages() {
		h := d.pipe.Stage(st)
		out[st.String()] = map[string]int64{
			"count":  h.Count(),
			"p50_us": int64(h.QuantileDuration(0.50) / time.Microsecond),
			"p99_us": int64(h.QuantileDuration(0.99) / time.Microsecond),
		}
	}
	return out
}

// poolExpvar renders buffer-pool effectiveness: gets vs misses (a miss is
// a Get that had to allocate; a healthy steady state plateaus misses).
func (d *Daemon) poolExpvar() any {
	out := map[string]int64{}
	if p := d.wirePool; p != nil {
		g, m := p.Stats()
		out["wire_gets"], out["wire_misses"] = g, m
	}
	return out
}

// String renders a one-line summary for logs and the load harness.
func (m *Metrics) String() string {
	return fmt.Sprintf(
		"sessions=%d (opened=%d evicted=%d) in=%d pkts/%d B out=%d pkts/%d B drops[env=%d unk=%d auth=%d queue=%d] roams=%d",
		m.SessionsLive.Value(), m.SessionsOpened.Value(), m.SessionsEvicted.Value(),
		m.PacketsIn.Value(), m.BytesIn.Value(), m.PacketsOut.Value(), m.BytesOut.Value(),
		m.DropsBadEnvelope.Value(), m.DropsUnknownSession.Value(), m.DropsAuth.Value(),
		m.DropsQueueFull.Value(), m.RoamingEvents.Value())
}
