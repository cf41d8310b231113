package sessiond

import (
	"encoding/json"
	"expvar"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode"

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
	DropsBadDiff        expvar.Int // authentic datagrams whose diff would not apply (statesync.ErrBadDiff)
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

// metricKind is how a series renders on each surface.
type metricKind uint8

const (
	counter     metricKind = iota // int64, monotonic
	gauge                         // int64, a point-in-time value
	floatGauge                    // float64
	batchHist                     // *BatchHist: power-of-two buckets; samples/p50/p99 in expvar
	latencyHist                   // []telemetry.Stage: buckets in seconds; count/p50_us/p99_us in expvar
	durSummary                    // [3]time.Duration: p50, p99 and max
)

var promTypes = [...]string{
	counter: "counter", gauge: "gauge", floatGauge: "gauge",
	batchHist: "histogram", latencyHist: "histogram", durSummary: "summary",
}

// metric is one published series, declared once for both surfaces.
type metric struct {
	// prom is the Prometheus family after "sessiond_", with any constant
	// labels its samples carry; "" publishes the series to expvar only.
	prom string
	// ev is the expvar key after "<prefix>.", or "key.field" for a field of
	// a composite key (a durSummary names its p50, p99 and max fields,
	// comma-separated); "" publishes the series to Prometheus only.
	ev   string
	kind metricKind
	get  func(*scrape) any
	// label, on a latencyHist, is the label whose values are the stages it
	// holds: one histogram, and one field of the composite key ev, each.
	label string
	// evLast moves the field behind its composite's other fields.
	evLast bool
}

// metrics is every series the daemon publishes, in /metrics order. Adding a
// metric is one row here plus its increment. Inside a composite expvar key,
// lower-case fields render sorted and Go-named ones in row order: the map
// and the struct those keys were first published as.
var metrics = []metric{
	{prom: "sessions_live", ev: "sessions_live", kind: gauge, get: func(s *scrape) any { return s.m.SessionsLive.Value() }},
	{prom: "sessions_opened", ev: "sessions_opened", get: func(s *scrape) any { return s.m.SessionsOpened.Value() }},
	{prom: "sessions_evicted", ev: "sessions_evicted", get: func(s *scrape) any { return s.m.SessionsEvicted.Value() }},
	{prom: "sessions_closed", ev: "sessions_closed", get: func(s *scrape) any { return s.m.SessionsClosed.Value() }},
	{prom: "packets_in", ev: "packets_in", get: func(s *scrape) any { return s.m.PacketsIn.Value() }},
	{prom: "bytes_in", ev: "bytes_in", get: func(s *scrape) any { return s.m.BytesIn.Value() }},
	{prom: "packets_out", ev: "packets_out", get: func(s *scrape) any { return s.m.PacketsOut.Value() }},
	{prom: "bytes_out", ev: "bytes_out", get: func(s *scrape) any { return s.m.BytesOut.Value() }},
	{prom: "drops_bad_envelope", ev: "drops_bad_envelope", get: func(s *scrape) any { return s.m.DropsBadEnvelope.Value() }},
	{prom: "drops_unknown_session", ev: "drops_unknown_session", get: func(s *scrape) any { return s.m.DropsUnknownSession.Value() }},
	{prom: "drops_auth", ev: "drops_auth", get: func(s *scrape) any { return s.m.DropsAuth.Value() }},
	{prom: "drops_bad_diff", ev: "drops_bad_diff", get: func(s *scrape) any { return s.m.DropsBadDiff.Value() }},
	{prom: "drops_queue_full", ev: "drops_queue_full", get: func(s *scrape) any { return s.m.DropsQueueFull.Value() }},
	{prom: "roaming_events", ev: "roaming_events", get: func(s *scrape) any { return s.m.RoamingEvents.Value() }},
	{prom: "read_batch_calls", ev: "read_batch_calls", get: func(s *scrape) any { return s.m.ReadBatchCalls.Value() }},
	{prom: "write_batch_calls", ev: "write_batch_calls", get: func(s *scrape) any { return s.m.WriteBatchCalls.Value() }},
	{prom: "egress_queue_depth", ev: "egress_queue_depth", kind: gauge, get: func(s *scrape) any { return s.m.EgressQueueDepth.Value() }},
	{prom: "drops_egress_full", ev: "drops_egress_full", get: func(s *scrape) any { return s.m.DropsEgressFull.Value() }},
	{prom: "egress_write_errors", ev: "egress_write_errors", get: func(s *scrape) any { return s.m.EgressWriteErrors.Value() }},
	{prom: "sessions_restored", ev: "sessions_restored", get: func(s *scrape) any { return s.m.SessionsRestored.Value() }},
	{prom: "snapshots_stale", ev: "snapshots_stale", get: func(s *scrape) any { return s.m.SnapshotsStale.Value() }},
	{prom: "journal_flushes", ev: "journal_flushes", get: func(s *scrape) any { return s.m.JournalFlushes.Value() }},
	{prom: "journal_bytes", ev: "journal_bytes", get: func(s *scrape) any { return s.m.JournalBytes.Value() }},
	{prom: "journal_errors", ev: "journal_errors", get: func(s *scrape) any { return s.m.JournalErrors.Value() }},
	{prom: "journal_bad_records", ev: "journal_bad_records", get: func(s *scrape) any { return s.m.JournalBadRecords.Value() }},
	{prom: "journal_flush_bytes", ev: "journal_flush_bytes", get: func(s *scrape) any { return s.m.JournalBytes.Value() }},
	{prom: "journal_changed_bytes", ev: "journal_changed_bytes", get: func(s *scrape) any { return s.m.JournalChangedBytes.Value() }},
	{prom: "journal_segments", ev: "journal_segments", kind: gauge, get: func(s *scrape) any { return s.m.JournalSegments.Value() }},
	{prom: "compaction_runs", ev: "compaction_runs", get: func(s *scrape) any { return s.m.CompactionRuns.Value() }},
	{prom: "journal_flush_failures", ev: "journal_flush_failures", get: func(s *scrape) any { return s.m.JournalFlushFailures.Value() }},
	{prom: "journal_suspended", ev: "journal_suspended", kind: gauge, get: func(s *scrape) any { return s.m.JournalSuspended.Value() }},
	{prom: "journal_retry_backoff_ms", ev: "journal_retry_backoff_ms", kind: gauge, get: func(s *scrape) any { return s.m.JournalRetryBackoffMs.Value() }},
	{prom: "drops_unauth_quota", ev: "drops_unauth_quota", get: func(s *scrape) any { return s.m.DropsUnauthQuota.Value() }},
	{prom: "shed_events", ev: "shed_events", get: func(s *scrape) any { return s.m.ShedEvents.Value() }},
	{prom: "shedding", ev: "shedding", kind: gauge, get: func(s *scrape) any { return s.m.Shedding.Value() }},
	{prom: "read_errors_transient", ev: "read_errors_transient", get: func(s *scrape) any { return s.m.ReadErrorsTransient.Value() }},
	{prom: "frames_prepared", ev: "frames_prepared", get: func(s *scrape) any { return s.m.FramesPrepared.Value() }},
	{prom: "frames_prepared_sent", ev: "frames_prepared_sent", get: func(s *scrape) any { return s.m.FramesPreparedSent.Value() }},
	// The read+write syscalls batching has saved versus one per datagram.
	{prom: "syscalls_avoided", ev: "syscalls_avoided", get: func(s *scrape) any {
		return max(0, s.m.PacketsIn.Value()-s.m.ReadBatchCalls.Value()+s.m.PacketsOut.Value()-s.m.WriteBatchCalls.Value())
	}},
	{prom: "journal_write_amp", ev: "journal_write_amp", kind: floatGauge, get: func(s *scrape) any { return s.m.JournalWriteAmp() }},
	{prom: "read_batch_size", ev: "read_batch_size", kind: batchHist, get: func(s *scrape) any { return &s.m.ReadBatchSizes }},
	{prom: "write_batch_size", ev: "write_batch_size", kind: batchHist, get: func(s *scrape) any { return &s.m.WriteBatchSizes }},

	// Pipeline stages, and the keystroke→echo numbers of the paper's Fig. 6.
	{prom: "stage_latency_seconds", ev: "stage_latency", kind: latencyHist, label: "stage", get: func(*scrape) any {
		return slices.DeleteFunc(telemetry.Stages(), func(st telemetry.Stage) bool { return st == telemetry.StageEcho })
	}},
	{prom: "echo_latency_seconds", ev: "stage_latency.echo", kind: latencyHist, get: func(*scrape) any { return []telemetry.Stage{telemetry.StageEcho} }},
	{prom: "echo_total", ev: "echo.total", get: func(s *scrape) any { n, _, _ := s.d.pipe.EchoStats(); return n }},
	{prom: "echo_within_16ms_total", ev: "echo.le_16ms", get: func(s *scrape) any { _, n, _ := s.d.pipe.EchoStats(); return n }},
	{prom: "echo_within_rtt_total", ev: "echo.le_rtt", get: func(s *scrape) any { _, _, n := s.d.pipe.EchoStats(); return n }},
	{ev: "echo.p50_us", kind: gauge, get: func(s *scrape) any { return s.echoUs(0.50) }},
	{ev: "echo.p99_us", kind: gauge, get: func(s *scrape) any { return s.echoUs(0.99) }},
	{ev: "echo.p999_us", kind: gauge, get: func(s *scrape) any { return s.echoUs(0.999) }},

	// Live transport introspection.
	{prom: "transport_sessions", ev: "transport.Sessions", kind: gauge, get: func(s *scrape) any { return int64(s.transport().Sessions) }},
	{prom: "transport_outstanding_states", ev: "transport.OutstandingStates", kind: gauge, evLast: true, get: func(s *scrape) any { return int64(s.transport().OutstandingStates) }},
	{prom: "transport_fragments_held", ev: "transport.FragmentsHeld", kind: gauge, evLast: true, get: func(s *scrape) any { return int64(s.transport().FragmentsHeld) }},
	{prom: "transport_srtt_seconds", ev: "transport.SRTTp50,SRTTp99,SRTTMax", kind: durSummary, get: func(s *scrape) any { t := s.transport(); return [3]time.Duration{t.SRTTp50, t.SRTTp99, t.SRTTMax} }},
	{prom: "transport_frame_interval_seconds", ev: "transport.FrameIntervalP50,FrameIntervalP99,FrameIntervalMax", kind: durSummary, get: func(s *scrape) any {
		t := s.transport()
		return [3]time.Duration{t.FrameIntervalP50, t.FrameIntervalP99, t.FrameIntervalMax}
	}},

	// Memory per session.
	{ev: "screen_state.Sessions", kind: gauge, get: func(s *scrape) any { return int64(s.screen().Sessions) }},
	{prom: "screen_rows", ev: "screen_state.ScreenRows", kind: gauge, get: func(s *scrape) any { return int64(s.screen().ScreenRows) }},
	{prom: "screen_rows_shared", ev: "screen_state.SharedScreenRows", kind: gauge, get: func(s *scrape) any { return int64(s.screen().SharedScreenRows) }},
	{prom: "screen_rows_pooled", ev: "screen_state.PooledRows", kind: gauge, get: func(s *scrape) any { return int64(s.screen().PooledRows) }},
	{ev: "screen_state.ResidentBytes", kind: gauge, get: func(s *scrape) any { return int64(s.screen().ResidentBytes) }},
	{prom: "interned_graphemes", ev: "interned_graphemes", kind: gauge, get: func(*scrape) any { return int64(terminal.InternedGraphemes()) }},
	{prom: "resident_bytes_per_session", ev: "resident_bytes_per_session", kind: gauge, get: func(s *scrape) any { return int64(s.screen().ResidentBytesPerSession()) }},

	// Process-wide statesync apply counters.
	{prom: "statesync_screen_applies", ev: "statesync_applies.screen", get: func(*scrape) any { n, _, _, _ := statesync.ApplyStats(); return n }},
	{prom: "statesync_screen_apply_bytes", ev: "statesync_applies.screen_bytes", get: func(*scrape) any { _, n, _, _ := statesync.ApplyStats(); return n }},
	{prom: "statesync_stream_applies", ev: "statesync_applies.stream", get: func(*scrape) any { _, _, n, _ := statesync.ApplyStats(); return n }},
	{prom: "statesync_stream_apply_bytes", ev: "statesync_applies.stream_bytes", get: func(*scrape) any { _, _, _, n := statesync.ApplyStats(); return n }},

	// Buffer-pool effectiveness: a miss is a Get that had to allocate; a
	// healthy steady state plateaus misses.
	{prom: `buffer_pool_gets{pool="wire"}`, ev: "buffer_pools.wire_gets", get: func(s *scrape) any { n, _ := s.d.wirePool.Stats(); return n }},
	{prom: `buffer_pool_misses{pool="wire"}`, ev: "buffer_pools.wire_misses", get: func(s *scrape) any { _, n := s.d.wirePool.Stats(); return n }},
}

// scrape is one rendering's view of a daemon. The walking aggregates take
// each session's lock, so a scrape reads each at most once.
type scrape struct {
	d         *Daemon
	m         *Metrics
	transport func() TransportStats
	screen    func() ScreenStateStats
}

func newScrape(d *Daemon) *scrape {
	return &scrape{d: d, m: &d.metrics, transport: sync.OnceValue(d.TransportStats), screen: sync.OnceValue(d.ScreenStateStats)}
}

// echoUs reads quantile q of the keystroke→echo histogram, in µs.
func (s *scrape) echoUs(q float64) int64 {
	return int64(s.d.pipe.Stage(telemetry.StageEcho).QuantileDuration(q) / time.Microsecond)
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
	// ResidentBytes is the cell storage actually resident across every
	// sampled session: stored cells at terminal.StoredCellBytes each, and
	// each row palette's capacity. It counts what is reachable from
	// a session's live screen, from the snapshots its sender still retains
	// for unacknowledged states, from the snapshot of a frame prepared and
	// waiting for its deadline, or from the retired shells on its snapshot
	// free list, and each distinct backing array once, so the blank array
	// every blank row aliases (and rows and palettes structurally shared
	// between a screen and its snapshots) are charged a single time.
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
	seen := make(terminal.ResidentSet, 1024)
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
		st.ResidentBytes += bytes
	})
	return st
}

// pubMu guards daemonSlots. expvar.Publish panics on a duplicate name, so
// each prefix is registered once, every key reading through the prefix's
// slot; republishing a prefix (a daemon restarted in-process, a test
// building a fresh daemon) just re-points the slot.
var (
	pubMu       sync.Mutex
	daemonSlots = map[string]*atomic.Pointer[Daemon]{}
)

// PublishExpvar registers every expvar key of the metrics table with the
// process-wide expvar registry under prefix (e.g. "sessiond.sessions_live").
// Idempotent per prefix: the first call registers the names, later calls
// re-point them at d, so stale daemons stop being scraped. The keys that
// walk the sessions (screen_state, transport) take each session's lock
// briefly at scrape time.
func (d *Daemon) PublishExpvar(prefix string) {
	pubMu.Lock()
	defer pubMu.Unlock()
	if slot, ok := daemonSlots[prefix]; ok {
		slot.Store(d)
		return
	}
	slot := &atomic.Pointer[Daemon]{}
	slot.Store(d)
	daemonSlots[prefix] = slot
	keys := map[string][]*metric{}
	for i := range metrics {
		if r := &metrics[i]; r.ev != "" {
			key, _, _ := strings.Cut(r.ev, ".")
			keys[key] = append(keys[key], r)
		}
	}
	for key, rows := range keys {
		expvar.Publish(prefix+"."+key, expvar.Func(func() any {
			return expvarValue(newScrape(slot.Load()), rows)
		}))
	}
}

// evField is one field of a composite expvar key, or with no name the
// whole value of a plain one.
type evField struct {
	name string
	v    any
}

// expvarValue renders one expvar key from its rows: a plain key's value, or
// the JSON object of a composite key's fields.
func expvarValue(s *scrape, rows []*metric) any {
	var fields, last []evField
	for _, r := range rows {
		if r.evLast {
			last = r.appendExpvar(last, s)
		} else {
			fields = r.appendExpvar(fields, s)
		}
	}
	fields = append(fields, last...)
	if fields[0].name == "" {
		return fields[0].v
	}
	if unicode.IsLower(rune(fields[0].name[0])) {
		slices.SortFunc(fields, func(a, b evField) int { return strings.Compare(a.name, b.name) })
	}
	b := []byte{'{'}
	for i, f := range fields {
		if i > 0 {
			b = append(b, ',')
		}
		v, _ := json.Marshal(f.v)
		b = append(append(b, `"`+f.name+`":`...), v...)
	}
	return json.RawMessage(append(b, '}'))
}

// appendExpvar appends the fields r contributes to its expvar key.
func (r *metric) appendExpvar(fs []evField, s *scrape) []evField {
	_, name, _ := strings.Cut(r.ev, ".")
	switch v := r.get(s); r.kind {
	case batchHist:
		h := v.(*BatchHist)
		return append(fs, evField{name, map[string]int64{"samples": h.Samples(), "p50": int64(h.Quantile(0.50)), "p99": int64(h.Quantile(0.99))}})
	case latencyHist:
		for _, st := range v.([]telemetry.Stage) {
			if r.label != "" {
				name = st.String()
			}
			h := s.d.pipe.Stage(st)
			fs = append(fs, evField{name, map[string]int64{
				"count":  h.Count(),
				"p50_us": int64(h.QuantileDuration(0.50) / time.Microsecond),
				"p99_us": int64(h.QuantileDuration(0.99) / time.Microsecond),
			}})
		}
		return fs
	case durSummary:
		for i, n := range strings.Split(name, ",") {
			fs = append(fs, evField{n, v.([3]time.Duration)[i]})
		}
		return fs
	default:
		return append(fs, evField{name, v})
	}
}
