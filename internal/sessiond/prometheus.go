package sessiond

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/statesync"
	"repro/internal/telemetry"
	"repro/internal/terminal"
)

// This file renders the daemon's telemetry in the Prometheus text
// exposition format (version 0.0.4), hand-rolled — the repo takes no
// dependencies, and the format is lines of `name{labels} value`. The
// expvar registry (metrics.go) stays the debug-oriented surface; this one
// is for scrapers.

// batchSizeBoundaries are the `le` boundaries for the batch-size
// histograms: powers of two up to the clamp, matching BatchHist's exact
// range.
var batchSizeBoundaries = []int64{1, 2, 4, 8, 16, 32, 64, 128}

// stageSecondsBoundaries are the `le` boundaries (in seconds) for the
// pipeline stage and echo histograms: 1 µs to 10 s, log-spaced, with the
// paper's 16 ms echo threshold as an explicit edge so the Fig. 6 fraction
// is readable straight off the histogram.
var stageSecondsBoundaries = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 4e-3, 16e-3, 64e-3, 0.25, 1, 10,
}

// MetricsHandler returns an http.Handler serving the daemon's metrics in
// Prometheus text format. Mount it wherever the debug listener lives
// (mosh-server -debug serves it on /metrics).
func (d *Daemon) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(d.appendPrometheus(nil))
	})
}

// appendPrometheus renders the full exposition into dst.
func (d *Daemon) appendPrometheus(dst []byte) []byte {
	m := d.Metrics()
	for _, f := range metricFields {
		kind := "counter"
		if f.gauge {
			kind = "gauge"
		}
		dst = append(dst, "# TYPE sessiond_"+f.name+" "+kind+"\n"...)
		dst = append(dst, "sessiond_"+f.name+" "...)
		dst = strconv.AppendInt(dst, f.get(m), 10)
		dst = append(dst, '\n')
	}
	dst = appendPromCounter(dst, "sessiond_syscalls_avoided", m.SyscallsAvoided())
	dst = appendPromFloatGauge(dst, "sessiond_journal_write_amp", m.JournalWriteAmp())

	dst = appendPromBatchHist(dst, "sessiond_read_batch_size", &m.ReadBatchSizes)
	dst = appendPromBatchHist(dst, "sessiond_write_batch_size", &m.WriteBatchSizes)

	// Pipeline stages: one histogram per stage, labeled.
	dst = append(dst, "# TYPE sessiond_stage_latency_seconds histogram\n"...)
	for _, st := range telemetry.Stages() {
		if st == telemetry.StageEcho {
			continue // exported as its own histogram below
		}
		dst = appendPromLatencyHist(dst, "sessiond_stage_latency_seconds",
			`stage="`+st.String()+`",`, d.pipe.Stage(st))
	}

	// Keystroke→echo: the Fig. 6 numbers.
	dst = append(dst, "# TYPE sessiond_echo_latency_seconds histogram\n"...)
	dst = appendPromLatencyHist(dst, "sessiond_echo_latency_seconds", "",
		d.pipe.Stage(telemetry.StageEcho))
	total, le16, leRTT := d.pipe.EchoStats()
	dst = appendPromCounter(dst, "sessiond_echo_total", total)
	dst = appendPromCounter(dst, "sessiond_echo_within_16ms_total", le16)
	dst = appendPromCounter(dst, "sessiond_echo_within_rtt_total", leRTT)

	// Live transport introspection.
	tr := d.TransportStats()
	dst = appendPromGauge(dst, "sessiond_transport_sessions", int64(tr.Sessions))
	dst = appendPromGauge(dst, "sessiond_transport_outstanding_states", int64(tr.OutstandingStates))
	dst = appendPromGauge(dst, "sessiond_transport_fragments_held", int64(tr.FragmentsHeld))
	dst = appendPromSummary(dst, "sessiond_transport_srtt_seconds",
		tr.SRTTp50, tr.SRTTp99, tr.SRTTMax)
	dst = appendPromSummary(dst, "sessiond_transport_frame_interval_seconds",
		tr.FrameIntervalP50, tr.FrameIntervalP99, tr.FrameIntervalMax)

	// Memory-per-session observability.
	ss := d.ScreenStateStats()
	dst = appendPromGauge(dst, "sessiond_screen_rows", int64(ss.ScreenRows))
	dst = appendPromGauge(dst, "sessiond_screen_rows_shared", int64(ss.SharedScreenRows))
	dst = appendPromGauge(dst, "sessiond_screen_rows_pooled", int64(ss.PooledRows))
	dst = appendPromGauge(dst, "sessiond_scrollback_rows", int64(ss.ScrollbackRows))
	dst = appendPromGauge(dst, "sessiond_scrollback_arena_rows", int64(ss.ScrollbackArenaRows))
	dst = appendPromGauge(dst, "sessiond_interned_graphemes", int64(terminal.InternedGraphemes()))
	dst = appendPromGauge(dst, "sessiond_resident_bytes_per_session", int64(ss.ResidentBytesPerSession()))

	sc, sb, uc, ub := statesync.ApplyStats()
	dst = appendPromCounter(dst, "sessiond_statesync_screen_applies", sc)
	dst = appendPromCounter(dst, "sessiond_statesync_screen_apply_bytes", sb)
	dst = appendPromCounter(dst, "sessiond_statesync_stream_applies", uc)
	dst = appendPromCounter(dst, "sessiond_statesync_stream_apply_bytes", ub)

	dst = append(dst, "# TYPE sessiond_buffer_pool_gets counter\n"...)
	dst = append(dst, "# TYPE sessiond_buffer_pool_misses counter\n"...)
	gets, misses := d.wirePool.Stats()
	dst = append(dst, fmt.Sprintf("sessiond_buffer_pool_gets{pool=\"wire\"} %d\n", gets)...)
	dst = append(dst, fmt.Sprintf("sessiond_buffer_pool_misses{pool=\"wire\"} %d\n", misses)...)
	return dst
}

func appendPromCounter(dst []byte, name string, v int64) []byte {
	dst = append(dst, "# TYPE "+name+" counter\n"+name+" "...)
	dst = strconv.AppendInt(dst, v, 10)
	return append(dst, '\n')
}

func appendPromGauge(dst []byte, name string, v int64) []byte {
	dst = append(dst, "# TYPE "+name+" gauge\n"+name+" "...)
	dst = strconv.AppendInt(dst, v, 10)
	return append(dst, '\n')
}

func appendPromFloatGauge(dst []byte, name string, v float64) []byte {
	dst = append(dst, "# TYPE "+name+" gauge\n"+name+" "...)
	dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
	return append(dst, '\n')
}

// appendPromSummary renders a three-point quantile summary from
// pre-aggregated durations.
func appendPromSummary(dst []byte, name string, p50, p99, max time.Duration) []byte {
	dst = append(dst, "# TYPE "+name+" summary\n"...)
	for _, q := range []struct {
		label string
		v     time.Duration
	}{{"0.5", p50}, {"0.99", p99}, {"1", max}} {
		dst = append(dst, name+`{quantile="`+q.label+`"} `...)
		dst = strconv.AppendFloat(dst, q.v.Seconds(), 'g', -1, 64)
		dst = append(dst, '\n')
	}
	return dst
}

// appendPromBatchHist renders a BatchHist as a cumulative histogram with
// power-of-two boundaries.
func appendPromBatchHist(dst []byte, name string, h *BatchHist) []byte {
	dst = append(dst, "# TYPE "+name+" histogram\n"...)
	th := h.hist()
	for _, le := range batchSizeBoundaries {
		dst = append(dst, name+`_bucket{le="`...)
		dst = strconv.AppendInt(dst, le, 10)
		dst = append(dst, `"} `...)
		dst = strconv.AppendInt(dst, th.CountLE(le), 10)
		dst = append(dst, '\n')
	}
	dst = append(dst, name+`_bucket{le="+Inf"} `...)
	dst = strconv.AppendInt(dst, th.Count(), 10)
	dst = append(dst, '\n')
	dst = append(dst, name+"_sum "...)
	dst = strconv.AppendInt(dst, th.Sum(), 10)
	dst = append(dst, '\n')
	dst = append(dst, name+"_count "...)
	dst = strconv.AppendInt(dst, th.Count(), 10)
	return append(dst, '\n')
}

// appendPromLatencyHist renders a nanosecond-valued telemetry.Hist as a
// seconds-denominated cumulative histogram. labels is either empty or a
// `key="value",`-style prefix.
func appendPromLatencyHist(dst []byte, name, labels string, h *telemetry.Hist) []byte {
	for _, le := range stageSecondsBoundaries {
		dst = append(dst, name+"_bucket{"+labels+`le="`...)
		dst = strconv.AppendFloat(dst, le, 'g', -1, 64)
		dst = append(dst, `"} `...)
		dst = strconv.AppendInt(dst, h.CountLE(int64(le*float64(time.Second))), 10)
		dst = append(dst, '\n')
	}
	dst = append(dst, name+"_bucket{"+labels+`le="+Inf"} `...)
	dst = strconv.AppendInt(dst, h.Count(), 10)
	dst = append(dst, '\n')
	trim := labels
	if trim != "" {
		trim = "{" + trim[:len(trim)-1] + "}"
	}
	dst = append(dst, name+"_sum"+trim+" "...)
	dst = strconv.AppendFloat(dst, float64(h.Sum())/float64(time.Second), 'g', -1, 64)
	dst = append(dst, '\n')
	dst = append(dst, name+"_count"+trim+" "...)
	dst = strconv.AppendInt(dst, h.Count(), 10)
	return append(dst, '\n')
}
