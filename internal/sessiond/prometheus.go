package sessiond

import (
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// This file renders the daemon's telemetry in the Prometheus text
// exposition format (version 0.0.4), hand-rolled — the repo takes no
// dependencies, and the format is lines of `name{labels} value`. The
// expvar registry (metrics.go) stays the debug-oriented surface; this one
// is for scrapers.

// batchSizeBoundaries are the `le` boundaries for the batch-size
// histograms: powers of two up to the clamp, matching BatchHist's exact
// range.
var batchSizeBoundaries = []float64{1, 2, 4, 8, 16, 32, 64, 128}

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

// appendPrometheus renders the full exposition into dst: a TYPE line and
// the samples of each row of the metrics table that has a Prometheus name,
// in table order. A run of families with constant labels prints its TYPE
// lines first and its samples after them.
func (d *Daemon) appendPrometheus(dst []byte) []byte {
	s := newScrape(d)
	var held []byte // samples of the constant-labelled run
	for _, r := range metrics {
		if r.prom == "" {
			continue
		}
		family, labels, _ := strings.Cut(r.prom, "{")
		if labels == "" {
			dst, held = append(dst, held...), held[:0]
		}
		dst = append(dst, "# TYPE sessiond_"+family+" "+promTypes[r.kind]+"\n"...)
		if labels == "" {
			dst = r.appendSamples(dst, s)
		} else {
			held = r.appendSamples(held, s)
		}
	}
	return append(dst, held...)
}

// appendSamples renders r's samples, without its TYPE line.
func (r *metric) appendSamples(dst []byte, s *scrape) []byte {
	name := "sessiond_" + r.prom
	switch v := r.get(s); r.kind {
	case counter, gauge:
		dst = strconv.AppendInt(append(dst, name+" "...), v.(int64), 10)
	case floatGauge:
		dst = strconv.AppendFloat(append(dst, name+" "...), v.(float64), 'g', -1, 64)
	case batchHist:
		return appendPromHist(dst, name, "", v.(*BatchHist).hist(), batchSizeBoundaries, 1)
	case latencyHist:
		for _, st := range v.([]telemetry.Stage) {
			labels := ""
			if r.label != "" {
				labels = r.label + `="` + st.String() + `",`
			}
			dst = appendPromHist(dst, name, labels, s.d.pipe.Stage(st), stageSecondsBoundaries, float64(time.Second))
		}
		return dst
	case durSummary:
		for i, q := range [3]string{"0.5", "0.99", "1"} {
			dst = append(dst, name+`{quantile="`+q+`"} `...)
			dst = strconv.AppendFloat(dst, v.([3]time.Duration)[i].Seconds(), 'g', -1, 64)
			dst = append(dst, '\n')
		}
		return dst
	}
	return append(dst, '\n')
}

// appendPromHist renders h as a cumulative histogram with the `le`
// boundaries les, in a unit of scale h-values: 1 for batch sizes, whose
// sum is an integer, or a second's worth of nanoseconds. labels is either
// empty or a `key="value",`-style prefix.
func appendPromHist(dst []byte, name, labels string, h *telemetry.Hist, les []float64, scale float64) []byte {
	for _, le := range les {
		dst = append(dst, name+"_bucket{"+labels+`le="`...)
		dst = strconv.AppendFloat(dst, le, 'g', -1, 64)
		dst = append(dst, `"} `...)
		dst = strconv.AppendInt(dst, h.CountLE(int64(le*scale)), 10)
		dst = append(dst, '\n')
	}
	dst = append(dst, name+"_bucket{"+labels+`le="+Inf"} `...)
	dst = strconv.AppendInt(dst, h.Count(), 10)
	trim := labels
	if trim != "" {
		trim = "{" + trim[:len(trim)-1] + "}"
	}
	dst = append(dst, "\n"+name+"_sum"+trim+" "...)
	if scale == 1 {
		dst = strconv.AppendInt(dst, h.Sum(), 10)
	} else {
		dst = strconv.AppendFloat(dst, float64(h.Sum())/scale, 'g', -1, 64)
	}
	dst = append(dst, "\n"+name+"_count"+trim+" "...)
	dst = strconv.AppendInt(dst, h.Count(), 10)
	return append(dst, '\n')
}
