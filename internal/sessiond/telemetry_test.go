package sessiond_test

import (
	"expvar"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/sessiond"
	"repro/internal/telemetry"
)

// TestPublishIdempotentPerPrefix is the regression test for the expvar
// duplicate-name panic: publishing two different daemons under the same
// prefix must not panic, and a scrape after the second publish must read
// the newer daemon's values.
func TestPublishIdempotentPerPrefix(t *testing.T) {
	const prefix = "sessiond_republish_test"
	a := newSimWorld(t, sessiond.Config{IdleTimeout: -1}, lan()).d
	b := newSimWorld(t, sessiond.Config{IdleTimeout: -1}, lan()).d
	a.Metrics().PacketsIn.Add(11)
	b.Metrics().PacketsIn.Add(22)

	a.PublishExpvar(prefix) // first registration
	a.PublishExpvar(prefix) // same daemon again: must not panic
	if got := expvar.Get(prefix + ".packets_in").String(); got != "11" {
		t.Fatalf("after first publish, packets_in = %s, want 11", got)
	}
	b.PublishExpvar(prefix) // different daemon, same prefix: repoint, no panic
	if got := expvar.Get(prefix + ".packets_in").String(); got != "22" {
		t.Fatalf("after republish, packets_in = %s, want 22 (new daemon)", got)
	}
	if expvar.Get(prefix+".screen_state") == nil {
		t.Fatal("daemon gauges missing after republish")
	}
}

// TestBatchSizeExpvarPinned pins the batch-size expvar rendering
// byte-for-byte: BatchHist is now backed by telemetry.Hist, and this is
// the proof the promotion changed nothing observable. The old fixed-bucket
// quantile walk gave {1,2,3,4,5} → p50=3, p99=4.
func TestBatchSizeExpvarPinned(t *testing.T) {
	const prefix = "sessiond_batchpin_test"
	d := newSimWorld(t, sessiond.Config{IdleTimeout: -1}, lan()).d
	for n := 1; n <= 5; n++ {
		d.Metrics().ReadBatchSizes.Observe(n)
	}
	d.PublishExpvar(prefix)
	const want = `{"p50":3,"p99":4,"samples":5}`
	if got := expvar.Get(prefix + ".read_batch_size").String(); got != want {
		t.Fatalf("read_batch_size = %s, want %s", got, want)
	}
}

// TestDegradationDumpOnQuotaTrip proves the tentpole's failure-forensics
// promise: when the unauth quota trips, OnDegrade receives a flight-
// recorder dump that still contains the events leading up to the trip
// (the flood's drop_auth records), plus the trip event itself.
func TestDegradationDumpOnQuotaTrip(t *testing.T) {
	var (
		reasons []string
		dumps   [][]byte
	)
	w := newSimWorld(t, sessiond.Config{
		IdleTimeout:      -1,
		UnauthQuotaBurst: 4,
		UnauthQuotaRate:  1,
		OnDegrade: func(reason string, dump []byte) {
			reasons = append(reasons, reason)
			dumps = append(dumps, dump)
		},
	}, lan())
	sess, err := w.d.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	wire := spoofedWire(sess.ID)
	src := netem.Addr{Host: 66, Port: 666}
	for i := 0; i < 16; i++ {
		w.d.HandlePacket(wire, src)
	}
	if len(reasons) != 1 || reasons[0] != "unauth-quota" {
		t.Fatalf("degradation callbacks = %v, want exactly [unauth-quota] (rate limited)", reasons)
	}
	dump := string(dumps[0])
	for _, want := range []string{"reason: unauth-quota", "drop_auth", "quota_blocked"} {
		if !strings.Contains(dump, want) {
			t.Fatalf("dump missing %q:\n%s", want, dump)
		}
	}
	// Rate limiting: an immediate re-trip stays silent, but after the
	// dump interval passes (virtual time), the next trip dumps again.
	w.sched.RunFor(11 * time.Second)
	for i := 0; i < 16; i++ {
		w.d.HandlePacket(wire, src)
	}
	if len(reasons) != 2 {
		t.Fatalf("after dump interval, callbacks = %d, want 2", len(reasons))
	}
}

// TestKeystrokeEchoMeasured drives a real session through the simulated
// network and checks the server-side keystroke→echo pipeline end to end:
// echoes are matched, the Fig. 6 counters move, and the flight recorder
// holds the keystroke/frame_sent/echo event chain.
func TestKeystrokeEchoMeasured(t *testing.T) {
	var echoes int
	w := newSimWorld(t, sessiond.Config{
		NewApp: shellApp,
		OnEcho: func(session uint64, latency, srtt time.Duration) {
			echoes++
			if latency < 0 {
				t.Errorf("negative echo latency %v", latency)
			}
		},
	}, lan())
	sess, err := w.d.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	cl := w.addClient(sess, netem.Addr{Host: 1, Port: 1001})
	w.sched.RunFor(2 * time.Second)
	cl.typeString("hello")
	w.sched.RunFor(3 * time.Second)

	total, le16, leRTT := w.d.Pipeline().EchoStats()
	if total == 0 || echoes == 0 {
		t.Fatalf("no echoes matched (pipeline=%d callback=%d)", total, echoes)
	}
	if le16 > total || leRTT > total {
		t.Fatalf("threshold counters exceed total: le16=%d leRTT=%d total=%d", le16, leRTT, total)
	}
	if h := w.d.Pipeline().Stage(telemetry.StageEcho); h.Count() != total {
		t.Fatalf("echo histogram count %d != echo total %d", h.Count(), total)
	}

	seen := map[telemetry.Code]bool{}
	for _, ev := range w.d.FlightRecorder().Snapshot() {
		seen[ev.Code] = true
	}
	for _, want := range []telemetry.Code{telemetry.EvKeystroke, telemetry.EvFrameSent, telemetry.EvEcho} {
		if !seen[want] {
			t.Fatalf("flight recorder missing %v events (have %v)", want, seen)
		}
	}

	// The stage histograms saw traffic on the sim-exercised stages.
	for _, st := range []telemetry.Stage{telemetry.StageRead, telemetry.StageDemux,
		telemetry.StageVerify, telemetry.StageApply, telemetry.StageTick,
		telemetry.StageSeal, telemetry.StageEgressWait, telemetry.StageWrite} {
		if w.d.Pipeline().Stage(st).Count() == 0 {
			t.Fatalf("stage %v never observed", st)
		}
	}
}

// TestMetricsHandlerServesPrometheus exercises the hand-rolled text
// exposition: well-formed TYPE lines, the Fig. 6 counters, and a labeled
// stage histogram.
func TestMetricsHandlerServesPrometheus(t *testing.T) {
	w := newSimWorld(t, sessiond.Config{NewApp: shellApp}, lan())
	sess, _ := w.d.OpenSession()
	cl := w.addClient(sess, netem.Addr{Host: 1, Port: 1001})
	w.sched.RunFor(2 * time.Second)
	cl.typeString("x")
	w.sched.RunFor(2 * time.Second)

	rec := &fakeResponseWriter{header: make(http.Header)}
	w.d.MetricsHandler().ServeHTTP(rec, nil)
	body := rec.body.String()
	for _, want := range []string{
		"# TYPE sessiond_packets_in counter",
		"# TYPE sessiond_sessions_live gauge",
		"sessiond_echo_total ",
		"sessiond_echo_within_16ms_total ",
		`sessiond_stage_latency_seconds_bucket{stage="verify",le="+Inf"}`,
		`sessiond_read_batch_size_bucket{le="1"}`,
		"sessiond_transport_srtt_seconds{quantile=\"0.5\"}",
		"sessiond_statesync_screen_applies",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q\n----\n%s", want, body)
		}
	}
	if ct := rec.header["Content-Type"][0]; !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
}

// fakeResponseWriter is a minimal http.ResponseWriter (no httptest, to
// keep the test surface identical across environments).
type fakeResponseWriter struct {
	header http.Header
	body   strings.Builder
	code   int
}

func (f *fakeResponseWriter) Header() http.Header         { return f.header }
func (f *fakeResponseWriter) WriteHeader(code int)        { f.code = code }
func (f *fakeResponseWriter) Write(b []byte) (int, error) { return f.body.Write(b) }
