package sessiond_test

import (
	"bytes"
	"expvar"
	"fmt"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/network"
	"repro/internal/sessiond"
	"repro/internal/udpbatch"
)

// The two files under testdata/ pin, byte for byte, what /metrics and
// /debug/vars serve for the fixture below: scrapers, dashboards and
// `mosh-server -debug` users read these names, kinds and layouts.
// MOSH_WRITE_METRICS_GOLDEN=1 rewrites them instead.
const (
	goldenProm   = "testdata/metrics.prom"
	goldenExpvar = "testdata/metrics.expvar.json"
)

// goldenPrefix is the expvar prefix the fixture publishes under.
const goldenPrefix = "sessiond_golden"

// goldenWorld is one Scheduler-driven daemon in a fixed state: three
// sessions with keystrokes echoed, one roam, one authentication failure from
// a source whose quota it exhausts, read batches of 1 to 5 datagrams, and a
// journal flushed under a temporary state directory.
func goldenWorld(t *testing.T) *simWorld {
	w := newSimWorld(t, sessiond.Config{
		NewApp:           shellApp,
		IdleTimeout:      -1,
		StateDir:         t.TempDir(),
		UnauthQuotaBurst: 1,
		UnauthQuotaRate:  1,
	}, lan())
	t.Cleanup(w.d.Close)
	var (
		sessions []*sessiond.Session
		clients  []*simClient
	)
	for i := 0; i < 3; i++ {
		sess, err := w.d.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, sess)
		clients = append(clients, w.addClient(sess, netem.Addr{Host: uint32(i + 1), Port: 1000}))
	}
	w.sched.RunFor(time.Second)
	for i, cl := range clients {
		cl.typeString(fmt.Sprintf("key%d", i))
	}
	w.sched.RunFor(2 * time.Second)
	clients[0].roamTo(netem.Addr{Host: 1, Port: 2000})
	clients[0].typeString("r")
	w.sched.RunFor(2 * time.Second)

	// One forgery charged to its source; the next two are refused by the
	// exhausted quota before the AEAD runs.
	forged, src := spoofedWire(sessions[1].ID), netem.Addr{Host: 66, Port: 666}
	for i := 0; i < 3; i++ {
		w.d.HandlePacket(forged, src)
	}
	// Reads of 1 to 5 datagrams, each naming no live session.
	for n := 1; n <= 5; n++ {
		msgs := make([]udpbatch.Message, n)
		for i := range msgs {
			msgs[i] = udpbatch.Message{Buf: network.AppendEnvelope(nil, 1<<40), Addr: src}
		}
		w.d.HandleBatch(msgs)
	}
	if err := w.d.FlushJournal(); err != nil {
		t.Fatal(err)
	}

	m := w.d.Metrics()
	if total, _, _ := w.d.Pipeline().EchoStats(); total == 0 || m.RoamingEvents.Value() != 1 ||
		m.DropsAuth.Value() != 1 || m.DropsUnauthQuota.Value() != 2 || m.JournalFlushes.Value() == 0 {
		t.Fatalf("fixture not in its state: echoes %d, roams %d, auth drops %d, quota drops %d, flushes %d",
			total, m.RoamingEvents.Value(), m.DropsAuth.Value(), m.DropsUnauthQuota.Value(), m.JournalFlushes.Value())
	}
	return w
}

// processWide matches the series whose values are the process's, not the
// daemon's (interned graphemes and statesync's apply counters): other tests
// in the binary move them.
var (
	processWideProm   = regexp.MustCompile(`(?m)^(sessiond_interned_graphemes|sessiond_statesync_[a-z_]+) \d+$`)
	processWideExpvar = regexp.MustCompile(`("sessiond_golden\.interned_graphemes": )\d+|("(?:screen|stream)(?:_bytes)?":)\d+`)
)

func maskProm(b []byte) []byte { return processWideProm.ReplaceAll(b, []byte("$1 V")) }

func maskExpvar(b []byte) []byte { return processWideExpvar.ReplaceAll(b, []byte("${1}${2}V")) }

// renderExpvar renders every key under prefix as /debug/vars does: sorted,
// one "name": value line each.
func renderExpvar(prefix string) []byte {
	var b bytes.Buffer
	b.WriteString("{\n")
	first := true
	expvar.Do(func(kv expvar.KeyValue) {
		if !strings.HasPrefix(kv.Key, prefix+".") {
			return
		}
		if !first {
			b.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(&b, "%q: %s", kv.Key, kv.Value)
	})
	b.WriteString("\n}\n")
	return b.Bytes()
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if os.Getenv("MOSH_WRITE_METRICS_GOLDEN") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs at line %d:\n got %q\nwant %q", path, i+1, g, w)
		}
	}
}

// TestMetricsSurfacesGolden pins both metric surfaces of a daemon in a
// fixed state byte for byte, process-wide values masked as V.
func TestMetricsSurfacesGolden(t *testing.T) {
	w := goldenWorld(t)
	rec := &fakeResponseWriter{header: make(http.Header)}
	w.d.MetricsHandler().ServeHTTP(rec, nil)
	checkGolden(t, goldenProm, maskProm([]byte(rec.body.String())))

	w.d.PublishExpvar(goldenPrefix)
	checkGolden(t, goldenExpvar, maskExpvar(renderExpvar(goldenPrefix)))
}
