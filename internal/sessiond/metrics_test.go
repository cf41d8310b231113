package sessiond

import (
	"encoding/json"
	"expvar"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/simclock"
	"repro/internal/terminal"
)

// TestScreenStateStats proves the resident screen-state gauges see what
// the sessions actually hold: grid rows shared with sender snapshots after
// a scroll flood, and interned graphemes from unicode output.
func TestScreenStateStats(t *testing.T) {
	sched := simclock.NewScheduler(time.Date(2012, 4, 1, 0, 0, 0, 0, time.UTC))

	d, err := New(Config{Clock: sched, IdleTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := d.OpenSession(); err != nil {
			t.Fatal(err)
		}
	}
	wake := d.Pump(sched)
	var lines strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&lines, "flood line %d with cafe\u0301 de\u0301ja\u0300 vu\r\n", i) // combining-built é à
	}
	d.reg.each(func(s *Session) {
		s.mu.Lock()
		// A sender snapshots only for a peer; nobody connects in this test.
		s.srv.Transport().Connection().SetRemoteAddr(netem.Addr{Host: 1, Port: uint16(s.ID)})
		s.srv.HostOutput([]byte(lines.String()))
		s.rearmLocked(sched.Now())
		s.mu.Unlock()
	})
	wake()
	sched.RunFor(2 * time.Second) // let sender ticks snapshot the screens
	st := d.ScreenStateStats()
	if st.Sessions != 3 {
		t.Fatalf("sampled %d sessions, want 3", st.Sessions)
	}
	if st.ScreenRows != 3*24 {
		t.Fatalf("screen rows = %d, want %d", st.ScreenRows, 3*24)
	}
	if st.SharedScreenRows == 0 {
		t.Fatal("sender snapshots exist but no grid rows register as shared")
	}
	if terminal.InternedGraphemes() == 0 {
		t.Fatal("unicode output interned no graphemes")
	}

	// The expvar surface renders the same numbers.
	d.PublishExpvar("sessiond_test")
	v := expvar.Get("sessiond_test.screen_state")
	if v == nil {
		t.Fatal("screen_state gauge not published")
	}
	var got ScreenStateStats
	if err := json.Unmarshal([]byte(v.String()), &got); err != nil {
		t.Fatalf("screen_state gauge is not JSON: %v", err)
	}
	if got.Sessions != 3 || got.ScreenRows != st.ScreenRows || got.SharedScreenRows != st.SharedScreenRows {
		t.Fatalf("published gauge = %+v", got)
	}
	if g := expvar.Get("sessiond_test.interned_graphemes"); g == nil || g.String() == "0" {
		t.Fatalf("interned_graphemes gauge = %v", g)
	}
}

// TestDegradationMetricsPublished pins the fault-tolerance counters to
// the expvar surface: every gauge the graceful-degradation machinery
// drives (journal retry/suspension, unauth quota, shed policy, transient
// read errors) must be published and must render the live values.
func TestDegradationMetricsPublished(t *testing.T) {
	sched := simclock.NewScheduler(time.Date(2012, 4, 1, 0, 0, 0, 0, time.UTC))
	d, err := New(Config{Clock: sched, IdleTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	d.metrics.JournalFlushFailures.Add(3)
	d.metrics.JournalSuspended.Set(1)
	d.metrics.JournalRetryBackoffMs.Set(250)
	d.metrics.DropsUnauthQuota.Add(7)
	d.metrics.ShedEvents.Add(2)
	d.metrics.Shedding.Set(1)
	d.metrics.ReadErrorsTransient.Add(5)
	d.PublishExpvar("sessiond_degradation_test")
	for name, want := range map[string]string{
		"journal_flush_failures":   "3",
		"journal_suspended":        "1",
		"journal_retry_backoff_ms": "250",
		"drops_unauth_quota":       "7",
		"shed_events":              "2",
		"shedding":                 "1",
		"read_errors_transient":    "5",
	} {
		v := expvar.Get("sessiond_degradation_test." + name)
		if v == nil {
			t.Errorf("%s not published", name)
			continue
		}
		if v.String() != want {
			t.Errorf("%s = %s, want %s", name, v.String(), want)
		}
	}
}

// TestMetricRowsUnique checks the metrics table: every row publishes
// somewhere, no Prometheus family or expvar name is declared twice, and each
// family renders exactly one TYPE line.
func TestMetricRowsUnique(t *testing.T) {
	d, err := New(Config{Clock: simclock.NewScheduler(time.Date(2012, 4, 1, 0, 0, 0, 0, time.UTC)), IdleTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	body := string(d.appendPrometheus(nil))
	families, evNames := map[string]bool{}, map[string]bool{}
	for _, r := range metrics {
		if r.prom == "" && r.ev == "" {
			t.Errorf("a %s row publishes nothing", promTypes[r.kind])
		}
		if key, fields, composite := strings.Cut(r.ev, "."); composite {
			for _, f := range strings.Split(fields, ",") {
				if evNames[key+"."+f] {
					t.Errorf("expvar field %s.%s declared twice", key, f)
				}
				evNames[key+"."+f] = true
			}
		} else if r.ev != "" {
			if evNames[r.ev] {
				t.Errorf("expvar key %s declared twice", r.ev)
			}
			evNames[r.ev] = true
		}
		if r.prom == "" {
			continue
		}
		family, _, _ := strings.Cut(r.prom, "{")
		if families[family] {
			t.Errorf("Prometheus family %s declared twice", family)
		}
		families[family] = true
		if n := strings.Count(body, "# TYPE sessiond_"+family+" "+promTypes[r.kind]+"\n"); n != 1 {
			t.Errorf("family %s renders %d TYPE %s lines, want 1", family, n, promTypes[r.kind])
		}
	}
	if n := strings.Count(body, "# TYPE "); n != len(families) {
		t.Errorf("exposition has %d TYPE lines for %d families", n, len(families))
	}
}
