//go:build linux

package main

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/overlay"
	"repro/internal/simclock"
	"repro/internal/terminal"
)

// TestMain lets the test binary play the server child: the smoke run
// spawns os.Executable() with "-server", exactly as the benchmark does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-server" {
		if err := serverMain(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark server:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// The marker title must survive both hops of the real path: the server's
// emulator interpreting the application's output, and the client's
// emulator interpreting the frame diffed from it.
func TestMarkerTitleRoundTrip(t *testing.T) {
	app := &markerApp{inner: host.NewShell(1)}
	server := terminal.NewEmulator(80, 24)
	client := terminal.NewEmulator(80, 24)
	server.Write(app.Start())
	if got := markerCount(server.Framebuffer().Title); got != 0 {
		t.Fatalf("marker before any keystroke: %d", got)
	}
	shown := server.Framebuffer().Clone()
	client.Write(terminal.NewFrame(false, nil, shown))
	for n := 1; n <= 45; n++ {
		key := []byte{'a'}
		if n%40 == 0 {
			key = []byte{'\r'}
		}
		out, delay := app.Input(key)
		if delay != 0 {
			t.Fatalf("keystroke %d: think time %v, want 0", n, delay)
		}
		server.Write(out)
		if got := markerCount(server.Framebuffer().Title); got != n {
			t.Fatalf("server title after keystroke %d reads %d", n, got)
		}
		client.Write(terminal.NewFrame(true, shown, server.Framebuffer()))
		shown = server.Framebuffer().Clone()
		if got := markerCount(client.Framebuffer().Title); got != n {
			t.Fatalf("client title after keystroke %d reads %d", n, got)
		}
	}
	if frameHash(client.Framebuffer()) != frameHash(server.Framebuffer()) {
		t.Fatal("client and server screens hash differently after the round trip")
	}
	for _, title := range []string{"", "k", "kx", "xterm", "12"} {
		if got := markerCount(title); got != 0 {
			t.Errorf("markerCount(%q) = %d, want 0", title, got)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4):
// the acceptance check computes spreads with it.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 3.5, 5.25},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{7, 7, 7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	s := summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100})
	if s.Median != 5.5 || s.Q1 != 2.75 || s.Q3 != 8.25 {
		t.Errorf("summarize: median %v q1 %v q3 %v; one outlying sub-window must not move them", s.Median, s.Q1, s.Q3)
	}
	if one := summarize([]float64{4}); one.Median != 4 || one.Q1 != 4 || one.Q3 != 4 {
		t.Errorf("summarize of one value: %+v", one)
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := percentile(sorted, 0.5); p != 5 {
		t.Errorf("p50 = %v, want 5", p)
	}
	if p := percentile(sorted, 0.95); p != 10 {
		t.Errorf("p95 = %v, want 10", p)
	}
	if p := percentile(nil, 0.5); p != 0 {
		t.Errorf("p50 of nothing = %v", p)
	}
}

// An open-loop keystroke is timed from the instant it was due, not from
// when the generator got round to typing it; how late the generator ran is
// accounted separately.
func TestOpenLoopDueTimeAndLateness(t *testing.T) {
	w := findWorkload("typing")
	g := &generator{w: w}
	d := &driver{g: g}
	client, err := core.NewClient(core.ClientConfig{
		Clock: simclock.Real{}, Width: w.w, Height: w.h,
		Predictions: overlay.Never, Emit: func([]byte) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := &session{client: client, drv: d, sched: []keyEvent{
		{due: 10 * time.Millisecond, data: []byte("a")},
		{due: 20 * time.Millisecond, data: []byte("b")},
		{due: 30 * time.Millisecond, data: []byte("c")},
	}}
	d.remaining = len(s.sched)
	d.sessions = []*session{s}
	heap.Push(&d.timers, s)
	g.sessions = d.sessions

	t0 := time.Now()
	// Before the run starts nothing is typed, whatever the clock says.
	s.service(t0.Add(time.Hour))
	if s.typed != 0 {
		t.Fatalf("typed %d keystrokes before the run started", s.typed)
	}
	g.t0 = t0
	// The generator wakes 25 ms in: two keystrokes are due, 15 and 5 ms ago.
	s.service(t0.Add(25 * time.Millisecond))
	if s.typed != 2 || d.remaining != 1 || d.unechoed != 2 || d.attempted != 2 {
		t.Fatalf("typed %d remaining %d unechoed %d attempted %d", s.typed, d.remaining, d.unechoed, d.attempted)
	}
	if len(d.late) != 2 || d.late[0] != int64(15*time.Millisecond) || d.late[1] != int64(5*time.Millisecond) {
		t.Fatalf("lateness %v, want [15ms 5ms]", d.late)
	}
	if !s.at.Equal(t0.Add(30*time.Millisecond)) && s.at.After(t0.Add(30*time.Millisecond)) {
		t.Fatalf("next wake-up %v is after the third keystroke's due instant", s.at.Sub(t0))
	}
	// The echo of keystroke 2 arrives 40 ms in and covers keystroke 1 too:
	// latencies run from the due instants, 30 and 20 ms.
	s.echo(2, t0.Add(40*time.Millisecond))
	if len(d.samples) != 2 || d.unechoed != 0 {
		t.Fatalf("samples %v unechoed %d", d.samples, d.unechoed)
	}
	if d.samples[0].latency != int64(30*time.Millisecond) || d.samples[1].latency != int64(20*time.Millisecond) {
		t.Fatalf("latencies %v, want 30ms and 20ms", d.samples)
	}
	if d.samples[0].at != int64(40*time.Millisecond) {
		t.Fatalf("echo instant %v, want 40ms after t0", time.Duration(d.samples[0].at))
	}
	// A stale or repeated marker changes nothing.
	s.echo(2, t0.Add(50*time.Millisecond))
	s.echo(1, t0.Add(50*time.Millisecond))
	if len(d.samples) != 2 {
		t.Fatalf("a repeated marker produced samples: %v", d.samples)
	}
	// A sample slower than the deadline counts as failed; so does a
	// keystroke that is never echoed.
	r := &liveResult{samples: []echoSample{{latency: int64(failAfter) + 1}, {latency: int64(failAfter)}}, unechoed: 3}
	if got := r.failed(); got != 4 {
		t.Fatalf("failed() = %d, want 4", got)
	}
}

func TestParseProc(t *testing.T) {
	// The command field may contain spaces and parentheses.
	stat := "4242 (my (odd) proc) S 1 4242 4242 0 -1 4194560 1500 0 2 0 1234 567 0 0 20 0 9 0 100 1000000 250 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n"
	cpu, err := parseProcStat([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if cpu.user != 12340*time.Millisecond || cpu.sys != 5670*time.Millisecond || cpu.total() != 18010*time.Millisecond {
		t.Fatalf("parsed %+v", cpu)
	}
	for _, bad := range []string{"", "1 (x", "1 (x) S 1 2 3", "1 (x) S 1 2 3 4 5 6 7 8 9 10 eleven 12 13"} {
		if _, err := parseProcStat([]byte(bad)); err == nil {
			t.Errorf("parseProcStat(%q) succeeded", bad)
		}
	}
	status := "Name:\tbenchmark\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n"
	hwm, err := parseVmHWM([]byte(status))
	if err != nil || hwm != 20<<20 {
		t.Fatalf("VmHWM %d, %v", hwm, err)
	}
	if _, err := parseVmHWM([]byte("Name:\tx\n")); err == nil {
		t.Error("parseVmHWM without a VmHWM line succeeded")
	}
	// The live files parse too.
	if _, err := readProcCPU(os.Getpid()); err != nil {
		t.Errorf("own /proc stat: %v", err)
	}
	if hwm, err := readVmHWM(os.Getpid()); err != nil || hwm <= 0 {
		t.Errorf("own VmHWM: %d, %v", hwm, err)
	}
}

// benchmarkJSON is the declaration at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json and the tables in this package declare the same thing.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the committed digests are for %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q %q, defined %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	same := func(kind string, declared, defined []metricDef) {
		if len(declared) != len(defined) {
			t.Errorf("%s: %d declared, %d defined", kind, len(declared), len(defined))
			return
		}
		for i := range declared {
			if declared[i] != defined[i] {
				t.Errorf("%s %d: declared %+v, defined %+v", kind, i, declared[i], defined[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	var df digestFile
	if err := json.Unmarshal(committedDigests, &df); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if df.Digests[w.name] == "" {
			t.Errorf("digests.json has no digest for %s", w.name)
		}
	}
}

// The digest depends on the seed and on nothing else.
func TestDigestDeterministic(t *testing.T) {
	w := findWorkload("repaint")
	a, _ := w.digest(7, 3*time.Second, 8)
	b, refs := w.digest(7, 3*time.Second, 8)
	c, _ := w.digest(8, 3*time.Second, 8)
	if a != b {
		t.Error("the same seed gave two digests")
	}
	if a == c {
		t.Error("two seeds gave the same digest")
	}
	if len(refs) != 8 || refs[0].app.n == 0 {
		t.Errorf("digest returned %d references, the first at keystroke %d", len(refs), refs[0].app.n)
	}
}

// checkNames asserts that metrics holds exactly the declared names, each
// once (a map cannot hold one twice) and with its declared unit.
func checkNames(t *testing.T, kind string, declared []metricDef, metrics map[string]value) {
	t.Helper()
	for _, m := range declared {
		v, ok := metrics[m.Name]
		if !ok {
			t.Errorf("%s metric %s was not emitted", kind, m.Name)
			continue
		}
		if v.Unit != m.Unit {
			t.Errorf("%s metric %s emitted with unit %q, declared %q", kind, m.Name, v.Unit, m.Unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s metric %s = %v", kind, m.Name, v.Value)
		}
	}
	if len(metrics) != len(declared) {
		t.Errorf("%s: %d metrics emitted, %d declared", kind, len(metrics), len(declared))
	}
}

// The smoke run drives every workload end to end at 16 sessions — a timed
// run and a traced run against a real server child on loopback UDP — and
// checks that every declared metric comes out by name with its unit and
// that every client converges to its reference screen.
func TestSmoke(t *testing.T) {
	probe, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("loopback UDP cannot bind here: %v", err)
	}
	probe.Close()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	b := readBenchmarkJSON(t)
	outDir := t.TempDir()
	// Live runs mostly wait (settling, warm-up, the window itself), so all
	// eight run side by side, whatever -parallel says.
	var wg sync.WaitGroup
	run := func(name string, f func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}()
	}
	for i := range workloads {
		w := workloads[i] // a copy: the smoke run shrinks the ladder
		w.ladderSessions, w.ladderKeys = 2, 8
		o := runOpts{
			w: &w, seed: 3, seconds: time.Second, warmup: 200 * time.Millisecond,
			sessions: 16, provider: "auto", setups: 1, exe: exe,
		}
		run(w.name+" timed", func() error {
			timed, err := runTimed(o)
			if err != nil {
				return err
			}
			if !timed.Correct {
				t.Errorf("%s timed: the convergence check failed", w.name)
			}
			if timed.Attempted < 16 {
				t.Errorf("%s timed: attempted %d keystrokes", w.name, timed.Attempted)
			}
			checkNames(t, w.name+" end_to_end", b.EndToEnd, timed.Metrics)
			return nil
		})
		run(w.name+" traced", func() error {
			o := o
			o.seconds = 2 * time.Second // a traced run spends a quarter of it per live window
			traced, err := runTraced(o, outDir)
			if err != nil {
				return err
			}
			if !traced.Correct {
				t.Errorf("%s traced: the convergence check failed", w.name)
			}
			checkNames(t, w.name+" per_layer", b.PerLayer, traced.Metrics)
			if len(traced.Budget) == 0 || traced.Model == nil {
				t.Errorf("%s traced: no budget table or model reconciliation row", w.name)
			}
			_, err = os.Stat(outDir + "/trace-" + w.name + ".json")
			return err
		})
	}
	wg.Wait()
}
