//go:build linux

package main

import (
	"fmt"
	"os"
	"sort"
	"time"
)

// subWindows is how many equal sub-windows the measured window is cut
// into; the server's CPU time and counters are read at every edge.
const subWindows = 10

// failAfter is the echo deadline: a keystroke whose echo is not seen
// within it of its due instant has failed.
const failAfter = time.Second

// settle is how long after the server starts serving the clients wait
// before introducing themselves; the wait is not part of setup_s. A daemon
// "sends" every session's first screen into the void the moment it starts
// serving, and SSP's sender assumes a state sent within RTO + ack delay
// (1.1 s before any RTT sample) was delivered, so a client that connects
// inside that window waits out the rest of it for its first screen. Real
// users connect seconds after the bootstrap line is printed; without the
// pause setup_s would measure that timer, bimodally, not set-up work.
const settle = 1250 * time.Millisecond

// runOpts parameterizes one live run of one workload.
type runOpts struct {
	w        *workload
	seed     int64
	seconds  time.Duration // measured window
	warmup   time.Duration // untimed lead-in
	sessions int           // 0 = the workload's own count
	provider string
	traced   bool
	setups   int // how many times to set up; the last one is measured
	exe      string
}

func (o *runOpts) sessionCount() int {
	if o.sessions > 0 {
		return o.sessions
	}
	return o.w.sessions
}

// liveResult is everything one live run observed, before any metric is
// derived from it.
type liveResult struct {
	provider string
	setupS   []float64

	bounds []time.Duration // sub-window edges, offsets from t0, as actually taken
	cpu    []procCPU       // server CPU at each edge
	snaps  []snapshot      // server counters at each edge
	hwm    int64           // server peak RSS at window end, bytes
	genCPU time.Duration   // load generator CPU over the window

	samples   []echoSample // sorted by echo time
	late      []int64
	attempted int
	unechoed  int

	digest     string
	mismatched int   // sessions whose final screen differs from the reference
	authDrops  int64 // server DropsAuth at the end of the run
}

// runLive measures one workload against a fresh server child: set-up,
// untimed warm-up, a measured window with a counter snapshot at every
// sub-window edge, quiesce, then the correctness check.
func runLive(o runOpts) (*liveResult, error) {
	n := o.sessionCount()
	span := o.warmup + o.seconds
	cfg := childConfig{Workload: o.w.name, Seed: o.seed, Sessions: n, Provider: o.provider, Traced: o.traced}
	res := &liveResult{}

	var srv *serverProc
	var gen *generator
	for i := 0; i < o.setups; i++ {
		start := time.Now()
		var err error
		if srv, err = startServer(o.exe, cfg); err != nil {
			return nil, err
		}
		serving := time.Now()
		if gen, err = newGenerator(o.w, o.seed, srv, span); err != nil {
			srv.stop()
			return nil, err
		}
		built := time.Since(start)
		time.Sleep(time.Until(serving.Add(settle)))
		introduced := time.Now()
		if err = gen.handshake(); err != nil {
			gen.close()
			srv.stop()
			return nil, err
		}
		res.setupS = append(res.setupS, (built + time.Since(introduced)).Seconds())
		if i < o.setups-1 {
			gen.close()
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer srv.stop()
	defer gen.close()
	res.provider = srv.provider
	pid := srv.cmd.Process.Pid

	t0 := time.Now().Add(10 * time.Millisecond)
	ran := make(chan struct{})
	go func() {
		gen.run(t0)
		close(ran)
	}()

	sub := o.seconds / subWindows
	var genCPU0 time.Duration
	for i := 0; i <= subWindows; i++ {
		time.Sleep(time.Until(t0.Add(o.warmup + time.Duration(i)*sub)))
		if i == 0 {
			if err := srv.reset(); err != nil {
				return nil, err
			}
			genCPU0 = selfCPU()
		}
		edge := time.Since(t0)
		cpu, err := readProcCPU(pid)
		if err != nil {
			return nil, err
		}
		snap, err := srv.snap()
		if err != nil {
			return nil, err
		}
		res.bounds = append(res.bounds, edge)
		res.cpu = append(res.cpu, cpu)
		res.snaps = append(res.snaps, snap)
	}
	res.genCPU = selfCPU() - genCPU0
	var err error
	if res.hwm, err = readVmHWM(pid); err != nil {
		return nil, err
	}
	gen.stop.Store(true)
	<-ran

	for _, d := range gen.drivers {
		res.samples = append(res.samples, d.samples...)
		res.late = append(res.late, d.late...)
		res.attempted += d.attempted
		res.unechoed += d.unechoed
	}
	sort.Slice(res.samples, func(i, j int) bool { return res.samples[i].at < res.samples[j].at })

	// Correctness: every client's screen must equal a local replay of the
	// same application, seed and keystrokes, and no datagram may have
	// failed authentication.
	var refs []*reference
	res.digest, refs = o.w.digest(o.seed, span, n)
	for _, s := range gen.sessions {
		ref := refs[s.idx]
		if ref.app.n > s.typed {
			// A closed loop that typed less than the digest covers.
			ref = o.w.newReference(o.seed, s.idx)
		}
		ref.advanceTo(s.typed)
		if frameHash(s.client.ServerState()) != frameHash(ref.emu.Framebuffer()) {
			res.mismatched++
			if res.mismatched <= 3 {
				fmt.Fprintf(os.Stderr, "convergence: session %d (%s) differs from its reference after %d keystrokes (title %q)\n",
					s.idx+1, o.w.cohortOf(s.idx).name, s.typed, s.client.ServerState().Title)
			}
		}
	}
	final, err := srv.snap()
	if err != nil {
		return nil, err
	}
	res.authDrops = final.DropsAuth
	return res, nil
}

// failed counts keystrokes whose echo missed the deadline or never came.
func (r *liveResult) failed() int {
	n := r.unechoed
	for _, s := range r.samples {
		if s.latency > int64(failAfter) {
			n++
		}
	}
	return n
}

// span returns the echo samples whose echo fell between edges i and j of
// the measured window, and how long that stretch was.
func (r *liveResult) span(i, j int) ([]echoSample, time.Duration) {
	lo, hi := int64(r.bounds[i]), int64(r.bounds[j])
	a := sort.Search(len(r.samples), func(k int) bool { return r.samples[k].at >= lo })
	b := sort.Search(len(r.samples), func(k int) bool { return r.samples[k].at >= hi })
	return r.samples[a:b], r.bounds[j] - r.bounds[i]
}

// latenciesMs returns the samples' latencies in milliseconds, sorted.
func latenciesMs(samples []echoSample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.latency) / 1e6
	}
	sort.Float64s(out)
	return out
}

// rates are the four per-keystroke figures of one stretch of the window.
type rates struct {
	p50Ms, cpuUs, wireBytes, perSecond float64
	echoes                             int
}

// ratesOver computes the figures between edges i and j.
func (r *liveResult) ratesOver(i, j int) rates {
	samples, dur := r.span(i, j)
	keys := float64(len(samples))
	cpu := r.cpu[j].total() - r.cpu[i].total()
	a, b := r.snaps[i], r.snaps[j]
	return rates{
		p50Ms:     percentile(latenciesMs(samples), 0.50),
		cpuUs:     ratio(float64(cpu.Microseconds()), keys),
		wireBytes: ratio(float64(b.BytesIn+b.BytesOut-a.BytesIn-a.BytesOut), keys),
		perSecond: keys / dur.Seconds(),
		echoes:    len(samples),
	}
}

// endToEndSummaries derives the end-to-end metrics. Value is the figure
// over the whole measured window; the ten sub-window figures, their median
// and quartiles go into the detail file, where a stall shows as one
// sub-window out of line. The server's CPU time per keystroke rides along
// into the detail file under its per-layer name: the timed window measures
// it anyway, but it is not reported, being too unsteady here to carry a bound.
func (r *liveResult) endToEndSummaries() map[string]summary {
	last := len(r.bounds) - 1
	var p50, cpuPer, bytesPer, rate []float64
	var counts []int
	for i := 0; i < last; i++ {
		w := r.ratesOver(i, i+1)
		counts = append(counts, w.echoes)
		p50, cpuPer = append(p50, w.p50Ms), append(cpuPer, w.cpuUs)
		bytesPer, rate = append(bytesPer, w.wireBytes), append(rate, w.perSecond)
	}
	whole := r.ratesOver(0, last)
	of := func(windows []float64, value float64) summary {
		s := summarize(windows)
		s.Value, s.Samples = value, counts
		return s
	}
	setup := summarize(r.setupS)
	setup.Value = setup.Median
	return map[string]summary{
		"keystroke_echo_p50_ms":       of(p50, whole.p50Ms),
		"server.cpu_us_per_keystroke": of(cpuPer, whole.cpuUs),
		"wire_bytes_per_keystroke":    of(bytesPer, whole.wireBytes),
		"keystrokes_per_s":            of(rate, whole.perSecond),
		"server_rss_mb":               {Value: float64(r.hwm) / (1 << 20)},
		"setup_s":                     setup,
	}
}
