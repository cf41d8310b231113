package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/simclock"
	"repro/internal/sspcrypto"
	"repro/internal/statesync"
	"repro/internal/trace"
	"repro/internal/transport"
)

// SweepPoint is one measurement of Figure 3: the mean protocol-induced
// delay on host screen updates for a given collection interval, with the
// frame interval pinned at 250 ms as in the paper.
type SweepPoint struct {
	Interval  time.Duration
	MeanDelay time.Duration
	Writes    int
}

// hostWrite is one timed application write extracted from a trace.
type hostWrite struct {
	at   time.Duration
	size int
}

// extractWrites converts a trace's prerecorded responses into a write
// stream. Larger responses are split into a few chunks a handful of
// milliseconds apart, reflecting how real applications clump their writes
// (the behavior the collection interval exists to absorb).
//
// The synthetic traces compress idle time (as the paper's replay did);
// for this figure the *absolute* spacing of writes matters — the
// collection-interval tradeoff is visible only on writes that do not
// already share a frame with their neighbors — so the timeline is
// stretched back out to real-usage density.
func extractWrites(tr *trace.Trace, seed int64) []hostWrite {
	const stretch = 3
	rng := rand.New(rand.NewSource(seed))
	var writes []hostWrite
	for _, st := range tr.Steps {
		if len(st.Response) == 0 {
			continue
		}
		at := stretch * (st.At + st.ResponseDelay)
		if len(st.Response) <= 20 {
			writes = append(writes, hostWrite{at: at, size: len(st.Response)})
			continue
		}
		chunks := 2 + rng.Intn(3)
		per := len(st.Response) / chunks
		for c := 0; c < chunks; c++ {
			writes = append(writes, hostWrite{at: at, size: per})
			at += time.Duration(2+rng.Intn(9)) * time.Millisecond
		}
	}
	return writes
}

// runCollection replays the write stream through a real SSP sender with
// the given collection interval and measures, for every write, the delay
// between the application's write and the frame that first carried it.
func runCollection(writes []hostWrite, collection time.Duration) SweepPoint {
	sched := simclock.NewScheduler(benchEpoch)
	nw := netem.NewNetwork(sched)
	// A fast, clean path: the delay measured is protocol-induced only.
	path := netem.NewPath(nw, netem.LinkParams{Delay: time.Millisecond}, 1)
	key := sspcrypto.Key{3}

	timing := transport.DefaultTiming()
	timing.SendIntervalMin = 250 * time.Millisecond // paper: frame interval 250 ms
	timing.SendIntervalMax = 250 * time.Millisecond
	timing.CollectionInterval = collection

	srvAddr := netem.Addr{Host: 2, Port: 1}
	cliAddr := netem.Addr{Host: 1, Port: 1}

	type pendingWrite struct {
		at time.Time
	}
	var pending []pendingWrite
	var totalDelay time.Duration
	measured := 0

	var srv *transport.Transport[*statesync.UserStream, *statesync.UserStream]
	lastNum := uint64(0)
	var err error
	srv, err = transport.New(transport.Config[*statesync.UserStream, *statesync.UserStream]{
		Direction: sspcrypto.ToClient, Key: key, Clock: sched, Timing: &timing,
		LocalInitial: statesync.NewUserStream(), RemoteInitial: statesync.NewUserStream(),
		Emit: func(w []byte) {
			if num := srv.Sender().LastSentNum(); num > lastNum {
				lastNum = num
				now := sched.Now()
				for _, p := range pending {
					totalDelay += now.Sub(p.at)
					measured++
				}
				pending = pending[:0]
			}
			if dst, ok := srv.Connection().RemoteAddr(); ok {
				path.Down.Send(netem.Packet{Src: srvAddr, Dst: dst, Payload: w})
			}
		},
	})
	if err != nil {
		panic(err)
	}
	cli, err := transport.New(transport.Config[*statesync.UserStream, *statesync.UserStream]{
		Direction: sspcrypto.ToServer, Key: key, Clock: sched, Timing: &timing,
		LocalInitial: statesync.NewUserStream(), RemoteInitial: statesync.NewUserStream(),
		Emit: func(w []byte) {
			path.Up.Send(netem.Packet{Src: cliAddr, Dst: srvAddr, Payload: w})
		},
	})
	if err != nil {
		panic(err)
	}
	wakeSrv := core.Pump(sched, srv)
	wakeCli := core.Pump(sched, cli)
	// Receiving can establish new deadlines (delayed acks), so the pump
	// timer must be re-armed after every arrival.
	nw.Attach(srvAddr, func(p netem.Packet) { srv.Receive(p.Payload, p.Src); wakeSrv() })
	nw.Attach(cliAddr, func(p netem.Packet) { cli.Receive(p.Payload, p.Src); wakeCli() })
	cli.Sender().ForceAckSoon()

	sched.RunFor(2 * time.Second)
	start := sched.Now()
	payload := make([]byte, 64)
	for _, w := range writes {
		w := w
		sched.At(start.Add(w.at), func() {
			n := w.size
			if n > len(payload) {
				n = len(payload)
			}
			srv.CurrentState().PushBytes(payload[:n])
			pending = append(pending, pendingWrite{at: sched.Now()})
			wakeSrv()
		})
	}
	var horizon time.Duration
	if len(writes) > 0 {
		horizon = writes[len(writes)-1].at
	}
	sched.RunUntil(start.Add(horizon + 10*time.Second))

	pt := SweepPoint{Interval: collection, Writes: measured}
	if measured > 0 {
		pt.MeanDelay = totalDelay / time.Duration(measured)
	}
	return pt
}

// Sweep is Figure 3: the collection intervals it sweeps (the frame
// interval pinned at 250 ms). The paper's minimum-delay interval is in the
// Paper table under its Name.
type Sweep struct {
	Name      string // mosh-bench's -exp name
	Title     string
	Intervals []time.Duration
}

// SweepResult is one point per swept interval, in the sweep's order.
type SweepResult []SweepPoint

// Figure3 sweeps log-spaced 0.1–100 ms, as on the paper's x-axis.
var Figure3 = Sweep{
	Name:  "fig3",
	Title: "Figure 3: mean protocol-induced delay vs collection interval (frame interval 250 ms)",
	Intervals: []time.Duration{
		100 * time.Microsecond,
		300 * time.Microsecond,
		time.Millisecond,
		2 * time.Millisecond,
		4 * time.Millisecond,
		8 * time.Millisecond,
		16 * time.Millisecond,
		32 * time.Millisecond,
		64 * time.Millisecond,
		100 * time.Millisecond,
	},
}

// Run measures the mean protocol-induced delay at each interval. Each of
// the six traces is replayed as its own session (sessions are independent
// in the paper's corpus) and the means are write-weighted across sessions.
// Trace i's write chunking is seeded cfg.Seed+i, so the seed moves it too.
func (s Sweep) Run(cfg Config) SweepResult {
	traces := cfg.traces()
	perTrace := make([][]hostWrite, len(traces))
	for i, tr := range traces {
		perTrace[i] = extractWrites(tr, cfg.Seed+int64(i))
	}
	pts := make(SweepResult, 0, len(s.Intervals))
	for _, iv := range s.Intervals {
		var total time.Duration
		n := 0
		for _, writes := range perTrace {
			pt := runCollection(writes, iv)
			total += pt.MeanDelay * time.Duration(pt.Writes)
			n += pt.Writes
		}
		p := SweepPoint{Interval: iv, Writes: n}
		if n > 0 {
			p.MeanDelay = total / time.Duration(n)
		}
		pts = append(pts, p)
	}
	return pts
}

// Format renders the sweep, its minimum and the paper's, and the fidelity
// line.
func (s Sweep) Format(pts SweepResult) string {
	var b strings.Builder
	b.WriteString(s.Title + "\n")
	fmt.Fprintf(&b, "%-14s %12s %8s\n", "interval", "mean delay", "writes")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-14s %12s %8d\n", p.Interval, p.MeanDelay.Round(100*time.Microsecond), p.Writes)
	}
	paper, _ := paperValue(s.Name, "best")
	fmt.Fprintf(&b, "\nminimum at %v (paper: %s)\n", pts.Best(), fmtDur(seconds(paper)))
	b.WriteString(fidelity(s.Name, pts.Figures()))
	return b.String()
}

// Best returns the sweep's minimum-delay collection interval.
func (pts SweepResult) Best() time.Duration {
	if len(pts) == 0 {
		return 0
	}
	best := pts[0]
	for _, p := range pts[1:] {
		if p.MeanDelay < best.MeanDelay {
			best = p
		}
	}
	return best.Interval
}

// Figures lists each interval's mean delay ("delay.8ms") and write count
// ("writes.8ms"), then the minimum-delay interval ("best").
func (pts SweepResult) Figures() []Figure {
	var fs []Figure
	for _, p := range pts {
		iv := strings.ReplaceAll(p.Interval.String(), "µ", "u")
		fs = append(fs, Figure{"delay." + iv, p.MeanDelay.Seconds()}, Figure{"writes." + iv, float64(p.Writes)})
	}
	return append(fs, Figure{"best", pts.Best().Seconds()})
}
