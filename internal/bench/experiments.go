package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/overlay"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Config sizes an experiment run. The full paper-scale workload is six
// users at ~1664 keystrokes each; tests use smaller values.
type Config struct {
	// KeystrokesPerUser sizes each of the six traces (0 = paper scale).
	KeystrokesPerUser int
	// Seed makes the whole experiment reproducible.
	Seed int64
}

func (c Config) keys() int {
	if c.KeystrokesPerUser == 0 {
		return 1664
	}
	return c.KeystrokesPerUser
}

func (c Config) traces() []*trace.Trace { return trace.SixUsers(c.Seed+1, c.keys()) }

// ArmResult is one arm (Mosh or SSH) of a comparison.
type ArmResult struct {
	Name    string
	Stats   Stats
	Samples []Sample
}

// Row is one of the paper's §4 Mosh-vs-SSH comparisons: the path both
// arms share and each arm's options. The paper's figures for it are in
// the Paper table under its Name.
type Row struct {
	Name  string // mosh-bench's -exp name
	Title string
	Link  netem.LinkParams
	Mosh  MoshOptions
	SSH   SSHOptions
}

// Rows is the paper's §4 comparison table, in the order it presents them.
var Rows = []Row{{
	Name:  "fig2",
	Title: "Figure 2: keystroke response time, Sprint EV-DO (3G)",
	Link:  netem.EVDO(),
	Mosh:  MoshOptions{Predictions: overlay.Adaptive},
}, {
	// One concurrent TCP download fills the bottleneck buffer.
	Name:  "lte",
	Title: "Verizon LTE with one concurrent TCP download",
	Link:  netem.LTE(),
	Mosh:  MoshOptions{Predictions: overlay.Adaptive, BulkDownload: true},
	SSH:   SSHOptions{BulkDownload: true},
}, {
	Name:  "singapore",
	Title: "MIT–Singapore Internet path (Amazon EC2)",
	Link:  netem.Transoceanic(),
	Mosh:  MoshOptions{Predictions: overlay.Adaptive},
}, {
	// Predictions off isolates SSP.
	Name:  "loss",
	Title: "netem router: 100 ms RTT, 29% loss each way (predictions off)",
	Link:  netem.LossyNetem(),
	Mosh:  MoshOptions{Predictions: overlay.Never},
}}

// Comparison is one row's two-arm result.
type Comparison struct {
	Row  Row
	SSH  ArmResult
	Mosh ArmResult
	// Mispredicted is the fraction of Mosh keystrokes whose displayed
	// prediction proved wrong.
	Mispredicted float64
}

// Run replays all six traces through both arms on the row's path.
func (r Row) Run(cfg Config) Comparison {
	traces := cfg.traces()
	var moshSamples, sshSamples []Sample
	mispred, inputs := 0, 0
	for i, tr := range traces {
		mr := RunMoshTrace(tr, r.Link, cfg.Seed+int64(i)*7+1, r.Mosh)
		moshSamples = append(moshSamples, mr.Samples...)
		mispred += mr.Mispredicted
		inputs += len(tr.Steps)
		sshSamples = append(sshSamples, RunSSHTrace(tr, r.Link, cfg.Seed+int64(i)*7+1, r.SSH)...)
	}
	c := Comparison{
		Row:  r,
		SSH:  ArmResult{Name: "SSH", Stats: Summarize(sshSamples), Samples: sshSamples},
		Mosh: ArmResult{Name: "Mosh", Stats: Summarize(moshSamples), Samples: moshSamples},
	}
	if inputs > 0 {
		c.Mispredicted = float64(mispred) / float64(inputs)
	}
	return c
}

// FormatPaper renders the row's published figures from the Paper table in
// TableRow's columns, "—" marking one the paper does not publish.
func (r Row) FormatPaper() string {
	line := func(name, arm string) string {
		cols := []any{name}
		for _, f := range []string{"median", "mean", "stddev"} {
			if v, ok := paperValue(r.Name, arm+"."+f); ok {
				cols = append(cols, fmtDur(seconds(v)))
			} else {
				cols = append(cols, "—")
			}
		}
		return fmt.Sprintf("%-24s %10s %10s %10s", cols...)
	}
	s := line("paper SSH", "ssh") + "\n" + line("paper Mosh", "mosh")
	if instant, ok := paperValue(r.Name, "mosh.instant"); ok {
		repaired, _ := paperValue(r.Name, "mosh.repaired")
		s += fmt.Sprintf("   (instant=%.0f%%, repaired=%.1f%%)", instant*100, repaired*100)
	}
	return s + "\n"
}

// Figures lists the comparison's measured figures: each arm's statistics
// under "ssh." and "mosh.", then the Mosh arm's repaired fraction.
func (c Comparison) Figures() []Figure {
	var fs []Figure
	for _, arm := range []ArmResult{c.SSH, c.Mosh} {
		fs = append(fs, arm.Stats.figures(strings.ToLower(arm.Name)+".")...)
	}
	return append(fs, Figure{"mosh.repaired", c.Mispredicted})
}

// Ablation is one design choice the paper argues for, swept over a few
// values on one path.
type Ablation struct {
	Title  string
	Link   netem.LinkParams
	Points []AblationPoint
}

// AblationPoint is one swept value: the MoshOptions a trace replay runs
// with or, for the frame cap, the Timing of a terminal flood.
type AblationPoint struct {
	Label string
	Mosh  MoshOptions
	// Flood, when true, runs the point as a terminal flood with Mosh.Timing.
	Flood bool
}

// floodSpan is how long the frame-cap ablation floods the terminal.
const floodSpan = 10 * time.Second

// Ablations are the design choices the paper argues for: the prediction
// display policy, the echo-ack timeout, SSP's RTO floor, the frame-rate
// cap and the delayed-ack interval.
var Ablations = []Ablation{{
	Title: "prediction display policy (EV-DO)",
	Link:  netem.EVDO(),
	Points: points("mosh/", func(p overlay.DisplayPreference) AblationPoint {
		return AblationPoint{Mosh: MoshOptions{Predictions: p}}
	}, overlay.Adaptive, overlay.Always, overlay.Never),
}, {
	Title: "server-side echo ack timeout (EV-DO, adaptive)",
	Link:  netem.EVDO(),
	Points: points("echo-ack ", func(d time.Duration) AblationPoint {
		return AblationPoint{Mosh: MoshOptions{Predictions: overlay.Adaptive, Timing: transport.Timing{EchoAckTimeout: d}}}
	}, time.Millisecond, 50*time.Millisecond, 500*time.Millisecond),
}, {
	Title: "SSP minimum RTO under 29% loss (predictions off)",
	Link:  netem.LossyNetem(),
	Points: points("min-rto ", func(d time.Duration) AblationPoint {
		return AblationPoint{Mosh: MoshOptions{Predictions: overlay.Never, Timing: transport.Timing{MinRTO: d, MaxRTO: 4 * d}}}
	}, 50*time.Millisecond, time.Second),
}, {
	Title: fmt.Sprintf("frame-rate cap during a %v terminal flood (LAN-fast path)", floodSpan),
	Link:  netem.LinkParams{Delay: 2 * time.Millisecond},
	Points: points("frame cap ", func(d time.Duration) AblationPoint {
		return AblationPoint{Mosh: MoshOptions{Timing: transport.Timing{SendIntervalMin: d}}, Flood: true}
	}, 20*time.Millisecond, time.Millisecond),
}, {
	Title: "delayed-ack interval (EV-DO, packets sent)",
	Link:  netem.EVDO(),
	Points: points("ack delay ", func(d time.Duration) AblationPoint {
		return AblationPoint{Mosh: MoshOptions{Predictions: overlay.Adaptive, Timing: transport.Timing{AckDelay: d}}}
	}, time.Millisecond, 100*time.Millisecond, 200*time.Millisecond),
}}

// points makes one point per value, labelled prefix+value.
func points[V any](prefix string, point func(V) AblationPoint, values ...V) []AblationPoint {
	ps := make([]AblationPoint, len(values))
	for i, v := range values {
		ps[i] = point(v)
		ps[i].Label = prefix + fmt.Sprint(v)
	}
	return ps
}

// Run measures one point at cfg and lists its figures: a flood over the
// ablation's link, or a replay of one trace (the fifth profile, at most 400
// keystrokes) with its statistics, mispredictions and wire packets.
func (a Ablation) Run(cfg Config, p AblationPoint) []Figure {
	if p.Flood {
		return runFlood(floodSpan, a.Link, p.Mosh.Timing, cfg.Seed, (*core.Server).Prepare).figures()
	}
	tr := trace.Generate(cfg.Seed+11, trace.SixProfiles()[4], min(cfg.keys(), 400))
	m := RunMoshTrace(tr, a.Link, cfg.Seed, p.Mosh)
	return append(Summarize(m.Samples).figures(""),
		Figure{"mispredicted", float64(m.Mispredicted)},
		Figure{"wire", float64(m.WirePackets)})
}

// FormatComparison renders a comparison as a paper-style table, the
// paper's figures under the measured ones and the fidelity line under them.
func FormatComparison(c Comparison) string {
	var b strings.Builder
	b.WriteString(TableHeader(c.Row.Title))
	b.WriteString("\n")
	b.WriteString(TableRow(c.SSH.Name, c.SSH.Stats))
	b.WriteString("\n")
	b.WriteString(TableRow(c.Mosh.Name, c.Mosh.Stats))
	b.WriteString("\n")
	if c.Mispredicted > 0 {
		fmt.Fprintf(&b, "mosh mispredictions repaired: %.1f%% of keystrokes\n", c.Mispredicted*100)
	}
	b.WriteString(c.Row.FormatPaper())
	b.WriteString(fidelity(c.Row.Name, c.Figures()))
	return b.String()
}

// FormatCDF renders Figure 2's cumulative distributions as text.
func FormatCDF(c Comparison) string {
	thresholds := []time.Duration{
		time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond,
		25 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond,
		200 * time.Millisecond, 300 * time.Millisecond, 400 * time.Millisecond,
		500 * time.Millisecond, 700 * time.Millisecond, time.Second,
		2 * time.Second, 5 * time.Second,
	}
	mosh := CDF(c.Mosh.Samples, thresholds)
	ssh := CDF(c.SSH.Samples, thresholds)
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %8s\n", "latency <=", "Mosh", "SSH")
	for i, th := range thresholds {
		fmt.Fprintf(&b, "%-12s %7.1f%% %7.1f%%\n", th, mosh[i]*100, ssh[i]*100)
	}
	return b.String()
}
