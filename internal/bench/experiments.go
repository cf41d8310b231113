package bench

import (
	"fmt"
	"strings"
	"time"

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

// Published is one arm's figures as the paper reports them. A zero
// Stddev is one the paper does not publish; a zero Median is its "< 5 ms".
type Published struct {
	Median, Mean, Stddev time.Duration
}

// Row is one of the paper's §4 Mosh-vs-SSH comparisons: the path both
// arms share, each arm's options, and the figures the paper published.
type Row struct {
	Name  string // mosh-bench's -exp name
	Title string
	Link  netem.LinkParams
	Mosh  MoshOptions
	SSH   SSHOptions
	// PaperSSH and PaperMosh are the paper's median, mean and σ.
	PaperSSH, PaperMosh Published
	// PaperInstant and PaperRepaired are the fractions of Mosh keystrokes
	// the paper reports displayed within 5 ms and displayed wrongly then
	// repaired (Figure 2 only; zero where unpublished).
	PaperInstant, PaperRepaired float64
}

// Rows is the paper's §4 comparison table, in the order it presents them.
var Rows = []Row{{
	Name:          "fig2",
	Title:         "Figure 2: keystroke response time, Sprint EV-DO (3G)",
	Link:          netem.EVDO(),
	Mosh:          MoshOptions{Predictions: overlay.Adaptive},
	PaperSSH:      Published{503 * time.Millisecond, 515 * time.Millisecond, 0},
	PaperMosh:     Published{0, 173 * time.Millisecond, 0},
	PaperInstant:  0.70,
	PaperRepaired: 0.009,
}, {
	// One concurrent TCP download fills the bottleneck buffer.
	Name:      "lte",
	Title:     "Verizon LTE with one concurrent TCP download",
	Link:      netem.LTE(),
	Mosh:      MoshOptions{Predictions: overlay.Adaptive, BulkDownload: true},
	SSH:       SSHOptions{BulkDownload: true},
	PaperSSH:  Published{5360 * time.Millisecond, 5030 * time.Millisecond, 2140 * time.Millisecond},
	PaperMosh: Published{0, 1700 * time.Millisecond, 2600 * time.Millisecond},
}, {
	Name:      "singapore",
	Title:     "MIT–Singapore Internet path (Amazon EC2)",
	Link:      netem.Transoceanic(),
	Mosh:      MoshOptions{Predictions: overlay.Adaptive},
	PaperSSH:  Published{273 * time.Millisecond, 272 * time.Millisecond, 9 * time.Millisecond},
	PaperMosh: Published{0, 86 * time.Millisecond, 132 * time.Millisecond},
}, {
	// Predictions off isolates SSP.
	Name:      "loss",
	Title:     "netem router: 100 ms RTT, 29% loss each way (predictions off)",
	Link:      netem.LossyNetem(),
	Mosh:      MoshOptions{Predictions: overlay.Never},
	PaperSSH:  Published{416 * time.Millisecond, 16800 * time.Millisecond, 52200 * time.Millisecond},
	PaperMosh: Published{222 * time.Millisecond, 329 * time.Millisecond, 1630 * time.Millisecond},
}}

// RowNamed returns the row whose -exp name is name.
func RowNamed(name string) (Row, bool) {
	for _, r := range Rows {
		if r.Name == name {
			return r, true
		}
	}
	return Row{}, false
}

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

// FormatPaper renders the row's published figures in TableRow's columns,
// "—" marking a σ the paper does not publish.
func (r Row) FormatPaper() string {
	line := func(name string, p Published) string {
		sd := "—"
		if p.Stddev > 0 {
			sd = fmtDur(p.Stddev)
		}
		return fmt.Sprintf("%-24s %10s %10s %10s", name, fmtDur(p.Median), fmtDur(p.Mean), sd)
	}
	s := line("paper SSH", r.PaperSSH) + "\n" + line("paper Mosh", r.PaperMosh)
	if r.PaperInstant > 0 {
		s += fmt.Sprintf("   (instant=%.0f%%, repaired=%.1f%%)", r.PaperInstant*100, r.PaperRepaired*100)
	}
	return s + "\n"
}

// Ablation is one design choice the paper argues for, swept over a few
// values on one path.
type Ablation struct {
	Title  string
	Link   netem.LinkParams
	Points []AblationPoint
	// Line renders one point's measured figures.
	Line func(AblationResult) string
}

// AblationPoint is one swept value: the MoshOptions a trace replay runs
// with or, for the frame cap, the Timing of a terminal flood.
type AblationPoint struct {
	Label string
	Mosh  MoshOptions
	Flood *transport.Timing
}

// AblationResult is one point's measurement: Mosh and its Stats for a
// trace replay, Flood for a flood.
type AblationResult struct {
	Point AblationPoint
	Mosh  MoshResult
	Stats Stats
	Flood FloodResult
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
	Line: latencyLine,
}, {
	Title: "server-side echo ack timeout (EV-DO, adaptive)",
	Link:  netem.EVDO(),
	Points: points("echo-ack ", func(d time.Duration) AblationPoint {
		return AblationPoint{Mosh: MoshOptions{Predictions: overlay.Adaptive, EchoAckTimeout: d}}
	}, time.Millisecond, 50*time.Millisecond, 500*time.Millisecond),
	Line: func(r AblationResult) string {
		return fmt.Sprintf("%s   mispredictions=%d", latencyLine(r), r.Mosh.Mispredicted)
	},
}, {
	Title: "SSP minimum RTO under 29% loss (predictions off)",
	Link:  netem.LossyNetem(),
	Points: points("min-rto ", func(d time.Duration) AblationPoint {
		return AblationPoint{Mosh: MoshOptions{Predictions: overlay.Never, MinRTO: d, MaxRTO: 4 * d}}
	}, 50*time.Millisecond, time.Second),
	Line: latencyLine,
}, {
	Title: fmt.Sprintf("frame-rate cap during a %v terminal flood (LAN-fast path)", floodSpan),
	Link:  netem.LinkParams{Delay: 2 * time.Millisecond},
	Points: points("frame cap ", func(d time.Duration) AblationPoint {
		t := transport.DefaultTiming()
		t.SendIntervalMin = d
		return AblationPoint{Flood: &t}
	}, 20*time.Millisecond, time.Millisecond),
	Line: func(r AblationResult) string {
		return fmt.Sprintf("%-24s frames: %5d   wire packets: %5d   converged: %v",
			r.Point.Label, r.Flood.Frames, r.Flood.WirePackets, r.Flood.Converged)
	},
}, {
	Title: "delayed-ack interval (EV-DO, packets sent)",
	Link:  netem.EVDO(),
	Points: points("ack delay ", func(d time.Duration) AblationPoint {
		t := transport.DefaultTiming()
		t.AckDelay = d
		return AblationPoint{Mosh: MoshOptions{Predictions: overlay.Adaptive, Timing: &t}}
	}, time.Millisecond, 100*time.Millisecond, 200*time.Millisecond),
	Line: func(r AblationResult) string {
		return fmt.Sprintf("%-24s wire packets: %d", r.Point.Label, r.Mosh.WirePackets)
	},
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

func latencyLine(r AblationResult) string { return TableRow(r.Point.Label, r.Stats) }

// Run measures one point at cfg: a flood over the ablation's link, or a
// replay of one trace (the fifth profile, at most 400 keystrokes).
func (a Ablation) Run(cfg Config, p AblationPoint) AblationResult {
	r := AblationResult{Point: p}
	if p.Flood != nil {
		r.Flood = runFlood(floodSpan, a.Link, p.Flood, cfg.Seed, true)
		return r
	}
	tr := trace.Generate(cfg.Seed+11, trace.SixProfiles()[4], min(cfg.keys(), 400))
	r.Mosh = RunMoshTrace(tr, a.Link, cfg.Seed, p.Mosh)
	r.Stats = Summarize(r.Mosh.Samples)
	return r
}

// FormatComparison renders a comparison as a paper-style table, the
// paper's figures under the measured ones.
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
