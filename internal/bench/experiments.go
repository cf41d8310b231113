package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/netem"
	"repro/internal/overlay"
	"repro/internal/trace"
)

// Config sizes an experiment run. The full paper-scale workload is six
// users at ~1664 keystrokes each; tests use smaller values.
type Config struct {
	// KeystrokesPerUser sizes each of the six traces (0 = paper scale).
	KeystrokesPerUser int
	// Seed makes the whole experiment reproducible.
	Seed int64
}

func (c Config) traces() []*trace.Trace {
	n := c.KeystrokesPerUser
	if n == 0 {
		n = 1664
	}
	profiles := trace.SixProfiles()
	traces := make([]*trace.Trace, len(profiles))
	for i, p := range profiles {
		traces[i] = trace.Generate(c.Seed+int64(i)*1000+1, p, n)
	}
	return traces
}

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

// Figure3 regenerates the collection-interval sweep.
func Figure3(cfg Config) []SweepPoint {
	return CollectionSweep(cfg.traces(), Figure3Intervals())
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

// FormatSweep renders Figure 3 as text.
func FormatSweep(pts []SweepPoint) string {
	var b strings.Builder
	b.WriteString("Figure 3: mean protocol-induced delay vs collection interval (frame interval 250 ms)\n")
	fmt.Fprintf(&b, "%-14s %12s %8s\n", "interval", "mean delay", "writes")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-14s %12s %8d\n", p.Interval, p.MeanDelay.Round(100*time.Microsecond), p.Writes)
	}
	return b.String()
}

// BestInterval returns the sweep's minimum-delay collection interval.
func BestInterval(pts []SweepPoint) time.Duration {
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
