package bench

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Figure is one named measured figure of a §4 experiment. Durations are in
// seconds. Names are unique within an experiment and stable: the golden,
// the root benchmarks' metric names and the Paper table key on them.
type Figure struct {
	Name  string
	Value float64
}

// PaperFigure is one entry of the Paper table: a figure of one §4
// experiment, the paper's value for it, and the band the reproduction's
// value must land in.
type PaperFigure struct {
	Exp  string // the experiment's -exp name
	Name string // the Figure's name
	// Paper is the paper's value, nil where the paper publishes none.
	Paper *float64
	// Band is the range TestFidelity accepts, nil while the figure is not
	// gated.
	Band *Band
	// Deviates says why Band excludes the paper's value.
	Deviates string
}

// Band is a closed range of a figure's values.
type Band struct{ Lo, Hi float64 }

// Contains reports whether v lies in the band.
func (b Band) Contains(v float64) bool { return b.Lo <= v && v <= b.Hi }

func published(v float64) *float64 { return &v }

// Causes of a band that excludes the paper's value.
const (
	evdoShort   = "netem.EVDO()'s RTT is about 85 ms short of the paper's path, and its jitter too tight"
	rtoFloor    = "tcpsim floors its RTO at RFC 6298's 1 s (minRTO); Linux floors it at 200 ms"
	writeGaps   = "the optimum follows the gaps between trace.Generate's clumps of host writes"
	unexplained = "unexplained"
)

// Paper is the paper's §4 figures and the bands the reproduction is held
// to. Each band is the range seeds 1–12 measure at paper scale, widened by
// 10 % of the value on each side and rounded outward to three digits; a
// figure that measures 0 on every seed gets the paper's "instant" class,
// [0, 5 ms] for a median and [0, 0.01] for a fraction. The paper prints a
// median under 5 ms as "< 5 ms", as fmtDur does; those entries hold 0,
// what an instantly displayed keystroke measures here. lte is not banded
// yet: at paper scale it is the one slow row.
var Paper = []PaperFigure{
	{"fig2", "ssh.median", published(0.503), &Band{0.373, 0.46}, evdoShort},
	{"fig2", "ssh.mean", published(0.515), &Band{0.375, 0.462}, evdoShort},
	{"fig2", "ssh.instant", nil, &Band{0, 0.01}, ""},
	{"fig2", "mosh.median", published(0), &Band{0, 0.005}, ""},
	{"fig2", "mosh.mean", published(0.173), &Band{0.0903, 0.172}, unexplained},
	{"fig2", "mosh.instant", published(0.70), &Band{0.576, 0.841}, ""},
	{"fig2", "mosh.repaired", published(0.009), &Band{0.00164, 0.00349}, unexplained},

	{"lte", "ssh.median", published(5.36), nil, ""},
	{"lte", "ssh.mean", published(5.03), nil, ""},
	{"lte", "ssh.stddev", published(2.14), nil, ""},
	{"lte", "mosh.median", published(0), nil, ""},
	{"lte", "mosh.mean", published(1.70), nil, ""},
	{"lte", "mosh.stddev", published(2.60), nil, ""},

	{"singapore", "ssh.median", published(0.273), &Band{0.252, 0.309}, ""},
	{"singapore", "ssh.mean", published(0.272), &Band{0.253, 0.312}, ""},
	{"singapore", "ssh.stddev", published(0.009), &Band{0.00547, 0.00853}, unexplained},
	{"singapore", "mosh.median", published(0), &Band{0, 0.005}, ""},
	{"singapore", "mosh.mean", published(0.086), &Band{0.0457, 0.0919}, ""},
	{"singapore", "mosh.stddev", published(0.132), &Band{0.101, 0.149}, ""},

	{"loss", "ssh.median", published(0.416), &Band{3.6, 29.7}, rtoFloor},
	{"loss", "ssh.mean", published(16.8), &Band{14.0, 81.2}, ""},
	{"loss", "ssh.stddev", published(52.2), &Band{20.3, 102}, ""},
	{"loss", "mosh.median", published(0.222), &Band{0.279, 0.345}, unexplained},
	{"loss", "mosh.mean", published(0.329), &Band{0.267, 0.337}, ""},
	{"loss", "mosh.stddev", published(1.63), &Band{0.171, 0.218}, unexplained},

	{"fig3", "best", published(0.008), &Band{0.0144, 0.0176}, writeGaps},
}

// paperEntry returns the Paper table's entry for exp's figure name.
func paperEntry(exp, name string) (PaperFigure, bool) {
	for _, e := range Paper {
		if e.Exp == exp && e.Name == name {
			return e, true
		}
	}
	return PaperFigure{}, false
}

// paperValue returns the paper's value for exp's figure name, where it
// publishes one.
func paperValue(exp, name string) (float64, bool) {
	e, ok := paperEntry(exp, name)
	if !ok || e.Paper == nil {
		return 0, false
	}
	return *e.Paper, true
}

// seconds converts a figure's seconds back to a duration.
func seconds(v float64) time.Duration { return time.Duration(math.Round(v * 1e9)) }

// fidelity renders one line on how exp's figures sit against the Paper
// table: how many of its banded figures are inside their band, which are
// not, and which bands exclude the paper's value, and why.
func fidelity(exp string, figs []Figure) string {
	inside, banded := 0, 0
	var outside, deviates []string
	for _, f := range figs {
		e, ok := paperEntry(exp, f.Name)
		if !ok || e.Band == nil {
			continue
		}
		if banded++; e.Band.Contains(f.Value) {
			inside++
		} else {
			outside = append(outside, f.Name)
		}
		if e.Deviates != "" {
			deviates = append(deviates, fmt.Sprintf("%s (%s)", f.Name, e.Deviates))
		}
	}
	if banded == 0 {
		return "fidelity: no figure has a band yet\n"
	}
	s := fmt.Sprintf("fidelity: %d/%d figures inside their band", inside, banded)
	if len(outside) > 0 {
		s += " (outside: " + strings.Join(outside, ", ") + ")"
	}
	if len(deviates) > 0 {
		s += "; deviates: " + strings.Join(deviates, "; ")
	}
	return s + "\n"
}
