package bench

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestSection4Golden pins the measured §4 figures at a small, fixed
// workload, one "<experiment> <figure>=<value>" line per figure (durations
// in seconds): each arm's statistics and the repaired fraction for the
// fig2, singapore and loss rows, Fig. 3's sweep points and argmin, and
// every ablation point's figures at 400 keys (at 60 the three display
// policies measure the same). Virtual time makes every figure exact, so a
// refactor of the harness must leave the file untouched; a deliberate
// behavior change regenerates it with
// `go test ./internal/bench/ -run TestSection4Golden -update`.
// The lte row stays out: its 30 s bulk warmup makes it the one slow row.
func TestSection4Golden(t *testing.T) {
	cfg := Config{KeystrokesPerUser: 60, Seed: 1}
	var b strings.Builder
	write := func(exp string, figs []Figure) {
		for _, f := range figs {
			fmt.Fprintf(&b, "%s %s=%s\n", exp, f.Name, strconv.FormatFloat(f.Value, 'g', -1, 64))
		}
	}
	for _, name := range []string{"fig2", "singapore", "loss"} {
		write(name, row(t, name).Run(cfg).Figures())
	}
	write(Figure3.Name, Figure3.Run(cfg).Figures())
	abl := Config{KeystrokesPerUser: 400, Seed: 1}
	for _, a := range Ablations {
		for _, p := range a.Points {
			write(fmt.Sprintf("ablation %q", p.Label), a.Run(abl, p))
		}
	}

	path := filepath.Join("testdata", "section4.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("§4 figures moved from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// TestAblationPaperPointsMatchControl: an ablation point at the paper's
// value is the control, mosh/adaptive on the same link, and measures the
// same figures. Each point overrides only the field it sweeps, so nothing
// else may differ; when an override was a whole DefaultTiming, the client
// of "ack delay 100ms" ran the server's 8 ms send delay instead of its own
// 1 ms, and the point read 1 ms more mean latency and 29 fewer datagrams.
func TestAblationPaperPointsMatchControl(t *testing.T) {
	cfg := Config{KeystrokesPerUser: 400, Seed: 1}
	run := func(label string) []Figure {
		for _, a := range Ablations {
			for _, p := range a.Points {
				if p.Label == label {
					return a.Run(cfg, p)
				}
			}
		}
		t.Fatalf("no ablation point %q", label)
		return nil
	}
	control := run("mosh/adaptive")
	for _, label := range []string{"echo-ack 50ms", "ack delay 100ms"} {
		if got := run(label); !slices.Equal(got, control) {
			t.Errorf("%s measured %v, want the control's %v", label, got, control)
		}
	}
}
