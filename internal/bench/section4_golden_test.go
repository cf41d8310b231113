package bench

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestSection4Golden pins the measured §4 figures at a small, fixed
// workload: each arm's Stats and the repaired fraction for the fig2,
// singapore and loss rows, Fig. 3's sweep points and argmin, and every
// ablation point's figures at 400 keys (at 60 the three display policies
// measure the same). Virtual time makes
// every figure exact, so a refactor of the harness must leave the file
// untouched; a deliberate behavior change regenerates it with
// `go test ./internal/bench/ -run TestSection4Golden -update`.
// The lte row stays out: its 30 s bulk warmup makes it the one slow row.
func TestSection4Golden(t *testing.T) {
	cfg := Config{KeystrokesPerUser: 60, Seed: 1}
	var b strings.Builder
	for _, name := range []string{"fig2", "singapore", "loss"} {
		c := row(t, name).Run(cfg)
		for _, arm := range []ArmResult{c.SSH, c.Mosh} {
			st := arm.Stats
			fmt.Fprintf(&b, "%s %s n=%d median=%d mean=%d stddev=%d instant=%v\n",
				name, arm.Name, st.N, st.Median, st.Mean, st.Stddev, st.FracInstant)
		}
		fmt.Fprintf(&b, "%s repaired=%v\n", name, c.Mispredicted)
	}
	pts := Figure3.Run(cfg)
	for _, p := range pts {
		fmt.Fprintf(&b, "fig3 interval=%d mean=%d writes=%d\n", p.Interval, p.MeanDelay, p.Writes)
	}
	fmt.Fprintf(&b, "fig3 best=%d\n", BestInterval(pts))

	abl := Config{KeystrokesPerUser: 400, Seed: 1}
	for _, a := range Ablations {
		for _, p := range a.Points {
			r := a.Run(abl, p)
			if p.Flood != nil {
				fmt.Fprintf(&b, "ablation %q frames=%d wire=%d converged=%v\n",
					p.Label, r.Flood.Frames, r.Flood.WirePackets, r.Flood.Converged)
				continue
			}
			st := r.Stats
			fmt.Fprintf(&b, "ablation %q n=%d median=%d mean=%d stddev=%d instant=%v mispredicted=%d wire=%d\n",
				p.Label, st.N, st.Median, st.Mean, st.Stddev, st.FracInstant, r.Mosh.Mispredicted, r.Mosh.WirePackets)
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
