package bench

import "testing"

// TestFidelity is the §4 fidelity gate: at paper scale, seed 1, every
// figure the Paper table bands must lie inside its band, and a band that
// excludes the paper's value must say why (Deviates). A Deviates on a band
// that holds the paper's value is stale and fails too. Every figure the
// paper publishes for these experiments is banded. lte is left out until
// it is cheap at paper scale.
func TestFidelity(t *testing.T) {
	if raceEnabled {
		t.Skip("paper-scale runs take minutes under the race detector; CI runs TestFidelity without -race")
	}
	cfg := Config{Seed: 1}
	for _, exp := range []string{"fig2", "singapore", "loss", Figure3.Name} {
		t.Run(exp, func(t *testing.T) {
			var measured []Figure
			if exp == Figure3.Name {
				measured = Figure3.Run(cfg).Figures()
			} else {
				measured = row(t, exp).Run(cfg).Figures()
			}
			figs := map[string]float64{}
			for _, f := range measured {
				figs[f.Name] = f.Value
			}
			for _, e := range Paper {
				if e.Exp != exp {
					continue
				}
				if e.Band == nil {
					if e.Paper != nil {
						t.Errorf("%s: the paper publishes %g but the figure has no band", e.Name, *e.Paper)
					}
					continue
				}
				v, ok := figs[e.Name]
				if !ok {
					t.Errorf("%s: banded, but %s measures no such figure", e.Name, exp)
					continue
				}
				if !e.Band.Contains(v) {
					t.Errorf("%s = %g, outside its band [%g, %g]", e.Name, v, e.Band.Lo, e.Band.Hi)
				}
				excludesPaper := e.Paper != nil && !e.Band.Contains(*e.Paper)
				if excludesPaper && e.Deviates == "" {
					t.Errorf("%s: band [%g, %g] excludes the paper's %g and gives no cause", e.Name, e.Band.Lo, e.Band.Hi, *e.Paper)
				}
				if !excludesPaper && e.Deviates != "" {
					t.Errorf("%s: band [%g, %g] holds the paper's value, yet deviates (%s)", e.Name, e.Band.Lo, e.Band.Hi, e.Deviates)
				}
			}
			// Heavy-tailed TCP under loss: no band over the seeds can say
			// σ ≥ mean (seed 7's σ is below seed 8's mean), so it is checked
			// as a relation.
			if exp == "loss" && figs["ssh.stddev"] < figs["ssh.mean"] {
				t.Errorf("loss: SSH σ %g s < mean %g s; want a heavy tail", figs["ssh.stddev"], figs["ssh.mean"])
			}
		})
	}
}
