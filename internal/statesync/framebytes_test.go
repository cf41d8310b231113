package statesync

import (
	"math/rand"
	"testing"

	"repro/internal/host"
	"repro/internal/terminal"
)

// TestRepaintCohortFrameBytes pins what the benchmark's repaint-heavy
// cohorts put in their incremental frames: a fixed-key replay of a pager, a
// mail reader and an editor on 132×43 screens through AppendDiff, with every
// diff applied to a client copy that must converge. The bound sits between
// the total a frame writer that addresses every move with an absolute CUP
// produces (262 682 B) and the total with relative moves and short reprints
// (200 558 B), so it fails if incremental frames go back to absolute moves.
// It counts diff bytes before compression and depends on no timing or host.
func TestRepaintCohortFrameBytes(t *testing.T) {
	const (
		w, h     = 132, 43
		sessions = 4
		keys     = 60
		bound    = 230_000
	)
	type cohort struct {
		name string
		app  func(seed int64) host.App
		key  func(rng *rand.Rand, n int) []byte
	}
	typist := func(rng *rand.Rand, n int) []byte {
		if n%23 == 0 {
			return terminal.EncodeSpecial(terminal.KeyLeft, false)
		}
		if n%60 == 0 {
			return []byte{'\r'}
		}
		return []byte{"etaoinshrdlucmfwypvbgkqjxz    "[rng.Intn(30)]}
	}
	cohorts := []cohort{
		{"pager", func(seed int64) host.App { return host.NewPager(seed) },
			func(rng *rand.Rand, _ int) []byte { return []byte{" b"[min(rng.Intn(5), 1)]} }},
		{"mail", func(seed int64) host.App { return host.NewMailReader(seed) },
			func(rng *rand.Rand, _ int) []byte { return []byte{"nnnjjpk\r"[rng.Intn(8)]} }},
		{"editor", func(seed int64) host.App { return host.NewEditor(seed, w) }, typist},
	}
	total := 0
	for _, c := range cohorts {
		bytes := 0
		for s := range sessions {
			seed := int64(1 + s)
			app := c.app(seed)
			rng := rand.New(rand.NewSource(seed))
			server := NewComplete(w, h)
			server.Terminal().Write(app.Start())
			client, last := server.Clone(), server.Clone()
			var diff []byte
			for n := 1; n <= keys; n++ {
				out, _ := app.Input(c.key(rng, n))
				server.Terminal().Write(out)
				diff = server.AppendDiff(diff[:0], last)
				bytes += len(diff)
				if err := client.Apply(diff); err != nil {
					t.Fatal(err)
				}
				if !client.Equal(server) {
					t.Fatalf("%s session %d key %d: client diverged after diff %q", c.name, s, n, diff)
				}
				last.Recycle()
				last = server.Clone()
			}
		}
		t.Logf("%s: %d B of diff over %d keys", c.name, bytes, sessions*keys)
		total += bytes
	}
	t.Logf("total: %d B", total)
	if total > bound {
		t.Fatalf("incremental diffs total %d B, want at most %d", total, bound)
	}
}
