// Command mosh-bench regenerates the paper's evaluation (§4): every table
// and figure, replayed in deterministic virtual time over the emulated
// networks. Run it with no flags for the full set, or select one
// experiment: a row of bench.Rows by name (each table prints the paper's
// figures under ours, then a fidelity line against bench.Paper's bands), or
//
//	mosh-bench -exp fig3       # bench.Figure3: collection-interval sweep
//	mosh-bench -exp ablations  # bench.Ablations: design-choice sweeps
//	mosh-bench -exp mixed -sessions 1000
//	                           # a row of bench.Loads: N sessions on one
//	                           # daemon socket. manysession: shells; mixed:
//	                           # shell / CJK editor / log tail; roam: mixed
//	                           # on lossy links, a third roaming; torture:
//	                           # roam plus a mid-run kill and journal
//	                           # restore; chaos: torture under a seeded
//	                           # fault schedule with a nonce audit; trains:
//	                           # bulk-stream egress trains; virtual: the
//	                           # 10⁵-session regime. chaos and virtual exit
//	                           # nonzero when their check fails
//	mosh-bench -exp journal -sessions 10000
//	                           # incremental-journaling gate: N sessions,
//	                           # ~1% dirty per flush interval; exits nonzero
//	                           # unless the incremental arm saves >= 10x
//	                           # flush bytes with write amp <= 2, and unless
//	                           # the run beats real time
//
// -keys N sets the keystrokes per user (default: the paper-scale 1664,
// ≈10k total across six users). An unknown -exp name is a usage error.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/bench"
)

// experiment is one -exp mode. The paper's §4 modes are inAll: "-exp all"
// runs them in order; the rest are a different cost class and run only by
// name.
type experiment struct {
	name  string
	inAll bool
	run   func(bench.Config)
}

func main() {
	keys := flag.Int("keys", 1664, "keystrokes per user (6 users)")
	seed := flag.Int64("seed", 1, "workload seed")
	sessions := flag.Int("sessions", 1000, "concurrent sessions for a many-session load and -exp journal")
	flightDump := flag.String("flight-dump", "chaos-flight-dump.txt", "file to write the daemon's flight-recorder dump to when a load's check fails (empty disables)")

	var exps []experiment
	for _, r := range bench.Rows {
		exps = append(exps, experiment{r.Name, true, func(c bench.Config) {
			res := r.Run(c)
			fmt.Println(bench.FormatComparison(res))
			if r.Name == "fig2" {
				fmt.Println(bench.FormatCDF(res))
			}
		}})
	}
	exps = append(exps, experiment{bench.Figure3.Name, true, func(c bench.Config) {
		fmt.Print(bench.Figure3.Format(bench.Figure3.Run(c)))
	}}, experiment{"ablations", true, func(c bench.Config) {
		for i, a := range bench.Ablations {
			if i > 0 {
				fmt.Println()
			}
			fmt.Println("Ablation: " + a.Title)
			for _, p := range a.Points {
				line := fmt.Sprintf("%-24s", p.Label)
				for _, f := range a.Run(c, p) {
					line += fmt.Sprintf(" %s=%.4g", f.Name, f.Value)
				}
				fmt.Println(line)
			}
		}
	}})
	for _, l := range bench.Loads {
		exps = append(exps, experiment{l.Name, false, func(c bench.Config) {
			opt := l.Options
			opt.Sessions, opt.Seed = *sessions, c.Seed
			res := bench.RunManySession(opt)
			fmt.Println(bench.FormatManySession(res))
			if l.Check == nil {
				return
			}
			if err := l.Check(res); err != nil {
				fmt.Fprintf(os.Stderr, "%s FAILED: %v\n", l.Name, err)
				// Ship the daemon's flight recorder with the failure: the last
				// few thousand pipeline events (drops, trips, journal faults)
				// are the forensics a red CI run needs.
				if *flightDump != "" && len(res.FlightDump) > 0 {
					if err := os.WriteFile(*flightDump, res.FlightDump, 0o644); err != nil {
						fmt.Fprintf(os.Stderr, "flight dump: %v\n", err)
					} else {
						fmt.Fprintf(os.Stderr, "flight recorder dump written to %s\n", *flightDump)
					}
				}
				os.Exit(1)
			}
		}})
	}

	// The incremental-journaling gate: steady-state flush bytes against
	// the run's first flush, a checkpoint of every session, and write
	// amplification.
	exps = append(exps, experiment{"journal", false, func(c bench.Config) {
		inc := bench.RunJournalBench(bench.JournalBenchOptions{Sessions: *sessions, Seed: c.Seed})
		fmt.Println(bench.FormatJournalBench(inc))
		ratio := float64(inc.WarmBytes) / inc.BytesPerFlush
		fmt.Printf("incremental saves %.1fx flush bytes over a checkpoint; journal_write_amp %.3f; journal_flush_p99_ms %.3f\n",
			ratio, inc.WriteAmp, float64(inc.FlushP99)/float64(time.Millisecond))
		if ratio < 10 || inc.WriteAmp > 2 {
			fmt.Fprintf(os.Stderr, "journal FAILED: ratio=%.1fx (want >=10) write_amp=%.3f (want <=2)\n", ratio, inc.WriteAmp)
			os.Exit(1)
		}
		if inc.Wall >= inc.Elapsed {
			fmt.Fprintf(os.Stderr, "virtual-time FAILED: %v wall >= %v virtual\n",
				inc.Wall.Round(time.Millisecond), inc.Elapsed)
			os.Exit(1)
		}
	}})

	names := []string{"all"}
	for _, e := range exps {
		names = append(names, e.name)
	}
	exp := flag.String("exp", "all", "experiment: "+strings.Join(names, "|"))
	flag.Parse()
	if !slices.Contains(names, *exp) {
		fmt.Fprintf(os.Stderr, "mosh-bench: unknown -exp %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}

	cfg := bench.Config{KeystrokesPerUser: *keys, Seed: *seed}
	for _, e := range exps {
		if *exp == e.name || *exp == "all" && e.inAll {
			start := time.Now()
			e.run(cfg)
			fmt.Fprintf(os.Stderr, "[%s done in %v]\n\n", e.name, time.Since(start).Round(time.Millisecond))
		}
	}
}
