// Command mosh-bench regenerates the paper's evaluation (§4): every table
// and figure, replayed in deterministic virtual time over the emulated
// networks. Run it with no flags for the full set, or select one
// experiment: a row of bench.Rows by name (each table prints the paper's
// figures under ours), or
//
//	mosh-bench -exp fig3       # bench.Figure3: collection-interval sweep
//	mosh-bench -exp ablations  # bench.Ablations: design-choice sweeps
//	mosh-bench -exp manysession -sessions 1000
//	                           # sessiond scaling: N sessions, one socket
//	mosh-bench -exp manysession -sessions 999 -mixed
//	                           # heterogeneous cohorts: shell / CJK editor /
//	                           # log tail
//	mosh-bench -exp manysession -sessions 500 -mixed -restart -roam -lossy
//	                           # torture mode: daemon killed and restored
//	                           # from its journal mid-run (resumption
//	                           # latency percentiles), a third of clients
//	                           # roaming, lossy non-shell cohorts
//	mosh-bench -exp chaos -sessions 200
//	                           # hostile-world smoke: mixed cohorts under a
//	                           # seeded fault schedule (wire drop/dup/
//	                           # corrupt/truncate, journal disk faults,
//	                           # mid-run restart, roam, loss) with a nonce
//	                           # audit; exits nonzero on a broken invariant
//	mosh-bench -exp journal -sessions 10000 -virtual
//	                           # incremental-journaling gate: N sessions,
//	                           # ~1% dirty per flush interval, incremental
//	                           # arm vs full-rewrite baseline; exits
//	                           # nonzero unless the incremental arm saves
//	                           # >= 10x flush bytes with write amp <= 2
//
// -keys N sets the keystrokes per user (default: the paper-scale 1664,
// ≈10k total across six users). An unknown -exp name is a usage error, and
// so is -lossy without -mixed.
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
	sessions := flag.Int("sessions", 1000, "concurrent sessions for -exp manysession")
	mixed := flag.Bool("mixed", false, "mixed cohorts for -exp manysession: shell (latency-measured) / CJK-emoji editor / log tail")
	restart := flag.Bool("restart", false, "manysession: kill the daemon mid-run and restore it from its journal; report resumption latency percentiles")
	roam := flag.Bool("roam", false, "manysession: a third of the sessions change source address mid-run")
	lossy := flag.Bool("lossy", false, "manysession: lossy links for the non-shell cohorts (editor 1%, log-tail 3%); needs -mixed, without which every session is a shell")
	trains := flag.Bool("trains", false, "manysession: bulk-stream cohort with lockstep typing — every reply is a multi-fragment same-peer train")
	chaos := flag.Bool("chaos", false, "manysession: seeded hostile-world schedule (wire faults on every link, journal disk faults, nonce audit); see also -exp chaos")
	chaosSeed := flag.Int64("chaos-seed", 0, "chaos schedule seed (0 = derived from -seed)")
	virtual := flag.Bool("virtual", false, "manysession: virtual-time regime tuned so the run completes faster than the span it simulates even at 100000 sessions (sparse keystrokes, stretched heartbeat); exits nonzero if wall time exceeds virtual time")
	flightDump := flag.String("flight-dump", "chaos-flight-dump.txt", "file to write the daemon's flight-recorder dump to when the chaos gate fails (empty disables)")

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
				fmt.Println(a.Line(a.Run(c, p)))
			}
		}
	}},
		experiment{"manysession", false, func(c bench.Config) {
			res := bench.RunManySession(bench.ManySessionOptions{
				Sessions:     *sessions,
				Seed:         c.Seed,
				Mixed:        *mixed,
				Restart:      *restart,
				Roam:         *roam,
				LossyCohorts: *lossy,
				Trains:       *trains,
				Chaos:        *chaos,
				ChaosSeed:    *chaosSeed,
				Virtual:      *virtual,
			})
			fmt.Println(bench.FormatManySession(res))
			if *virtual && res.Wall >= res.Elapsed {
				fmt.Fprintf(os.Stderr, "virtual-time FAILED: %v wall >= %v virtual (ratio %.2fx)\n",
					res.Wall.Round(time.Millisecond), res.Elapsed, res.Elapsed.Seconds()/res.Wall.Seconds())
				os.Exit(1)
			}
		}},
		// The chaos smoke is the torture preset in one flag: mixed cohorts,
		// restart, roam, lossy links, and the full fault schedule.
		experiment{"chaos", false, func(c bench.Config) {
			res := bench.RunManySession(bench.ManySessionOptions{
				Sessions:     *sessions,
				Seed:         c.Seed,
				Mixed:        true,
				Restart:      true,
				Roam:         true,
				LossyCohorts: true,
				Chaos:        true,
				ChaosSeed:    *chaosSeed,
			})
			fmt.Println(bench.FormatManySession(res))
			if res.NonceViolations != 0 || res.Restored != int64(res.Sessions) || res.Lost != 0 {
				fmt.Fprintf(os.Stderr, "chaos FAILED: nonce violations=%d restored=%d/%d lost=%d\n",
					res.NonceViolations, res.Restored, res.Sessions, res.Lost)
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
		}},
		// The incremental-journaling gate: steady-state flush bytes against
		// the run's first flush, a checkpoint of every session, and write
		// amplification.
		experiment{"journal", false, func(c bench.Config) {
			inc := bench.RunJournalBench(bench.JournalBenchOptions{Sessions: *sessions, Seed: c.Seed})
			fmt.Println(bench.FormatJournalBench(inc))
			ratio := float64(inc.WarmBytes) / inc.BytesPerFlush
			fmt.Printf("incremental saves %.1fx flush bytes over a checkpoint; journal_write_amp %.3f; journal_flush_p99_ms %.3f\n",
				ratio, inc.WriteAmp, float64(inc.FlushP99)/float64(time.Millisecond))
			if ratio < 10 || inc.WriteAmp > 2 {
				fmt.Fprintf(os.Stderr, "journal FAILED: ratio=%.1fx (want >=10) write_amp=%.3f (want <=2)\n", ratio, inc.WriteAmp)
				os.Exit(1)
			}
			if *virtual && inc.Wall >= inc.Elapsed {
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
	if *lossy && !*mixed {
		fmt.Fprintln(os.Stderr, "mosh-bench: -lossy needs -mixed (without it every session is a shell and no link is degraded)")
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
