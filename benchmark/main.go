//go:build linux

// Command benchmark is the repository's one yardstick: a wall-clock,
// real-socket keystroke→echo benchmark of the sessiond daemon with a
// per-layer budget. It spawns itself as the server child (one daemon on
// one loopback UDP socket, wired as cmd/mosh-server wires it, GOMAXPROCS=1)
// and drives it with real core.Clients from this process. README.md in
// this directory describes every workload and metric.
//
// Usage (from the repository root):
//
//	go run ./benchmark [-workload typing|repaint|trains|saturate|all]
//	                   [-seed 1] [-seconds 20] [-trace 0|1] [-agree]
//	                   [-provider auto] [-out benchmark/out] [-digests]
//
// -trace 0 (the default) is the timed run and prints the end-to-end
// metrics; -trace 1 is the traced run and prints the per-layer metrics and
// the budget table. The two are never combined. -agree runs two complete
// timed sets and compares them against the bounds. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// committedDigests holds the workload digests of the reference
// configuration (digests.json): an edit to internal/host or to a key
// generator that changes what is measured fails the run.
//
//go:embed digests.json
var committedDigests []byte

type digestFile struct {
	Seed    int64             `json:"seed"`
	Seconds int               `json:"seconds"`
	Digests map[string]string `json:"digests"`
}

// Reference run shape. run_seconds in BENCHMARK.json equals
// defaultSeconds; the committed digests are for exactly this shape.
const (
	defaultSeconds = 20
	defaultWarmup  = 2 * time.Second
	timedSetups    = 3
)

// header records where and how a result was measured.
type header struct {
	Commit    string `json:"commit"`
	Kernel    string `json:"kernel"`
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"nproc"`
	Drivers   int    `json:"drivers_K"`
	Provider  string `json:"provider_requested"`
	Network   string `json:"network"`
}

func newHeader(provider string) header {
	h := header{
		Commit:    "unknown",
		Kernel:    "unknown",
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Drivers:   driverCount(),
		Provider:  provider,
		Network:   "host loopback (no link)",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return h
}

// workloadReport is one workload's result: the contract line plus the
// detail behind it.
type workloadReport struct {
	Workload string `json:"workload"`
	Why      string `json:"why"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	Provider string `json:"provider_selected"`
	Digest   string `json:"digest"`
	line
	// EndToEnd (timed runs) holds each metric's sub-window values, median
	// and quartiles, with the echo count of every sub-window.
	EndToEnd map[string]summary `json:"end_to_end,omitempty"`
	// Budget (traced runs) is the per-layer self-time table.
	Budget []budgetRow `json:"budget,omitempty"`
	// Model (traced runs) sets the measured socket figures beside what
	// sessiond.Config.IOModel predicts for the same rung and sessions.
	Model *modelRow `json:"model_reconciliation,omitempty"`
}

type report struct {
	Header    header           `json:"header"`
	Workloads []workloadReport `json:"workloads"`
}

// digestCheck compares a run's digest with the committed one, when the run
// has the reference shape the committed digests were taken at.
func digestCheck(o runOpts, digest string) error {
	var df digestFile
	if err := json.Unmarshal(committedDigests, &df); err != nil {
		return fmt.Errorf("digests.json: %w", err)
	}
	if o.seed != df.Seed || o.seconds != time.Duration(df.Seconds)*time.Second ||
		o.warmup != defaultWarmup || o.sessionCount() != o.w.sessions {
		return nil
	}
	if want := df.Digests[o.w.name]; want != digest {
		return fmt.Errorf("workload %s: digest %s differs from the committed %s: the keystroke schedule or a host application changed, so this run does not measure what earlier runs measured", o.w.name, digest, want)
	}
	return nil
}

// correct folds a live run's checks into the contract's one flag, saying
// on standard error what failed.
func correct(o runOpts, r *liveResult) bool {
	ok := true
	if r.mismatched > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d of %d sessions did not converge to their reference screen\n", o.w.name, r.mismatched, o.sessionCount())
		ok = false
	}
	if r.authDrops != 0 {
		fmt.Fprintf(os.Stderr, "%s: server dropped %d datagrams on authentication\n", o.w.name, r.authDrops)
		ok = false
	}
	if err := digestCheck(o, r.digest); err != nil {
		fmt.Fprintln(os.Stderr, err)
		ok = false
	}
	return ok
}

// runTimed is the untraced run: the end-to-end metrics.
func runTimed(o runOpts) (*workloadReport, error) {
	o.traced = false
	r, err := runLive(o)
	if err != nil {
		return nil, err
	}
	rep := newWorkloadReport(o, r)
	rep.Correct = correct(o, r)
	rep.EndToEnd = r.endToEndSummaries()
	for _, m := range endToEnd {
		rep.Metrics[m.Name] = value{Value: rep.EndToEnd[m.Name].Value, Unit: m.Unit}
	}
	return rep, nil
}

func newWorkloadReport(o runOpts, r *liveResult) *workloadReport {
	return &workloadReport{
		Workload: o.w.name, Why: o.w.why, Seed: o.seed, Seconds: int(o.seconds / time.Second),
		Trace: o.traced, Provider: r.provider, Digest: r.digest,
		line: line{Attempted: r.attempted, Failed: r.failed(), Metrics: map[string]value{}},
	}
}

// printReport prints one workload's metrics, one per line, by name.
func printReport(rep *workloadReport, defs []metricDef) {
	fmt.Printf("workload %s seed %d seconds %d provider %s digest %.16s\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Provider, rep.Digest)
	fmt.Printf("  keystrokes_attempted %d keystrokes_failed %d correct %v\n", rep.Attempted, rep.Failed, rep.Correct)
	for _, m := range defs {
		v := rep.Metrics[m.Name]
		if s, ok := rep.EndToEnd[m.Name]; ok && len(s.Windows) > 1 {
			fmt.Printf("  %-40s %14.4f %-6s (sub-windows: median %.4f q1 %.4f q3 %.4f)\n", m.Name, v.Value, v.Unit, s.Median, s.Q1, s.Q3)
		} else {
			fmt.Printf("  %-40s %14.4f %s\n", m.Name, v.Value, v.Unit)
		}
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-server" {
		if err := serverMain(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark server:", err)
			os.Exit(1)
		}
		return
	}
	wname := flag.String("workload", "all", "workload to run: typing|repaint|trains|saturate|all")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same keystrokes")
	seconds := flag.Int("seconds", defaultSeconds, "measured window in seconds")
	trace := flag.Int("trace", 0, "0 = timed run (end-to-end metrics); 1 = traced run (per-layer metrics, budget table)")
	agree := flag.Bool("agree", false, "run two complete timed sets and compare them against the bounds")
	provider := flag.String("provider", "auto", "server udpbatch rung: auto|uring|gso|mmsg|loop")
	outDir := flag.String("out", "benchmark/out", "directory for detail and span files")
	digests := flag.Bool("digests", false, "print digests.json for the reference shape and exit (after a deliberate workload change)")
	flag.Parse()
	if *digests {
		df := digestFile{Seed: 1, Seconds: defaultSeconds, Digests: map[string]string{}}
		for i := range workloads {
			w := &workloads[i]
			df.Digests[w.name], _ = w.digest(df.Seed, defaultWarmup+defaultSeconds*time.Second, w.sessions)
		}
		out, _ := json.MarshalIndent(df, "", "  ")
		fmt.Println(string(out))
		return
	}
	if err := run(*wname, *seed, *seconds, *trace, *agree, *provider, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(wname string, seed int64, seconds, trace int, agree bool, provider, outDir string) error {
	if seconds < 1 || (trace != 0 && trace != 1) || flag.NArg() != 0 {
		return fmt.Errorf("bad arguments: want -seconds >= 1, -trace 0|1 and no positional arguments")
	}
	var ws []*workload
	if wname == "all" {
		for i := range workloads {
			ws = append(ws, &workloads[i])
		}
	} else if w := findWorkload(wname); w != nil {
		ws = []*workload{w}
	} else {
		return fmt.Errorf("unknown workload %q", wname)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	opts := func(w *workload) runOpts {
		return runOpts{
			w: w, seed: seed, seconds: time.Duration(seconds) * time.Second, warmup: defaultWarmup,
			provider: provider, setups: timedSetups, exe: exe,
		}
	}
	if agree {
		return runAgree(ws, opts, outDir)
	}

	rep := report{Header: newHeader(provider)}
	total := line{Correct: true, Metrics: map[string]value{}}
	for _, w := range ws {
		var wr *workloadReport
		if trace == 1 {
			wr, err = runTraced(opts(w), outDir)
		} else {
			wr, err = runTimed(opts(w))
		}
		if err != nil {
			return fmt.Errorf("workload %s: %w", w.name, err)
		}
		if trace == 1 {
			printReport(wr, perLayer)
			printBudget(wr)
		} else {
			printReport(wr, endToEnd)
		}
		rep.Workloads = append(rep.Workloads, *wr)
		total.Correct = total.Correct && wr.Correct
		total.Attempted += wr.Attempted
		total.Failed += wr.Failed
		for name, v := range wr.Metrics {
			if len(ws) > 1 {
				name = w.name + "/" + name
			}
			total.Metrics[name] = v
		}
	}
	kind := "timed"
	if trace == 1 {
		kind = "trace"
	}
	detail := filepath.Join(outDir, fmt.Sprintf("%s-%s-seed%d.json", kind, wname, seed))
	if err := writeJSON(detail, rep); err != nil {
		return err
	}
	fmt.Printf("detail: %s\n", detail)
	last, err := json.Marshal(total)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	if !total.Correct {
		return fmt.Errorf("correctness check failed")
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runAgree runs two complete timed sets of the same code and compares each
// (workload, end-to-end metric) pair against the metric's bound: the
// benchmark must agree with itself before it can judge a change.
func runAgree(ws []*workload, opts func(*workload) runOpts, outDir string) error {
	var sets [2]map[string]*workloadReport
	for i := range sets {
		sets[i] = map[string]*workloadReport{}
		for _, w := range ws {
			wr, err := runTimed(opts(w))
			if err != nil {
				return fmt.Errorf("set %d workload %s: %w", i+1, w.name, err)
			}
			if !wr.Correct || wr.Failed > 0 {
				return fmt.Errorf("set %d workload %s: correct=%v failed=%d", i+1, w.name, wr.Correct, wr.Failed)
			}
			sets[i][w.name] = wr
		}
	}
	h := newHeader(opts(ws[0]).provider)
	fmt.Printf("agreement of two timed sets, seed %d, %d s windows\n", opts(ws[0]).seed, int(opts(ws[0]).seconds/time.Second))
	fmt.Printf("commit %s kernel %s %s nproc %d K %d provider %s, %s\n",
		h.Commit, h.Kernel, h.GoVersion, h.NumCPU, h.Drivers, sets[0][ws[0].name].Provider, h.Network)
	fmt.Printf("%-10s %-30s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set 2", "worse by", "bound")
	breaches := 0
	for _, w := range ws {
		for _, m := range endToEnd {
			a, b := sets[0][w.name].Metrics[m.Name].Value, sets[1][w.name].Metrics[m.Name].Value
			// How much worse the worse set reads, as a share of the other.
			worse := (max(a, b) - min(a, b)) / min(a, b)
			verdict := "ok"
			if worse > m.Bound {
				verdict = "BREACH"
				breaches++
			}
			fmt.Printf("%-10s %-30s %14.4f %14.4f %8.2f%% %6.0f%% %s\n", w.name, m.Name, a, b, 100*worse, 100*m.Bound, verdict)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d (workload, metric) pairs differ by more than their bound", breaches)
	}
	return nil
}
