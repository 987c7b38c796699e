// Command benchmark measures the whole browse ladder of this repository
// from outside: end to end through the geobrowsed binary's flags and HTTP
// API and the root spatialhist façade, and layer by layer by timing calls
// into each package's public functions. See README.md.
//
//	bash benchmark/run.sh                       every workload, untraced
//	bash benchmark/run.sh -trace 1 -budget      traced run and latency budget
//	bash benchmark/run.sh -compare A.json B.json
//	bash benchmark/run.sh --workload cold-maps --seed 7 --seconds 10 --trace 0
//
// The last form is the one BENCHMARK.json names: one workload, one JSON
// object on the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// report is the -out file: the machine and settings, then every run.
type report struct {
	NProc      int          `json:"nproc"`
	GoVersion  string       `json:"go_version"`
	CPUModel   string       `json:"cpu_model"`
	Commit     string       `json:"commit"`
	Seed       int64        `json:"seed"`
	Seconds    float64      `json:"seconds"`
	Smoke      bool         `json:"smoke"`
	SessionRPS float64      `json:"session_rate_rps"`
	IngestMPS  float64      `json:"ingest_rate_mutations_per_s"`
	Runs       []*runResult `json:"runs"`
}

// corruptExpected makes every expected answer wrong. Only the package's own
// tests set it, to prove that a wrong answer fails the command.
var corruptExpected bool

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "run one workload and end with the one-line JSON result (default: all five)")
		seed     = fs.Int64("seed", 2002, "seed of the dataset and of every request stream (7 is held out for claims)")
		seconds  = fs.Float64("seconds", 15, "timed window per workload")
		trace    = fs.Int("trace", 0, "1: the traced per-layer run in place of the timed end-to-end run")
		runs     = fs.Int("runs", 1, "repeat every workload this many times (for -compare)")
		out      = fs.String("out", "", "also write every run as JSON to this file")
		smoke    = fs.Bool("smoke", false, "tiny sizes and windows: checks the machinery, measures nothing")
		budget   = fs.Bool("budget", false, "with -trace 1: print the latency-budget table of each workload")
		compare  = fs.Bool("compare", false, "compare two -out files given as arguments: A.json B.json")
		traceOut = fs.String("trace-out", "", "where the traced run writes its spans (default .bench_build/trace-<workload>.json)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two files: A.json B.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	selected := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{*w}
	}
	if *smoke {
		*seconds = min(*seconds, 1)
	}

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	build := filepath.Join(root, ".bench_build")
	work, err := newWorkDir(build)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	// Every exit path — return, error, signal — kills the children and
	// removes the scratch directory.
	cleanup := func() {
		killAllChildren()
		os.RemoveAll(work)
	}
	defer cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()

	bin, err := buildServer(root, build)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	rep := &report{
		NProc: runtime.NumCPU(), GoVersion: runtime.Version(), CPUModel: cpuModel(), Commit: commit(root),
		Seed: *seed, Seconds: *seconds, Smoke: *smoke, SessionRPS: sessionRate, IngestMPS: ingestRate,
	}
	code := 0
	for i := 0; i < *runs; i++ {
		for _, w := range selected {
			// A scratch directory per run: a WAL left by one run must not
			// be replayed by the next.
			runDir, err := os.MkdirTemp(work, w.name+"-")
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			e := &env{root: root, work: runDir, bin: bin, seed: *seed, seconds: *seconds, trace: *trace,
				size: fullSize, corrupt: corruptExpected, log: stderr}
			if *smoke {
				e.size = smokeSize
			}
			if *trace != 0 {
				e.spans = newSpanLog()
			}
			res, err := w.run(e)
			killAllChildren()
			os.RemoveAll(runDir)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			if e.spans != nil {
				res.Rungs = e.spans.rungs()
				path := *traceOut
				if path == "" {
					path = filepath.Join(build, "trace-"+w.name+".json")
				}
				if err := e.spans.write(path); err != nil {
					fmt.Fprintln(stderr, "benchmark:", err)
					return 1
				}
			}
			printResult(stdout, res)
			if *budget && *trace != 0 {
				printBudget(stdout, res)
			}
			if !res.Correct {
				fmt.Fprintf(stderr, "benchmark: %s: %d of %d operations failed; first: %s\n",
					w.name, res.Failed, res.Attempted, res.FirstError)
				code = 1
			}
			rep.Runs = append(rep.Runs, res)
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if *name != "" {
		// The contract's result line: last on standard output.
		last := rep.Runs[len(rep.Runs)-1]
		line, _ := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int64             `json:"attempted"`
			Failed    int64             `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{last.Correct, last.Attempted, last.Failed, last.Metrics})
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return code
}

// printResult prints every number of one run as `workload metric value
// unit`, the owed metrics first and in the order the spec lists them.
func printResult(w io.Writer, r *runResult) {
	fmt.Fprintf(w, "%s trace_hash %s fnv64a\n", r.Workload, r.TraceHash)
	for _, m := range owed(r.Trace) {
		if v, ok := r.Metrics[m.name]; ok {
			fmt.Fprintf(w, "%s %s %.6g %s\n", r.Workload, m.name, v.Value, v.Unit)
		}
	}
	names := make([]string, 0, len(r.Info))
	for n := range r.Info {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %s %.6g %s\n", r.Workload, n, r.Info[n].Value, r.Info[n].Unit)
	}
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "%s attempted %d count\n%s failed_share %.6g ratio\n", r.Workload, r.Attempted, r.Workload, share)
}

// printBudget prints the latency budget of one traced run as a markdown
// table: one row per rung with its median time, its median self time (the
// rung minus the rungs below it), how often it ran per request, and the
// self time that puts into an average request.
func printBudget(w io.Writer, r *runResult) {
	var requests int
	for _, rg := range r.Rungs {
		if rg.Name == "geobrowsed.roundtrip" || (requests == 0 && rg.Parent == "") {
			requests = rg.N
		}
	}
	fmt.Fprintf(w, "\n#### %s (seed %d)\n\n", r.Workload, r.Seed)
	fmt.Fprintln(w, "| rung | parent | spans | median µs | self µs | per request | self µs × per request |")
	fmt.Fprintln(w, "|---|---|---:|---:|---:|---:|---:|")
	inProcess := 0
	for _, rg := range r.Rungs {
		if rg.Name == "geobrowse.handler" || rg.Name == "core.EstimateGrid" && rg.Parent == "" {
			inProcess = rg.N
		}
	}
	for _, rg := range r.Rungs {
		base := requests
		if !strings.HasPrefix(rg.Name, "client.") && rg.Name != "geobrowsed.roundtrip" && inProcess > 0 {
			base = inProcess
		}
		if strings.HasPrefix(rg.Name, "geobrowse.ingest") || strings.HasPrefix(rg.Name, "live.") {
			base = rg.N // the write ladder is budgeted per batch
		}
		per := float64(rg.N) / float64(max(base, 1))
		fmt.Fprintf(w, "| %s | %s | %d | %.1f | %.1f | %.3f | %.1f |\n",
			rg.Name, rg.Parent, rg.N, rg.TotalUS, rg.SelfUS, per, rg.SelfUS*per)
	}
}

func cpuModel() string {
	data, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the measured commit, or "unknown" outside a git checkout.
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
