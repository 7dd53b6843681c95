// Command bench is FlowDroid's end-to-end benchmark. It generates each
// workload's apps from a seed with internal/appgen, analyzes them with
// apk.LoadFiles and core.AnalyzeApp exactly as a library user does,
// checks every report against the planted ground truth, and prints the
// workload's metrics by name with their units. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 1 it also drives the same apps through each layer's public
// function and prints the per-layer metrics instead of the end-to-end
// ones. With -compare A B it compares two sets of captured runs under the
// bounds in BENCHMARK.json. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// workDir holds the summary stores of the running workloads. It is
// relative to the checkout root, where bench/run.sh starts the binary.
const workDir = ".bench_build/work"

// setupProcs is the number of fresh processes whose set-up is measured;
// setup_s and peak_rss_mb are their medians.
const setupProcs = 3

// minPasses is the least number of timed passes a run makes, however
// short its time budget.
const minPasses = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run; empty runs every workload, each in a fresh process")
	seed := fs.Int64("seed", 1, "seed the workload's apps are generated from")
	seconds := fs.Float64("seconds", 10, "seconds of measured passes")
	trace := fs.Int("trace", 0, "1 runs the traced layer decomposition and prints per-layer metrics")
	traceOut := fs.String("trace-out", "", "file the traced run's spans are written to (JSON)")
	compare := fs.Bool("compare", false, "compare two files of captured run output: -compare A B")
	setupOnly := fs.Bool("setup-only", false, "set up the workload, print its set-up cost as JSON and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two files")
			return 2
		}
		return compareRuns(fs.Arg(0), fs.Arg(1), "BENCHMARK.json", stdout, stderr)
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	if *name == "" {
		if *traceOut != "" {
			fmt.Fprintln(stderr, "bench: -trace-out needs -workload")
			return 2
		}
		return runAll(args, stdout, stderr)
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	c := config{
		w:          w,
		seed:       *seed,
		n:          w.n,
		budget:     time.Duration(*seconds * float64(time.Second)),
		minPasses:  minPasses,
		setupProcs: setupProcs,
		trace:      *trace == 1,
		traceOut:   *traceOut,
		workDir:    filepath.Join(workDir, fmt.Sprintf("%s-%d", w.name, os.Getpid())),
		log:        stderr,
	}
	if *setupOnly {
		s, err := setupOnce(c)
		if err == nil {
			err = json.NewEncoder(stdout).Encode(s)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	info, res, err := runWorkload(c)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := printRun(stdout, info, res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// printRun writes the run's info line and, last, its result line.
func printRun(w io.Writer, info runInfo, res result) error {
	for _, v := range []any{map[string]runInfo{"bench": info}, res} {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n", b); err != nil {
			return err
		}
	}
	return nil
}

// runAll runs every workload in a fresh child process, one after the
// other, so set-up time and peak RSS are per workload.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append(args, "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: workload %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// childSetup measures the workload's set-up in a fresh process.
func childSetup(c config) (setupCost, error) {
	var s setupCost
	self, err := os.Executable()
	if err != nil {
		return s, err
	}
	var out bytes.Buffer
	cmd := exec.Command(self, "-setup-only", "-workload", c.w.name, "-seed", strconv.FormatInt(c.seed, 10))
	cmd.Stdout, cmd.Stderr = &out, c.log
	if err := cmd.Run(); err != nil {
		return s, fmt.Errorf("set-up process: %w", err)
	}
	if err := json.Unmarshal(out.Bytes(), &s); err != nil || s.Seconds <= 0 {
		return s, fmt.Errorf("set-up process printed no set-up cost: %q", out.Bytes())
	}
	return s, nil
}
