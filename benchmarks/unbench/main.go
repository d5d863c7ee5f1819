// Command unbench is the repository's end-to-end benchmark: four workloads
// over the packet path and the deploy path, a per-layer ledger and a traced
// pass. See ../README.md for the workloads, the metric glossary and how the
// layers are expected to move the end-to-end numbers; BENCHMARK.json at the
// root of the repository is the contract it prints against.
//
//	unbench --workload W --seed N --seconds S --trace 0|1   one run, one workload
//	unbench [-seed N] [-seconds S] [-out DIR]               every workload, both passes
//	unbench -compare a/results.json b/results.json          two result sets against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("unbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run one workload and end with the one-line JSON result (default: all four, both passes, as a report)")
		seed     = fs.Int64("seed", 1, "seed of every generated input")
		seconds  = fs.Float64("seconds", 0, "measuring time per workload and pass (default: run_seconds of BENCHMARK.json)")
		trace    = fs.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics with tracing off, 1 makes the traced pass for the per-layer metrics")
		out      = fs.String("out", "", "directory for trace-<workload>.jsonl and results.json (default: benchmarks/out beside BENCHMARK.json)")
		compare  = fs.Bool("compare", false, "compare two results.json files (given as arguments) against the bounds of BENCHMARK.json")
		specPath = fs.String("spec", "", "path of BENCHMARK.json (default: found in the working directory or above)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "unbench:", err)
		return 1
	}
	if *specPath == "" {
		p, err := findSpec(".")
		if err != nil {
			return fail(err)
		}
		*specPath = p
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		return fail(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		ok, err := compareFiles(os.Stdout, sp, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	if *out == "" {
		*out = filepath.Join(filepath.Dir(*specPath), "benchmarks", "out")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fail(err)
	}
	cfg := config{spec: sp, seed: *seed, seconds: *seconds, out: *out}
	if *workload != "" {
		return fail0(runOne(os.Stdout, cfg, *workload, *trace != 0))
	}
	return fail0(runAll(os.Stdout, cfg))
}

func fail0(err error) int {
	if err != nil {
		fmt.Fprintln(os.Stderr, "unbench:", err)
		return 1
	}
	return 0
}

// config is what every run mode shares.
type config struct {
	spec    *spec
	seed    int64
	seconds float64
	out     string
}

func printJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
