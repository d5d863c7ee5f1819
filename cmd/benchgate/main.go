// Command benchgate is the benchmark regression gate of the CI pipeline: it
// compares a current `go test -json` benchmark run against the committed
// baseline (BENCH_BASELINE.json) and fails when a gated benchmark's ns/op
// regressed beyond the allowed percentage. Independently of the baseline it
// also enforces an absolute allocs/op ceiling (default 0) on the benchmarks
// matching -alloc-gate, so the zero-allocation hot path cannot silently
// start allocating.
//
// Both inputs are test2json streams (`go test -bench ... -json`). Runs with
// -count>1 are collapsed per benchmark by median, which is robust against a
// single noisy iteration. The gate regexp is matched against the full
// benchmark name (sub-benchmarks included, GOMAXPROCS suffix stripped); a
// gated benchmark present in the baseline but missing from the current run
// fails the gate too, so a benchmark cannot dodge it by being deleted, and
// so does one present in the current run but missing from the baseline, so
// a truncated or stale baseline cannot pass for a green gate.
//
// With -extract-dir, the plain benchmark text of both runs is written as
// baseline.txt and current.txt, ready for `benchstat baseline.txt
// current.txt` to render the human-readable delta report CI uploads as an
// artifact.
//
// Usage:
//
//	benchgate -baseline BENCH_BASELINE.json -current bench-current.json \
//	          [-gate 'BenchmarkPipelineCached|BenchmarkTable1Throughput'] \
//	          [-max-regress 30] [-extract-dir out]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// testEvent is the subset of the test2json event stream benchgate reads.
type testEvent struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

// result is one benchmark's collapsed measurement.
type result struct {
	name   string
	nsop   []float64 // one per -count run
	allocs []float64 // allocs/op per -count run, if reported
}

func (r *result) median() float64 { return median(r.nsop) }

// medianAllocs returns the collapsed allocs/op and whether the benchmark
// reported the metric at all (b.ReportAllocs or -benchmem).
func (r *result) medianAllocs() (float64, bool) {
	if len(r.allocs) == 0 {
		return 0, false
	}
	return median(r.allocs), true
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// benchLine matches a benchmark result line: name, iterations, ns/op.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.eE+]+) ns/op`)

// allocLine matches the allocs/op metric later in the same result line.
var allocLine = regexp.MustCompile(`\s([0-9.eE+]+) allocs/op`)

// textLine matches the lines worth extracting for benchstat.
var textLine = regexp.MustCompile(`^(goos:|goarch:|pkg:|cpu:|Benchmark)`)

// parseRun reads one test2json file into per-benchmark results plus the
// plain benchmark text. A benchmark's name and its measurements arrive in
// separate output events (test2json splits mid-line), so the console output
// is first reconstructed by concatenating every output payload, then split
// back into real lines.
func parseRun(path string) (map[string]*result, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	var console strings.Builder
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev testEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return nil, "", fmt.Errorf("%s: not a test2json stream: %w", path, err)
		}
		if ev.Action == "output" {
			console.WriteString(ev.Output)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, "", err
	}
	results := make(map[string]*result)
	var text strings.Builder
	for _, out := range strings.Split(console.String(), "\n") {
		if !textLine.MatchString(out) {
			continue
		}
		m := benchLine.FindStringSubmatch(out)
		if m == nil {
			// Keep headers (goos:, cpu:, ...) for benchstat; drop bare
			// benchmark-name progress lines without measurements.
			if !strings.HasPrefix(out, "Benchmark") {
				text.WriteString(out)
				text.WriteByte('\n')
			}
			continue
		}
		text.WriteString(out)
		text.WriteByte('\n')
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		r := results[m[1]]
		if r == nil {
			r = &result{name: m[1]}
			results[m[1]] = r
		}
		r.nsop = append(r.nsop, ns)
		if am := allocLine.FindStringSubmatch(out); am != nil {
			if a, err := strconv.ParseFloat(am[1], 64); err == nil {
				r.allocs = append(r.allocs, a)
			}
		}
	}
	return results, text.String(), nil
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_BASELINE.json", "baseline test2json benchmark run")
		currentPath  = flag.String("current", "", "current test2json benchmark run")
		gate         = flag.String("gate", "BenchmarkPipelineCached|BenchmarkPipelineParallel|BenchmarkPipelineBurst|BenchmarkTable1Throughput|BenchmarkReflavor|BenchmarkParallelDeploy|BenchmarkScaleOutThroughput|BenchmarkStateMigration",
			"regexp of benchmark names the gate enforces")
		maxRegress = flag.Float64("max-regress", 30, "max allowed ns/op regression percent on gated benchmarks")
		allocGate  = flag.String("alloc-gate", "^BenchmarkPipelineCached/hit$|^BenchmarkPipelineParallel/|^BenchmarkPipelineBurst/",
			"regexp of benchmarks whose allocs/op must not exceed -max-allocs (checked on the current run, independent of the baseline)")
		maxAllocs  = flag.Float64("max-allocs", 0, "max allowed allocs/op on alloc-gated benchmarks")
		extractDir = flag.String("extract-dir", "", "write baseline.txt/current.txt here for benchstat")
	)
	flag.Parse()
	if *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -current is required")
		os.Exit(2)
	}
	gateRE, err := regexp.Compile(*gate)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: bad -gate: %v\n", err)
		os.Exit(2)
	}
	allocRE, err := regexp.Compile(*allocGate)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: bad -alloc-gate: %v\n", err)
		os.Exit(2)
	}
	base, baseText, err := parseRun(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	cur, curText, err := parseRun(*currentPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	if *extractDir != "" {
		if err := os.MkdirAll(*extractDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		for name, text := range map[string]string{"baseline.txt": baseText, "current.txt": curText} {
			if err := os.WriteFile(filepath.Join(*extractDir, name), []byte(text), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
				os.Exit(2)
			}
		}
	}

	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	failed := false
	fmt.Printf("%-52s %14s %14s %9s %s\n", "benchmark", "base ns/op", "cur ns/op", "delta", "gate")
	for _, name := range names {
		b := base[name]
		c, ok := cur[name]
		gated := gateRE.MatchString(name)
		mark := ""
		if gated {
			mark = "gated"
		}
		if !ok {
			if gated {
				failed = true
				fmt.Printf("%-52s %14.1f %14s %9s %s MISSING\n", name, b.median(), "-", "-", mark)
			}
			continue
		}
		bm, cm := b.median(), c.median()
		delta := (cm - bm) / bm * 100
		verdict := ""
		if gated && delta > *maxRegress {
			failed = true
			verdict = fmt.Sprintf(" FAIL (> %.0f%%)", *maxRegress)
		}
		fmt.Printf("%-52s %14.1f %14.1f %+8.1f%% %s%s\n", name, bm, cm, delta, mark, verdict)
	}
	curNames := make([]string, 0, len(cur))
	for name := range cur {
		curNames = append(curNames, name)
	}
	sort.Strings(curNames)
	// A gated benchmark the baseline does not know is not gated at all:
	// fail until `make bench-baseline` records it.
	for _, name := range curNames {
		if _, known := base[name]; !known && gateRE.MatchString(name) {
			failed = true
			fmt.Printf("%-52s %14s %14.1f %9s gated NOT IN BASELINE (run `make bench-baseline`)\n",
				name, "-", cur[name].median(), "-")
		}
	}
	// The allocation gate is absolute, not relative: a zero-alloc hot path
	// must stay zero-alloc regardless of what the baseline recorded.
	for _, name := range curNames {
		if !allocRE.MatchString(name) {
			continue
		}
		a, reported := cur[name].medianAllocs()
		switch {
		case !reported:
			failed = true
			fmt.Printf("%-52s allocs/op not reported FAIL (alloc gate needs b.ReportAllocs)\n", name)
		case a > *maxAllocs:
			failed = true
			fmt.Printf("%-52s %14.1f allocs/op FAIL (> %g)\n", name, a, *maxAllocs)
		default:
			fmt.Printf("%-52s %14.1f allocs/op alloc-gated ok\n", name, a)
		}
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchgate: gated benchmark regressed more than %.0f%%, went missing, or broke the allocs/op gate\n", *maxRegress)
		os.Exit(1)
	}
	fmt.Println("benchgate: ok")
}
