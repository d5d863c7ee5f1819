package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

const statements = `load: one goroutine, closed loop (the datapath runs to completion on the sender; the REST client waits for its reply)
rest: the leader's handler is called in process (ServeHTTP on an httptest recorder); no socket is crossed
end-to-end metrics are measured with tracing off; per-layer metrics come from a separate traced pass`

func printCalibration(w io.Writer, cal calibration) {
	fmt.Fprintf(w, "%-34s %14.2f ns\n%-34s %14.2f ns\n",
		"harness.timer_ns", cal.timerNs, "harness.null_send_ns", cal.nullSendNs)
}

// runOne is the driver's entry: one workload, one pass; readable lines first
// and the one-line JSON result last.
func runOne(w io.Writer, cfg config, workload string, traced bool) error {
	cal := calibrate()
	line := resultLine{}
	var err error
	if traced {
		var res *tracedResult
		if res, err = runTraced(workload, cfg.seed, cfg.seconds, cfg.out, cal); err != nil {
			return err
		}
		printTraced(w, cfg.spec, res)
		line.Attempted, line.Failed = res.Attempted, res.Failed
		line.Metrics, err = project(cfg.spec.PerLayer, res.Metrics)
	} else {
		printCalibration(w, cal)
		var res *e2eResult
		if res, err = runE2E(workload, cfg.seed, cfg.seconds, cal); err != nil {
			return err
		}
		printE2E(w, cfg.spec, res)
		if len(res.Withheld) > 0 {
			return fmt.Errorf("%s: refusing to report %v: under 10x harness.timer_ns (%.0f ns), the timer would be most of it",
				workload, res.Withheld, cal.timerNs)
		}
		line.Attempted, line.Failed = res.Attempted, res.Failed
		line.Metrics, err = project(cfg.spec.EndToEnd, res.Metrics)
	}
	if err != nil {
		return err
	}
	line.Correct = line.Failed == 0
	if err := printJSONLine(w, line); err != nil {
		return err
	}
	if !line.Correct {
		return fmt.Errorf("%s: %d of %d ops failed the output check", workload, line.Failed, line.Attempted)
	}
	return nil
}

func printE2E(w io.Writer, sp *spec, r *e2eResult) {
	fmt.Fprintf(w, "== %s  seed=%d  windows=%d  latency samples/window=%v  ops/window=%v\n",
		r.Workload, r.Seed, r.Windows, r.Samples, r.Ops)
	for _, m := range sp.EndToEnd {
		note := ""
		for _, name := range r.Withheld {
			if name == m.Name {
				note = "  WITHHELD: under 10x harness.timer_ns, not a latency"
			}
		}
		fmt.Fprintf(w, "%-34s %14.4f %s%s\n", m.Name, r.Metrics[m.Name], m.Unit, note)
		if ws := r.PerWindow[m.Name]; len(ws) > 0 {
			fmt.Fprintf(w, "    per window: %.4g\n", ws)
		}
	}
	fmt.Fprintf(w, "%-34s %14.6f ratio  (%d failed of %d attempted)\n",
		"failed_ratio", r.Metrics["failed_ratio"], r.Failed, r.Attempted)
}

func printTraced(w io.Writer, sp *spec, r *tracedResult) {
	fmt.Fprintf(w, "== %s  seed=%d  traced pass: %d ops, %d spans -> %s\n",
		r.Workload, r.Seed, r.Ops, r.Spans, r.TraceFile)
	for _, m := range sp.PerLayer {
		note := ""
		for _, name := range r.Modelled {
			if name == m.Name {
				note = "  (modelled)"
			}
		}
		fmt.Fprintf(w, "%-34s %14.4f %s%s\n", m.Name, r.Metrics[m.Name], m.Unit, note)
	}
}

// resultSet is results.json: every workload, both passes, and where it ran.
type resultSet struct {
	Seed        int64                    `json:"seed"`
	Seconds     float64                  `json:"seconds"`
	Environment environment              `json:"environment"`
	Calibration map[string]float64       `json:"calibration"`
	EndToEnd    map[string]*e2eResult    `json:"end_to_end"`
	PerLayer    map[string]*tracedResult `json:"per_layer"`
}

// runAll is the report mode: every workload, untraced then traced, every
// metric by name with its unit, results.json under the output directory. It
// fails when any workload fails an output check.
func runAll(w io.Writer, cfg config) error {
	env := readEnvironment()
	fmt.Fprintf(w, "unbench  seed=%d  seconds/workload=%g  nproc=%d  GOMAXPROCS=%d  %s  %s  git %s\n%s\n",
		cfg.seed, cfg.seconds, env.NProc, env.GOMAXPROCS, env.GoVersion, env.CPUModel, env.GitHead, statements)
	cal := calibrate()
	printCalibration(w, cal)
	set := resultSet{Seed: cfg.seed, Seconds: cfg.seconds, Environment: env,
		Calibration: map[string]float64{"harness.timer_ns": cal.timerNs, "harness.null_send_ns": cal.nullSendNs},
		EndToEnd:    map[string]*e2eResult{}, PerLayer: map[string]*tracedResult{}}
	var failed []string
	for _, wl := range cfg.spec.Workloads {
		e2e, err := runE2E(wl.Name, cfg.seed, cfg.seconds, cal)
		if err != nil {
			return err
		}
		printE2E(w, cfg.spec, e2e)
		if _, err := project(cfg.spec.EndToEnd, e2e.Metrics); err != nil {
			return err
		}
		set.EndToEnd[wl.Name] = e2e
		runtime.GC()
		tr, err := runTraced(wl.Name, cfg.seed, cfg.seconds, cfg.out, cal)
		if err != nil {
			return err
		}
		printTraced(w, cfg.spec, tr)
		if _, err := project(cfg.spec.PerLayer, tr.Metrics); err != nil {
			return err
		}
		set.PerLayer[wl.Name] = tr
		if e2e.Failed+tr.Failed > 0 {
			failed = append(failed, wl.Name)
		}
		runtime.GC()
	}
	b, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.out, "results.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "results written to %s\n", path)
	if len(failed) > 0 {
		return fmt.Errorf("failed_ratio > 0 on %s", strings.Join(failed, ", "))
	}
	return nil
}
