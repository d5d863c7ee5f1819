package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/global"
)

var workloadNames = []string{"ipsec-tunnel", "chain-small", "fwd-flows", "deploy-churn"}

// system is one set-up workload: the program under test plus the load
// generator's state.
type system interface {
	window(dur time.Duration) window
	counts() (attempted, failed uint64)
	close()
}

// asSystem keeps a failed set-up's nil pointer from becoming a non-nil
// interface.
func asSystem[T system](s T, err error) (system, error) {
	if err != nil {
		return nil, err
	}
	return s, nil
}

// windowsFor cuts a run into windows. Every window runs on a freshly set-up
// system, so the windows are independent samples, state a workload
// accumulates (deploy-churn retains memory per lifecycle) is bounded by one
// window, and set-up time is measured once per window. Full-length runs use
// 20 windows (8 for deploy-churn, whose window must hold about a thousand
// create samples so that its p99 keeps ten samples beyond it); a short run
// keeps windows of at least 100 ms (250 ms) and never fewer than two.
func windowsFor(workload string, seconds float64) int {
	full, shortest := 20, 0.1
	if workload == "deploy-churn" {
		full, shortest = 8, 0.25
	}
	return min(max(int(seconds/shortest), 2), full)
}

// build generates the workload's inputs from the seed and sets the system
// up, returning how long both took together. between, when set, runs
// untimed after input generation: the live-heap baseline is taken there.
func build(workload string, seed int64, between func()) (system, time.Duration, error) {
	t0 := time.Now()
	var setup func() (system, error)
	switch workload {
	case "ipsec-tunnel":
		in := genIPsec(seed)
		setup = func() (system, error) { return asSystem(setupIPsec(in, global.Patch)) }
	case "chain-small":
		in := genChain(seed)
		setup = func() (system, error) { return asSystem(setupChain(in)) }
	case "fwd-flows":
		in := genFwd(seed)
		setup = func() (system, error) { return asSystem(setupFwd(in)) }
	case "deploy-churn":
		in := genChurn(seed)
		setup = func() (system, error) { return asSystem(setupChurn(in, nil)) }
	default:
		return nil, 0, fmt.Errorf("unbench: unknown workload %q (have %v)", workload, workloadNames)
	}
	took := time.Since(t0)
	if between != nil {
		between()
	}
	t1 := time.Now()
	sys, err := setup()
	return sys, took + time.Since(t1), err
}

// e2eResult is one untraced run of one workload.
type e2eResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Windows   int                `json:"windows"`
	Samples   []int              `json:"latency_samples_per_window"`
	Ops       []int              `json:"ops_per_window"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// PerWindow keeps every window's value of the windowed metrics, so the
	// compare mode can tell a difference from the run's own spread.
	PerWindow map[string][]float64 `json:"per_window"`
	// Withheld names metrics the harness refused to report (a p50 too close
	// to the timer's own cost to mean anything).
	Withheld []string `json:"withheld,omitempty"`
}

// runE2E measures one workload with tracing off.
func runE2E(workload string, seed int64, seconds float64, cal calibration) (*e2eResult, error) {
	windows := windowsFor(workload, seconds)
	res := &e2eResult{Workload: workload, Seed: seed, Windows: windows,
		Metrics: map[string]float64{}, PerWindow: map[string][]float64{}}

	per := time.Duration(seconds / float64(windows) * float64(time.Second))
	var setups []float64
	for i := 0; i < windows; i++ {
		var base, warm runtime.MemStats
		var between func()
		if i == 0 {
			// Live-heap baseline: the harness's own inputs are in it,
			// the system under test is not.
			between = func() { runtime.GC(); runtime.ReadMemStats(&base) }
		}
		sys, took, err := build(workload, seed, between)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i == 0 {
			// What the set-up and warmed-up system keeps alive: bindings,
			// conntrack, caches, journals. Read after a fixed number of
			// ops, so it does not depend on how fast the run goes.
			runtime.GC()
			runtime.ReadMemStats(&warm)
			res.Metrics["live_heap_mb"] = (float64(warm.HeapAlloc) - float64(base.HeapAlloc)) / (1 << 20)
		}
		w := sys.window(per)
		res.Samples = append(res.Samples, w.samples)
		res.Ops = append(res.Ops, w.ops)
		for name, v := range map[string]float64{
			"ops_per_s": w.opsPerS, "latency_p50_us": w.p50us, "latency_p90_us": w.p90us,
			"allocs_per_op": w.allocsPerOp, "alloc_kb_per_op": w.allocKBPerOp,
		} {
			res.PerWindow[name] = append(res.PerWindow[name], v)
		}
		a, f := sys.counts()
		res.Attempted += a
		res.Failed += f
		sys.close()
	}
	for name, vs := range res.PerWindow {
		res.Metrics[name] = calmQuartile(vs, name == "ops_per_s")
	}
	res.PerWindow["setup_s"] = setups
	res.Metrics["setup_s"] = median(setups)
	if res.Attempted > 0 {
		res.Metrics["failed_ratio"] = float64(res.Failed) / float64(res.Attempted)
	}
	if p50ns := res.Metrics["latency_p50_us"] * 1e3; p50ns < 10*cal.timerNs {
		res.Withheld = append(res.Withheld, "latency_p50_us")
	}
	return res, nil
}
