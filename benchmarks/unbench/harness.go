package main

import (
	"os"
	"os/exec"
	"runtime"
	"strings"

	"repro/internal/netdev"
)

// calibration is the harness's own cost, measured before the first
// workload: subtract it when reading sub-microsecond figures.
type calibration struct {
	timerNs    float64 // one timed interval around nothing
	nullSendNs float64 // port -> handler with no node in between
}

func calibrate() calibration {
	var c calibration
	c.timerNs = rig{run: func(int) {}}.measure(200000).p50ns
	tx, rx := netdev.Veth("cal-tx", "cal-rx")
	rx.SetHandler(func(netdev.Frame) {})
	f := netdev.Frame{Data: make([]byte, smallFrame)}
	c.nullSendNs = rig{batch: 32, run: func(int) { _ = tx.Send(f) }}.measure(20000).p50ns
	return c
}

// environment records where a result was measured.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GitHead    string `json:"git_head"`
}

func readEnvironment() environment {
	e := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: "unknown", GitHead: "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// Output waits for git to exit; outside a git checkout it fails fast.
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.GitHead = strings.TrimSpace(string(b))
	}
	return e
}
