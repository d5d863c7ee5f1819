package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// specMetric is one metric declaration of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is what this program reads of BENCHMARK.json, the contract it prints
// against.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// findSpec looks for BENCHMARK.json in dir and its parents (the program runs
// from benchmarks/unbench, the file sits at the root of the checkout).
func findSpec(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		p := filepath.Join(dir, "BENCHMARK.json")
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("unbench: no BENCHMARK.json in %s or above", dir)
		}
		dir = parent
	}
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("unbench: %s: %w", path, err)
	}
	return &s, nil
}

// emitted is the value/unit pair of the result line.
type emitted struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output of a single-workload run.
type resultLine struct {
	Correct   bool               `json:"correct"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Metrics   map[string]emitted `json:"metrics"`
}

// project keeps exactly the declared metrics, with their declared units. A
// declared metric without a measured value is an error: the contract is that
// every name is printed on every run.
func project(decl []specMetric, values map[string]float64) (map[string]emitted, error) {
	out := make(map[string]emitted, len(decl))
	for _, m := range decl {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("unbench: metric %q is declared in BENCHMARK.json but was not measured", m.Name)
		}
		if !finite(v) {
			return nil, fmt.Errorf("unbench: metric %q is not a finite number (%v)", m.Name, v)
		}
		out[m.Name] = emitted{Value: v, Unit: m.Unit}
	}
	return out, nil
}
