package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func loadResultSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// spread is a run's own noise on one metric: the distance between the first
// and third quartile of its windows as a share of their median.
func spread(windows []float64) float64 {
	if len(windows) < 2 {
		return 0
	}
	q1, q3 := quartiles(windows)
	if m := median(windows); m != 0 {
		return (q3 - q1) / math.Abs(m)
	}
	return 0
}

// compareFiles prints, per workload and end-to-end metric, both values,
// how much worse (+) or better (-) b is than a as a share of a, and the
// metric's bound. A pair whose own windows spread wider than the bound is
// marked unresolved: the two runs cannot tell such a difference from noise.
// It reports false when any difference lies outside its bound.
func compareFiles(w io.Writer, sp *spec, pathA, pathB string) (bool, error) {
	a, err := loadResultSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResultSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a: %s  (seed %d, git %s)\nb: %s  (seed %d, git %s)\n",
		pathA, a.Seed, a.Environment.GitHead, pathB, b.Seed, b.Environment.GitHead)
	fmt.Fprintf(w, "%-14s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "b worse", "bound", "verdict")
	ok := true
	for _, wl := range sp.Workloads {
		ra, rb := a.EndToEnd[wl.Name], b.EndToEnd[wl.Name]
		if ra == nil || rb == nil {
			return false, fmt.Errorf("workload %q is missing from one of the result sets", wl.Name)
		}
		for _, m := range sp.EndToEnd {
			va, vb := ra.Metrics[m.Name], rb.Metrics[m.Name]
			worse := (vb - va) / math.Abs(va)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "within"
			if math.Abs(worse) > m.Bound || math.IsNaN(worse) {
				verdict = "OUTSIDE"
				ok = false
			}
			if s := math.Max(spread(ra.PerWindow[m.Name]), spread(rb.PerWindow[m.Name])); s > m.Bound {
				verdict += fmt.Sprintf(", unresolved (window spread %.3f)", s)
			}
			fmt.Fprintf(w, "%-14s %-18s %14.4f %14.4f %+9.4f %7.2f  %s\n", wl.Name, m.Name, va, vb, worse, m.Bound, verdict)
		}
		fmt.Fprintf(w, "%-14s %-18s %14d %14d\n", wl.Name, "failed", ra.Failed, rb.Failed)
		if ra.Failed+rb.Failed > 0 {
			ok = false
		}
	}
	return ok, nil
}
