package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func testSpec(t *testing.T) *spec {
	t.Helper()
	p, err := findSpec(".")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(p)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// The same seed yields the same graphs and frame sequence twice; another
// seed yields different ones.
func TestGeneratorIsDeterministic(t *testing.T) {
	for _, w := range workloadNames {
		a, err := digest(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := digest(w, 7)
		c, _ := digest(w, 8)
		if a != b {
			t.Errorf("%s: seed 7 hashed to %x then %x", w, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 produce the same inputs (%x)", w, a)
		}
	}
	if _, err := digest("no-such-workload", 1); err == nil {
		t.Error("an unknown workload has a digest")
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4): that is
// the rule the acceptance criterion's spread is computed by.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median(1..10) = %v", m)
	}
	if p := percentileSorted([]uint32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.99); p != 10 {
		t.Errorf("p99 of 1..10 = %v", p)
	}
}

// The oracles must reject what they exist to catch.
func TestOraclesRejectCorruption(t *testing.T) {
	f := udpFrame(flow{src: [4]byte{10, 0, 0, 1}, dst: [4]byte{10, 0, 0, 2}, sport: 5, dport: 6}, smallFrame, 0x42, hostMAC, peerMAC)
	if !checksumsValid(f) {
		t.Fatal("a freshly built frame fails the checksum oracle")
	}
	for _, at := range []int{15, 30, 38, len(f) - 1} { // IP header, addresses, UDP header, payload
		g := bytes.Clone(f)
		g[at] ^= 0x01
		if checksumsValid(g) {
			t.Errorf("a bit flipped at byte %d passes the checksum oracle", at)
		}
	}
	g := bytes.Clone(f)
	g[3] ^= 0xff // Ethernet header: re-framing is allowed
	if !samePacket(f, g) {
		t.Error("samePacket compares the Ethernet header")
	}
	g[len(g)-1] ^= 0x01
	if samePacket(f, g) {
		t.Error("samePacket misses a payload change")
	}
}

// Every workload runs end to end in miniature: each name BENCHMARK.json
// declares is emitted exactly once, finite, with the declared unit, nothing
// undeclared is emitted, and the trace file nests properly.
func TestEveryDeclaredMetricIsEmitted(t *testing.T) {
	sp := testSpec(t)
	if len(sp.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(sp.Workloads), len(workloadNames))
	}
	out := t.TempDir()
	for _, wl := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			var buf bytes.Buffer
			cfg := config{spec: sp, seed: 3, seconds: 0.2, out: out}
			if err := runOne(&buf, cfg, wl.Name, traced); err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", wl.Name, traced, err, buf.String())
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res resultLine
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", wl.Name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", wl.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			declared := sp.EndToEnd
			if traced {
				declared = sp.PerLayer
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", wl.Name, traced, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s: %s is declared but not emitted", wl.Name, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, declared %q", wl.Name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: %s = %v", wl.Name, m.Name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wl.Name, m.Name, got.Value)
				}
				if n := strings.Count(buf.String(), "\n"+m.Name+" "); n != 1 {
					t.Errorf("%s: %s is printed %d times in the readable report", wl.Name, m.Name, n)
				}
			}
		}
		checkTraceFile(t, filepath.Join(out, "trace-"+wl.Name+".jsonl"))
	}
}

func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&s); err != nil {
			t.Fatalf("%s: %v in %q", path, err, sc.Text())
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	byID := map[uint32]span{}
	roots, children := 0, 0
	for _, s := range spans {
		if _, dup := byID[s.Span]; dup {
			t.Fatalf("%s: span id %d used twice", path, s.Span)
		}
		byID[s.Span] = s
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("%s: span %d (%s) ends before it starts", path, s.Span, s.Name)
		}
		if s.Parent == 0 {
			if !s.Background {
				roots++
			}
			continue
		}
		children++
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			t.Errorf("%s: span %d (%s) names a parent %d that is not in the file", path, s.Span, s.Name, s.Parent)
		case p.Trace != s.Trace:
			t.Errorf("%s: span %d is in trace %d, its parent in trace %d", path, s.Span, s.Trace, p.Trace)
		case s.Start < p.Start || s.End > p.End:
			t.Errorf("%s: span %d (%s) [%d,%d] is not inside its parent %s [%d,%d]",
				path, s.Span, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	if roots == 0 || children == 0 {
		t.Errorf("%s: %d top-level spans and %d children", path, roots, children)
	}
}

// The compare mode flags exactly the differences beyond a metric's bound and
// marks a pair whose own windows are noisier than the bound.
func TestCompare(t *testing.T) {
	sp := testSpec(t)
	mk := func(scale float64, noisy bool) *resultSet {
		set := &resultSet{EndToEnd: map[string]*e2eResult{}}
		for _, wl := range sp.Workloads {
			r := &e2eResult{Workload: wl.Name, Metrics: map[string]float64{}, PerWindow: map[string][]float64{}}
			for _, m := range sp.EndToEnd {
				r.Metrics[m.Name] = 100
				r.PerWindow[m.Name] = []float64{100, 100, 100, 100}
			}
			r.Metrics["latency_p50_us"] = 100 * scale
			if noisy {
				r.PerWindow["ops_per_s"] = []float64{50, 100, 150, 200}
			}
			set.EndToEnd[wl.Name] = r
		}
		return set
	}
	dir := t.TempDir()
	write := func(name string, set *resultSet) string {
		b, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base, same, slow, noisy := write("a.json", mk(1, false)), write("b.json", mk(1.05, false)),
		write("c.json", mk(1.5, false)), write("d.json", mk(1, true))

	var buf bytes.Buffer
	if ok, err := compareFiles(&buf, sp, base, same); err != nil || !ok {
		t.Errorf("a 5%% difference is outside a 10%% bound: ok=%v err=%v\n%s", ok, err, buf.String())
	}
	buf.Reset()
	if ok, err := compareFiles(&buf, sp, base, slow); err != nil || ok {
		t.Errorf("a 50%% slowdown passes: ok=%v err=%v", ok, err)
	}
	if n := strings.Count(buf.String(), "OUTSIDE"); n != len(sp.Workloads) {
		t.Errorf("%d differences flagged, want one per workload:\n%s", n, buf.String())
	}
	buf.Reset()
	if _, err := compareFiles(&buf, sp, base, noisy); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "unresolved"); n != len(sp.Workloads) {
		t.Errorf("%d pairs marked unresolved, want one per workload:\n%s", n, buf.String())
	}
}

// The latency histogram reads percentiles within its bucket width of the
// exact nearest-rank value.
func TestHistogramPercentiles(t *testing.T) {
	var h hist
	var exact []int64
	x := uint64(12345)
	for i := 0; i < 200000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		v := int64(100 + x>>44) // up to ~1 ms, long-tailed enough
		if i%100 == 0 {
			v *= 50
		}
		h.add(v)
		exact = append(exact, v)
	}
	slices.Sort(exact)
	for _, p := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
		want := percentileSorted(exact, p)
		got := h.percentile(p)
		if math.Abs(got-want) > want/128 {
			t.Errorf("p%v: histogram %v, exact %v", p*100, got, want)
		}
	}
	h.reset()
	for v := int64(0); v < 256; v++ {
		h.add(v)
	}
	if got := h.percentile(0.5); got != 127 {
		t.Errorf("exact range: p50 of 0..255 = %v, want 127", got)
	}
	h.add(1 << 50) // past the last bucket: clamped, not out of range
	if got := h.percentile(1); got < 1e12 {
		t.Errorf("overflow value read back as %v", got)
	}
}
