//go:build !race

// Allocation figures differ under the race detector's instrumentation.

package nffg

import (
	"fmt"
	"runtime"
	"testing"
)

// chainGraph is deploy-churn's graph: lan, n NFs of two ports, wan, one
// rule per hop, a firewall configuration on the first NF.
func chainGraph(n int) *Graph {
	templates := []string{"firewall", "monitor", "bridge"}
	g := &Graph{ID: "svc", Endpoints: []Endpoint{
		{ID: "lan", Type: EPInterface, Interface: "lan"},
		{ID: "wan", Type: EPInterface, Interface: "wan"},
	}}
	prev := EndpointRef("lan")
	for i := 0; i <= n; i++ {
		out := EndpointRef("wan")
		if i < n {
			id := fmt.Sprintf("nf%d", i)
			g.NFs = append(g.NFs, NF{ID: id, Name: templates[i%len(templates)], Ports: []NFPort{{ID: "0"}, {ID: "1"}}})
			out = NFPortRef(id, "0")
		}
		g.Rules = append(g.Rules, FlowRule{ID: fmt.Sprintf("r%d", i), Priority: 10,
			Match: RuleMatch{PortIn: prev}, Actions: []RuleAction{{Type: ActOutput, Output: out}}})
		prev = NFPortRef(fmt.Sprintf("nf%d", i), "1")
	}
	g.NFs[0].Config = map[string]string{"rules": "drop proto=tcp dport=82", "default": "accept"}
	return g
}

// TestGraphDecodeAllocs pins what decoding deploy-churn's six-NF chain
// allocates. The reflective decoder UnmarshalJSON replaced (oracleDecode:
// encoding/json over the wire types, then the model) took 110 allocations
// and 12.7 KB; the one-pass decoder reads 58 and 4.3 KB: the model's
// slices and strings, the configuration map and the decoder itself. The
// ceilings are that reading plus 10%.
func TestGraphDecodeAllocs(t *testing.T) {
	const (
		maxAllocs = 63
		maxBytes  = 4730
	)
	data, err := chainGraph(6).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	decode := func() {
		var g Graph
		if err := g.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
	}
	oracle := func() {
		if _, err := oracleDecode(data); err != nil {
			t.Fatal(err)
		}
	}
	measure := func(fn func()) (float64, uint64) {
		const rounds = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			fn()
		}
		runtime.ReadMemStats(&after)
		return testing.AllocsPerRun(rounds, fn), (after.TotalAlloc - before.TotalAlloc) / rounds
	}
	allocs, bytes := measure(decode)
	oAllocs, oBytes := measure(oracle)
	t.Logf("decode: %.0f allocs, %d B; reflective decoder: %.0f allocs, %d B", allocs, bytes, oAllocs, oBytes)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("decoding the chain: %.0f allocs, %d B; ceilings %d, %d B", allocs, bytes, maxAllocs, maxBytes)
	}
}
