//go:build !race

// Allocation counts differ under the race detector's instrumentation.

package global_test

import (
	"fmt"
	"math"
	"testing"

	un "repro"
	"repro/internal/global"
	"repro/internal/nffg"
)

// vlanGraph is an NF-less graph joining VLANs vlan and vlan+1 of lan.
func vlanGraph(id string, vlan uint16) *nffg.Graph {
	return &nffg.Graph{
		ID: id,
		Endpoints: []nffg.Endpoint{
			{ID: "a", Type: nffg.EPVLAN, Interface: "lan", VLANID: vlan},
			{ID: "b", Type: nffg.EPVLAN, Interface: "lan", VLANID: vlan + 1},
		},
		Rules: []nffg.FlowRule{
			{ID: "ab", Priority: 10, Match: nffg.RuleMatch{PortIn: nffg.EndpointRef("a")},
				Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.EndpointRef("b")}}},
			{ID: "ba", Priority: 10, Match: nffg.RuleMatch{PortIn: nffg.EndpointRef("b")},
				Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.EndpointRef("a")}}},
		},
	}
}

// TestStatusAllocsIndependentOfGraphs probes a node holding 16 and then 256
// resident graphs. The probe reads what the node keeps and renders no
// topology, so it allocates as many objects either way, within 2 for slice
// growth.
func TestStatusAllocsIndependentOfGraphs(t *testing.T) {
	node, err := un.NewNode(un.Config{
		Name: "n1", Interfaces: []string{"lan", "wan"}, CPUMillis: 8000, RAMBytes: 1 << 30, Capabilities: chainCaps,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	ln := global.NewLocalNode("n1", node)
	probe := func() float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := ln.Status(); err != nil {
				t.Fatal(err)
			}
		})
	}
	var at16 float64
	for k := 0; k < 256; k++ {
		if k == 16 {
			at16 = probe()
		}
		if err := node.Deploy(vlanGraph(fmt.Sprintf("r%03d", k), uint16(100+2*k))); err != nil {
			t.Fatal(err)
		}
	}
	at256 := probe()
	t.Logf("LocalNode.Status: %.0f allocs at 16 graphs, %.0f at 256", at16, at256)
	if math.Abs(at256-at16) > 2 {
		t.Errorf("LocalNode.Status allocates %.0f objects at 256 graphs, %.0f at 16: it depends on the graphs deployed", at256, at16)
	}
}
