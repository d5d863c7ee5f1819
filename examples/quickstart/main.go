// Quickstart: stand up an NFV compute node, deploy a one-NF service graph,
// push traffic through it, and print what the node looks like (the live
// version of the paper's Figure 1).
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	un "repro"
	"repro/internal/bench"
)

func main() {
	// 1. A CPE-class node with two interfaces. Defaults enable every
	//    capability: KVM, Docker, DPDK and all native network functions.
	node, err := un.NewNode(un.Config{Name: "home-router"})
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()

	// 2. Describe a service: LAN traffic passes a monitor NF on its way
	//    to the WAN. No technology preference: the scheduler picks the
	//    cheapest flavor the node supports (a native NF here).
	graph := &un.Graph{
		ID: "quickstart",
		NFs: []un.NF{{
			ID:    "mon",
			Name:  "monitor",
			Ports: []un.NFPort{{ID: "0"}, {ID: "1"}},
		}},
		Endpoints: []un.Endpoint{
			{ID: "lan", Type: un.EPInterface, Interface: "eth0"},
			{ID: "wan", Type: un.EPInterface, Interface: "eth1"},
		},
		Rules: []un.FlowRule{
			{ID: "r1", Priority: 10,
				Match:   un.RuleMatch{PortIn: un.EndpointRef("lan")},
				Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.NFPortRef("mon", "0")}}},
			{ID: "r2", Priority: 10,
				Match:   un.RuleMatch{PortIn: un.NFPortRef("mon", "1")},
				Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.EndpointRef("wan")}}},
			{ID: "r3", Priority: 10,
				Match:   un.RuleMatch{PortIn: un.EndpointRef("wan")},
				Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.NFPortRef("mon", "1")}}},
			{ID: "r4", Priority: 10,
				Match:   un.RuleMatch{PortIn: un.NFPortRef("mon", "0")},
				Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.EndpointRef("lan")}}},
		},
	}
	if err := node.Deploy(graph); err != nil {
		log.Fatal(err)
	}
	placements, _ := node.Placements("quickstart")
	fmt.Printf("deployed %q; the scheduler placed NF %q as: %s\n\n",
		graph.ID, "mon", placements["mon"])

	// 3. Push traffic LAN -> WAN with the iPerf stand-in.
	lan, _ := node.InterfacePort("eth0")
	wan, _ := node.InterfacePort("eth1")
	rep, err := bench.Run(lan, wan, node.Clock(), bench.Spec{
		Packets: 10000, FrameSize: 1500,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("traffic: %v\n\n", rep)

	// 4. The node's live structure: base LSI, per-graph LSI, NF.
	fmt.Println(node.Topology())
}
