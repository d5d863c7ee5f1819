package un_test

import (
	"fmt"
	"log"

	un "repro"
	"repro/internal/bench"
)

// ExampleNewNode deploys the paper's CPE scenario — an IPsec endpoint on a
// home router — and reports where the scheduler placed it.
func ExampleNewNode() {
	node, err := un.NewNode(un.Config{Name: "home-router"})
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()

	graph := &un.Graph{
		ID: "vpn",
		NFs: []un.NF{{
			ID: "vpn", Name: "ipsec",
			Ports: []un.NFPort{{ID: "0"}, {ID: "1"}},
			Config: map[string]string{
				"local": "192.0.2.1", "remote": "203.0.113.9",
				"spi": "4096", "key": "000102030405060708090a0b0c0d0e0f10111213",
			},
		}},
		Endpoints: []un.Endpoint{
			{ID: "lan", Type: un.EPInterface, Interface: "eth0"},
			{ID: "wan", Type: un.EPInterface, Interface: "eth1"},
		},
		Rules: []un.FlowRule{
			{ID: "r1", Priority: 10, Match: un.RuleMatch{PortIn: un.EndpointRef("lan")},
				Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.NFPortRef("vpn", "0")}}},
			{ID: "r2", Priority: 10, Match: un.RuleMatch{PortIn: un.NFPortRef("vpn", "1")},
				Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.EndpointRef("wan")}}},
		},
	}
	if err := node.Deploy(graph); err != nil {
		log.Fatal(err)
	}
	placements, _ := node.Placements("vpn")
	fmt.Println("placed as:", placements["vpn"])

	// Push 1000 MTU frames through the chain with the iPerf stand-in.
	lan, _ := node.InterfacePort("eth0")
	wan, _ := node.InterfacePort("eth1")
	rep, err := bench.Run(lan, wan, node.Clock(), bench.Spec{
		Packets: 1000, FrameSize: 1500,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("delivered: %d/%d frames at %.0f Mbps (simulated)\n",
		rep.RxPackets, rep.TxPackets, rep.MbpsGoodput())
	// Output:
	// placed as: native
	// delivered: 1000/1000 frames at 1094 Mbps (simulated)
}
