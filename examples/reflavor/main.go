// Live flavor reselection: the paper picks an execution technology per NF
// at deploy time; this example revises that choice while traffic flows.
//
// The IPsec CPE graph (paper §3) deploys with the vpn NF as a KVM/QEMU VM.
// Traffic runs through the tunnel; mid-stream the NF hot-swaps to the
// Native NF flavor with make-before-break semantics (new instance attached
// and steered with one atomic flow-table snapshot swap before the old one
// drains). The program prints the throughput step-change between flavors
// and the zero-loss evidence: every frame sent during the swap window was
// delivered, and the per-LSI drop counters stayed at zero.
//
// Run with: go run ./examples/reflavor
package main

import (
	"fmt"
	"log"
	"strings"
	"sync/atomic"
	"time"

	un "repro"
	"repro/internal/bench"
	"repro/internal/netdev"
)

func vpnGraph() *un.Graph {
	return &un.Graph{
		ID:   "cpe-vpn",
		Name: "IPsec endpoint, flavor revisable at runtime",
		NFs: []un.NF{{
			ID:                   "vpn",
			Name:                 "ipsec",
			Ports:                []un.NFPort{{ID: "0"}, {ID: "1"}},
			TechnologyPreference: un.TechVM,
			Config: map[string]string{
				"local":  "192.0.2.1",
				"remote": "203.0.113.9",
				"spi":    "4096",
				"key":    "000102030405060708090a0b0c0d0e0f10111213",
			},
		}},
		Endpoints: []un.Endpoint{
			{ID: "lan", Type: un.EPInterface, Interface: "eth0"},
			{ID: "wan", Type: un.EPInterface, Interface: "eth1"},
		},
		Rules: []un.FlowRule{
			{ID: "to-tunnel", Priority: 10,
				Match:   un.RuleMatch{PortIn: un.EndpointRef("lan")},
				Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.NFPortRef("vpn", "0")}}},
			{ID: "to-wan", Priority: 10,
				Match:   un.RuleMatch{PortIn: un.NFPortRef("vpn", "1")},
				Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.EndpointRef("wan")}}},
		},
	}
}

// lsiDrops scrapes the node registry and sums the per-LSI drop counters:
// the same series the zero-loss acceptance test asserts on.
func lsiDrops(node *un.Node) (total uint64, lines []string) {
	var buf strings.Builder
	if err := node.WriteMetrics(&buf); err != nil {
		log.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "un_lsi_drops_total") {
			lines = append(lines, line)
			var v uint64
			fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &v)
			total += v
		}
	}
	return total, lines
}

func main() {
	node, err := un.NewNode(un.Config{Name: "cpe"})
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()
	if err := node.Deploy(vpnGraph()); err != nil {
		log.Fatal(err)
	}
	lan, _ := node.InterfacePort("eth0")
	wan, _ := node.InterfacePort("eth1")
	techs, _ := node.Placements("cpe-vpn")
	fmt.Printf("deployed: vpn as %s\n\n", techs["vpn"])

	// Phase 1: iPerf through the tunnel with the VM flavor.
	repVM, err := bench.Run(lan, wan, node.Clock(), bench.Spec{Packets: 20000, FrameSize: 1500})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 1  %-8s %8.0f Mbps goodput\n", techs["vpn"], repVM.MbpsGoodput())

	// Phase 2: hot-swap to native while a continuous stream is in flight.
	var received atomic.Uint64
	wan.SetHandler(func(netdev.Frame) { received.Add(1) })
	const frames = 30000
	done := make(chan struct{})
	go func() {
		defer close(done)
		frame, err := bench.Spec{Packets: 1, FrameSize: 1500}.Frame()
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < frames; i++ {
			if err := lan.Send(netdev.Frame{Data: frame}); err != nil {
				log.Fatal(err)
			}
		}
	}()
	for received.Load() < frames/10 {
		time.Sleep(time.Millisecond)
	}
	swapStart := time.Now()
	if err := node.Reflavor("cpe-vpn", "vpn", un.TechNative); err != nil {
		log.Fatal(err)
	}
	swapLatency := time.Since(swapStart)
	<-done
	wan.SetHandler(nil)

	techs, _ = node.Placements("cpe-vpn")
	state, _ := node.NFState("cpe-vpn", "vpn")
	fmt.Printf("phase 2  hot-swap -> %s (%s) in %v, mid-stream\n",
		techs["vpn"], state, swapLatency.Round(time.Millisecond))
	fmt.Printf("         swap window: %d frames sent, %d delivered\n", frames, received.Load())
	drops, lines := lsiDrops(node)
	for _, l := range lines {
		fmt.Printf("         %s\n", l)
	}
	if received.Load() != frames || drops != 0 {
		log.Fatalf("LOST PACKETS: delivered %d/%d, drops %d", received.Load(), frames, drops)
	}
	fmt.Printf("         zero-loss switchover confirmed\n")

	// Phase 3: the same stream, now on the native flavor.
	repNative, err := bench.Run(lan, wan, node.Clock(), bench.Spec{Packets: 20000, FrameSize: 1500})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 3  %-8s %8.0f Mbps goodput\n\n", techs["vpn"], repNative.MbpsGoodput())
	fmt.Printf("throughput step-change: %.0f -> %.0f Mbps (%+.0f%%), with the service never leaving the datapath\n",
		repVM.MbpsGoodput(), repNative.MbpsGoodput(),
		100*(repNative.MbpsGoodput()-repVM.MbpsGoodput())/repVM.MbpsGoodput())
}
