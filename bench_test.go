// What is left of the root benchmark suite after each measurement question
// got one owner (README, "Build, test, bench"): regression against the parent
// commit is `bash benchmarks/run.sh -compare`, paper fidelity is `nfbench`,
// the zero-alloc gate and the multi-core datapath benchmarks live beside the
// switch (internal/vswitch). The three benchmarks here time control-plane
// transitions and a steering shape that no unbench workload drives; each
// says so in its comment.
package un_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	un "repro"
	"repro/internal/bench"
	"repro/internal/netdev"
	"repro/internal/pkt"
)

// BenchmarkReflavor measures one make-before-break NF hot-swap round trip
// (VM -> native -> VM per iteration, so the graph ends each iteration where
// it started), including the atomic steering swap and the drain of the
// outgoing instance. No unbench workload reflavors a running NF
// (deploy-churn only deploys, updates and undeploys); its allocation count is
// pinned by TestReflavorAllocCeiling in internal/orchestrator.
func BenchmarkReflavor(b *testing.B) {
	node, err := un.NewNode(un.Config{Name: "bench-reflavor"})
	if err != nil {
		b.Fatal(err)
	}
	defer node.Close()
	if err := node.Deploy(bench.IPsecGraph("vpn", un.TechVM)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := node.Reflavor("vpn", "vpn", un.TechNative); err != nil {
			b.Fatal(err)
		}
		if err := node.Reflavor("vpn", "vpn", un.TechVM); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(2, "swaps/op")
}

// natScaleGraph shards a source NAT between eth0 (LAN) and eth1 (WAN)
// across a replica set of the given size.
func natScaleGraph(id string, replicas int) *un.Graph {
	return &un.Graph{
		ID: id,
		NFs: []un.NF{{
			ID: "nat", Name: "nat",
			Ports:                []un.NFPort{{ID: "0"}, {ID: "1"}},
			TechnologyPreference: un.TechDocker,
			Config:               map[string]string{"external_ip": "198.51.100.1"},
			Replicas:             replicas,
		}},
		Endpoints: []un.Endpoint{
			{ID: "lan", Type: un.EPInterface, Interface: "eth0"},
			{ID: "wan", Type: un.EPInterface, Interface: "eth1"},
		},
		Rules: []un.FlowRule{
			{ID: "r1", Priority: 10,
				Match:   un.RuleMatch{PortIn: un.EndpointRef("lan")},
				Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.NFPortRef("nat", "0")}}},
			{ID: "r2", Priority: 10,
				Match:   un.RuleMatch{PortIn: un.NFPortRef("nat", "1")},
				Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.EndpointRef("wan")}}},
			{ID: "r3", Priority: 10,
				Match:   un.RuleMatch{PortIn: un.EndpointRef("wan")},
				Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.NFPortRef("nat", "1")}}},
			{ID: "r4", Priority: 10,
				Match:   un.RuleMatch{PortIn: un.NFPortRef("nat", "0")},
				Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.EndpointRef("lan")}}},
		},
	}
}

// natScaleFrames prebuilds one MTU frame per flow, spread across source
// ports so the bucket hash fans the flows over every replica.
func natScaleFrames(b *testing.B, flows int) [][]byte {
	b.Helper()
	frames := make([][]byte, flows)
	for i := range frames {
		f, err := pkt.BuildFrame(pkt.FrameSpec{
			SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2},
			SrcIP: pkt.Addr{10, 0, 0, byte(i + 1)}, DstIP: pkt.Addr{203, 0, 113, 50},
			SrcPort: uint16(30000 + i), DstPort: 53, PayloadLen: 1458,
		})
		if err != nil {
			b.Fatal(err)
		}
		frames[i] = f
	}
	return frames
}

// BenchmarkScaleOutThroughput measures the stateful-NAT datapath with the
// NF sharded across replica sets of different sizes: 64 concurrent flows,
// MTU frames, LAN -> WAN. The replicas-1 case is the single-instance
// baseline the scale-out steering overhead is judged against. No unbench
// workload deploys a replica set, so the select-group bucket hash in front of
// a sharded NF is on no other measured path.
func BenchmarkScaleOutThroughput(b *testing.B) {
	for _, replicas := range []int{1, 3} {
		b.Run(fmt.Sprintf("replicas-%d", replicas), func(b *testing.B) {
			node, err := un.NewNode(un.Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer node.Close()
			if err := node.Deploy(natScaleGraph("scale-tp", replicas)); err != nil {
				b.Fatal(err)
			}
			lan, _ := node.InterfacePort("eth0")
			wan, _ := node.InterfacePort("eth1")
			var rx atomic.Uint64
			wan.SetHandler(func(netdev.Frame) { rx.Add(1) })
			defer wan.SetHandler(nil)
			frames := natScaleFrames(b, 64)
			b.SetBytes(1500)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := lan.Send(netdev.Frame{Data: frames[i%len(frames)]}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if got := rx.Load(); got != uint64(b.N) {
				b.Fatalf("lost packets: sent %d, delivered %d", b.N, got)
			}
		})
	}
}

// BenchmarkStateMigration measures one live flow-state migration round trip
// (scale 1 -> 3 -> 1 per iteration, so the graph ends each iteration where
// it started) with 64 established NAT bindings to export, re-home and
// import, including both atomic steering swaps and the instance drains. No
// unbench workload resizes a set or moves flow state.
func BenchmarkStateMigration(b *testing.B) {
	node, err := un.NewNode(un.Config{Name: "bench-migrate"})
	if err != nil {
		b.Fatal(err)
	}
	defer node.Close()
	if err := node.Deploy(natScaleGraph("scale-mig", 1)); err != nil {
		b.Fatal(err)
	}
	lan, _ := node.InterfacePort("eth0")
	wan, _ := node.InterfacePort("eth1")
	wan.SetHandler(func(netdev.Frame) {})
	defer wan.SetHandler(nil)
	for _, f := range natScaleFrames(b, 64) {
		if err := lan.Send(netdev.Frame{Data: f}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := node.Scale("scale-mig", "nat", 3); err != nil {
			b.Fatal(err)
		}
		if err := node.Scale("scale-mig", "nat", 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(2, "resizes/op")
	b.ReportMetric(64, "bindings")
}
