package orchestrator

import (
	"runtime"
	"testing"

	"repro/internal/nffg"
	"repro/internal/pkt"
)

// chainGraph builds eth0 -> nf -> eth1 with symmetric return rules.
func chainGraph(id, nfName string, tech nffg.Technology, cfg map[string]string) *nffg.Graph {
	return &nffg.Graph{
		ID: id,
		NFs: []nffg.NF{{
			ID: "nf", Name: nfName,
			Ports:                []nffg.NFPort{{ID: "0"}, {ID: "1"}},
			TechnologyPreference: tech,
			Config:               cfg,
		}},
		Endpoints: []nffg.Endpoint{
			{ID: "in", Type: nffg.EPInterface, Interface: "eth0"},
			{ID: "out", Type: nffg.EPInterface, Interface: "eth1"},
		},
		Rules: []nffg.FlowRule{
			{ID: "r1", Priority: 10, Match: nffg.RuleMatch{PortIn: nffg.EndpointRef("in")},
				Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.NFPortRef("nf", "0")}}},
			{ID: "r2", Priority: 10, Match: nffg.RuleMatch{PortIn: nffg.NFPortRef("nf", "1")},
				Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.EndpointRef("out")}}},
			{ID: "r3", Priority: 10, Match: nffg.RuleMatch{PortIn: nffg.EndpointRef("out")},
				Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.NFPortRef("nf", "1")}}},
			{ID: "r4", Priority: 10, Match: nffg.RuleMatch{PortIn: nffg.NFPortRef("nf", "0")},
				Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.EndpointRef("in")}}},
		},
	}
}

// TestIntentConfiguredNNFThroughOrchestrator deploys a native firewall
// configured only through the generic intent vocabulary (the paper's
// future-work mechanism) and verifies enforcement end to end.
func TestIntentConfiguredNNFThroughOrchestrator(t *testing.T) {
	o := newNode(t)
	g := chainGraph("intents", "firewall", nffg.TechNative, map[string]string{
		"intent.block":  "udp/53",
		"intent.policy": "allow",
	})
	if err := o.Deploy(g); err != nil {
		t.Fatal(err)
	}
	dns := pkt.MustBuildFrame(pkt.FrameSpec{
		SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: pkt.Addr{10, 0, 0, 1}, DstIP: pkt.Addr{8, 8, 8, 8},
		SrcPort: 5353, DstPort: 53, PayloadLen: 40,
	})
	send(t, o, "eth0", dns)
	if _, ok := recv(t, o, "eth1"); ok {
		t.Error("intent.block not enforced through full deployment")
	}
	send(t, o, "eth0", clearFrame(t))
	if _, ok := recv(t, o, "eth1"); !ok {
		t.Error("allowed traffic dropped")
	}
	// Bad intents must fail the deploy, not silently pass.
	bad := chainGraph("bad-intents", "firewall", nffg.TechNative, map[string]string{
		"intent.block": "warp/99",
	})
	if err := o.Deploy(bad); err == nil {
		t.Error("bad intent accepted")
	}
}

// TestShaperChainPolices deploys a native shaper and verifies the policer
// drops a sustained over-rate stream measured on the virtual clock.
func TestShaperChainPolices(t *testing.T) {
	o := newNode(t)
	g := chainGraph("limited", "shaper", nffg.TechNative, map[string]string{
		"rate_mbps": "100",
		"burst_kb":  "3",
	})
	if err := o.Deploy(g); err != nil {
		t.Fatal(err)
	}
	outPort, _ := o.InterfacePort("eth1")
	passed := 0
	for i := 0; i < 500; i++ {
		send(t, o, "eth0", clearFrame(t))
		for {
			if _, ok := outPort.TryRecv(); !ok {
				break
			}
			passed++
		}
	}
	if passed == 0 {
		t.Fatal("shaper blocked everything (burst should pass)")
	}
	if passed > 250 {
		t.Errorf("shaper passed %d/500 of a stream far above its rate", passed)
	}
}

// TestUpdateFailureKeepsOldGraphRunning injects a failure into Update (an
// added NF with invalid configuration) and verifies the deployed service
// keeps forwarding.
func TestUpdateFailureKeepsOldGraphRunning(t *testing.T) {
	o := newNode(t)
	if err := o.Deploy(ipsecGraph("g1", nffg.TechNative)); err != nil {
		t.Fatal(err)
	}
	upd := ipsecGraph("g1", nffg.TechNative)
	upd.NFs = append(upd.NFs, nffg.NF{
		ID: "broken", Name: "ipsec",
		Ports:                []nffg.NFPort{{ID: "0"}, {ID: "1"}},
		TechnologyPreference: nffg.TechDocker,
		Config:               map[string]string{"local": "not-an-ip"},
	})
	upd.Rules = append(upd.Rules, nffg.FlowRule{
		ID: "rb", Priority: 1,
		Match:   nffg.RuleMatch{PortIn: nffg.NFPortRef("broken", "0")},
		Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.EndpointRef("lan")}},
	})
	if err := o.Update(upd); err == nil {
		t.Fatal("update with broken NF accepted")
	}
	// The original chain still works.
	send(t, o, "eth0", clearFrame(t))
	if _, ok := recv(t, o, "eth1"); !ok {
		t.Error("original service broken by failed update")
	}
}

// TestUpdateEndpointChangeInPlace changes a deployed graph's endpoint from a
// plain interface to a VLAN sub-interface without redeploying, and verifies
// the restitched datapath end-to-end: the global scheduler relies on this
// when it moves cross-node stitches.
func TestUpdateEndpointChangeInPlace(t *testing.T) {
	o := newNode(t)
	if err := o.Deploy(ipsecGraph("g1", nffg.TechNative)); err != nil {
		t.Fatal(err)
	}
	upd := ipsecGraph("g1", nffg.TechNative)
	upd.Endpoints[1] = nffg.Endpoint{ID: "wan", Type: nffg.EPVLAN, Interface: "eth1", VLANID: 9}
	if err := o.Update(upd); err != nil {
		t.Fatalf("in-place endpoint change rejected: %v", err)
	}
	// LAN traffic now leaves eth1 tagged with the new endpoint's VLAN.
	send(t, o, "eth0", clearFrame(t))
	wire, ok := recv(t, o, "eth1")
	if !ok {
		t.Fatal("nothing emitted on the WAN side after endpoint change")
	}
	p := pkt.NewPacket(wire, pkt.LayerTypeEthernet, pkt.Default)
	vlan, isVLAN := p.Layer(pkt.LayerTypeVLAN).(*pkt.VLAN)
	if !isVLAN {
		t.Fatalf("WAN traffic not VLAN-tagged after endpoint change: %v", p)
	}
	if vlan.VLANID != 9 {
		t.Errorf("WAN VLAN id = %d, want 9", vlan.VLANID)
	}
	// The old untagged classification is gone: tagged return traffic still
	// reaches the graph, and a second update restoring the interface
	// endpoint works too.
	if err := o.Update(ipsecGraph("g1", nffg.TechNative)); err != nil {
		t.Fatalf("restoring interface endpoint: %v", err)
	}
	send(t, o, "eth0", clearFrame(t))
	wire, ok = recv(t, o, "eth1")
	if !ok {
		t.Fatal("nothing emitted after restoring the interface endpoint")
	}
	q := pkt.NewPacket(wire, pkt.LayerTypeEthernet, pkt.Default)
	if q.Layer(pkt.LayerTypeVLAN) != nil {
		t.Error("WAN traffic still VLAN-tagged after restoring interface endpoint")
	}
}

// TestFlowStatsThroughController reads per-rule counters over the OpenFlow
// channel of a deployed graph.
func TestFlowStatsThroughController(t *testing.T) {
	o := newNode(t)
	if err := o.Deploy(ipsecGraph("g1", nffg.TechNative)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		send(t, o, "eth0", clearFrame(t))
		_, _ = recv(t, o, "eth1")
	}
	d, _ := o.Graph("g1")
	stats, err := d.Controller().FlowStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 4 {
		t.Fatalf("stats entries = %d, want 4 rules", len(stats))
	}
	var hits uint64
	for _, s := range stats {
		hits += s.Packets
	}
	// r1 (lan->vpn) and r2 (vpn->wan) each saw 5 packets.
	if hits != 10 {
		t.Errorf("total rule hits = %d, want 10", hits)
	}
}

// TestInterfacePortsIsolatedPerNode ensures two nodes do not share state.
func TestInterfacePortsIsolatedPerNode(t *testing.T) {
	a := newNode(t)
	b := newNode(t)
	if err := a.Deploy(ipsecGraph("g", nffg.TechNative)); err != nil {
		t.Fatal(err)
	}
	// The same exclusive NNF is free on node b: separate managers.
	if err := b.Deploy(ipsecGraph("g", nffg.TechNative)); err != nil {
		t.Fatal(err)
	}
	send(t, a, "eth0", clearFrame(t))
	if _, ok := recv(t, b, "eth1"); ok {
		t.Error("traffic crossed between nodes")
	}
	if _, ok := recv(t, a, "eth1"); !ok {
		t.Error("traffic lost on its own node")
	}
}

// TestManyGraphsStress deploys and tears down a batch of graphs, checking
// for leaks in LSI-0 state.
func TestManyGraphsStress(t *testing.T) {
	o := newNode(t)
	baseFlows := len(o.LSI0().Flows())
	basePorts := len(o.LSI0().Ports())
	for round := 0; round < 3; round++ {
		ids := []string{}
		for i := 0; i < 8; i++ {
			id := string(rune('a'+round)) + string(rune('0'+i))
			g := firewallGraph(id, uint16(400+round*10+i), "")
			if err := o.Deploy(g); err != nil {
				t.Fatalf("round %d graph %s: %v", round, id, err)
			}
			ids = append(ids, id)
		}
		if got := len(o.GraphIDs()); got != 8 {
			t.Fatalf("deployed %d, want 8", got)
		}
		for _, id := range ids {
			if err := o.Undeploy(id); err != nil {
				t.Fatal(err)
			}
		}
		if got := len(o.LSI0().Flows()); got != baseFlows {
			t.Fatalf("round %d: LSI-0 flows leaked: %d -> %d", round, baseFlows, got)
		}
		if got := len(o.LSI0().Ports()); got != basePorts {
			t.Fatalf("round %d: LSI-0 ports leaked: %d -> %d", round, basePorts, got)
		}
	}
}

// TestUndeployReleasesLSI checks that an undeployed graph's LSI — whose
// microflow cache alone is 64 KB — does not stay reachable from the
// orchestrator: the heap must not grow by a switch per lifecycle.
func TestUndeployReleasesLSI(t *testing.T) {
	o := newNode(t)
	cycle := func(n int) {
		for i := 0; i < n; i++ {
			if err := o.Deploy(ipsecGraph("g", nffg.TechNative)); err != nil {
				t.Fatal(err)
			}
			if err := o.Undeploy("g"); err != nil {
				t.Fatal(err)
			}
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // sync.Pool victims go on the second cycle
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	cycle(10) // warm: journal ring, metric series, pools
	before := heap()
	const n = 100
	cycle(n)
	after := heap()
	t.Logf("per lifecycle: %d B", (int64(after)-int64(before))/n)
	if after > before && (after-before)/n > 8<<10 {
		t.Errorf("heap grew %d B per deploy/undeploy lifecycle (%d -> %d over %d): an undeployed LSI is retained",
			(after-before)/n, before, after, n)
	}
}
