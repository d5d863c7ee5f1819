package global_test

import (
	"strings"
	"testing"

	"repro/internal/nffg"
	"repro/internal/pkt"
	"repro/internal/telemetry"
)

// haNATGraph is a source NAT between eth0 and eth1 carrying an
// active-standby availability contract — the shape that makes the global
// tier arm a shadow deployment on a second node.
func haNATGraph(id string) *nffg.Graph {
	return &nffg.Graph{
		ID: id,
		NFs: []nffg.NF{{
			ID: "nat", Name: "nat",
			Ports:                []nffg.NFPort{{ID: "0"}, {ID: "1"}},
			TechnologyPreference: nffg.TechDocker,
			Config:               map[string]string{"external_ip": "198.51.100.1"},
			Availability:         0.999,
			Redundancy:           nffg.RedundancyActiveStandby,
		}},
		Endpoints: []nffg.Endpoint{
			{ID: "lan", Type: nffg.EPInterface, Interface: "eth0"},
			{ID: "wan", Type: nffg.EPInterface, Interface: "eth1"},
		},
		Rules: []nffg.FlowRule{
			{ID: "r1", Priority: 10,
				Match:   nffg.RuleMatch{PortIn: nffg.EndpointRef("lan")},
				Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.NFPortRef("nat", "0")}}},
			{ID: "r2", Priority: 10,
				Match:   nffg.RuleMatch{PortIn: nffg.NFPortRef("nat", "1")},
				Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.EndpointRef("wan")}}},
			{ID: "r3", Priority: 10,
				Match:   nffg.RuleMatch{PortIn: nffg.EndpointRef("wan")},
				Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.NFPortRef("nat", "1")}}},
			{ID: "r4", Priority: 10,
				Match:   nffg.RuleMatch{PortIn: nffg.NFPortRef("nat", "0")},
				Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.EndpointRef("lan")}}},
		},
	}
}

// natProbe opens one connection through the NAT on the given node and
// returns the external port it was bound to.
func natProbe(t *testing.T, f *fleet, node string, srcLast byte, srcPort uint16) uint16 {
	t.Helper()
	frame := pkt.MustBuildFrame(pkt.FrameSpec{
		SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: pkt.Addr{10, 0, 0, srcLast}, DstIP: pkt.Addr{203, 0, 113, 50},
		SrcPort: srcPort, DstPort: 53, PayloadLen: 64,
	})
	f.send(t, node, "eth0", frame)
	out, ok := f.recv(t, node, "eth1")
	if !ok {
		t.Fatalf("NAT on %q dropped the probe", node)
	}
	udp, ok := pkt.NewPacket(out, pkt.LayerTypeEthernet, pkt.Default).Layer(pkt.LayerTypeUDP).(*pkt.UDP)
	if !ok {
		t.Fatalf("NAT on %q emitted a non-UDP frame", node)
	}
	return udp.SrcPort
}

// TestNodeKillPromotesStandbyNode: a graph with an active-standby NAT is
// shadowed on a second node; killing the primary's control plane makes
// one reconcile pass flip the deployment onto the warm shadow, and the
// state-synced bindings survive — the PR's acceptance scenario at the
// fleet tier.
func TestNodeKillPromotesStandbyNode(t *testing.T) {
	f := newFleet(t,
		[]nodeSpec{
			{name: "ha1", ifaces: []string{"eth0", "eth1"}, cpuMillis: 2000},
			{name: "ha2", ifaces: []string{"eth0", "eth1"}, cpuMillis: 2000},
		}, nil)
	if err := f.g.Deploy(haNATGraph("av")); err != nil {
		t.Fatal(err)
	}
	pl, ok := f.g.Placement("av")
	if !ok {
		t.Fatal("no placement recorded")
	}
	primary := pl.NFNode["nat"]
	standby := f.g.StandbyNode("av")
	if standby == "" || standby == primary {
		t.Fatalf("standby node = %q (primary %q), want a distinct shadow", standby, primary)
	}
	// The shadow is a real warm deployment on the second node.
	found := false
	for _, id := range f.nodes[standby].GraphIDs() {
		if id == "av" {
			found = true
		}
	}
	if !found {
		t.Fatalf("standby node %q holds no shadow deployment", standby)
	}

	// Live state: open connections through the primary, sync, then kill it.
	ext1 := natProbe(t, f, primary, 1, 30001)
	ext2 := natProbe(t, f, primary, 2, 30002)
	if n := f.g.SyncStandbys(); n == 0 {
		t.Fatal("SyncStandbys replicated no flow state")
	}
	f.locals[primary].SetDown(true)
	f.g.ReconcileOnce()

	pl, _ = f.g.Placement("av")
	if got := pl.NFNode["nat"]; got != standby {
		t.Fatalf("NAT on %q after node kill, want promoted standby %q", got, standby)
	}
	if got := f.g.StandbyNode("av"); got != "" {
		t.Fatalf("standby node = %q after promotion with no spare node, want none", got)
	}
	// Zero state loss: the same flows translate to the same external ports
	// on the promoted node.
	if got := natProbe(t, f, standby, 1, 30001); got != ext1 {
		t.Errorf("conn 1 binding changed across the node kill: ext port %d, want %d", got, ext1)
	}
	if got := natProbe(t, f, standby, 2, 30002); got != ext2 {
		t.Errorf("conn 2 binding changed across the node kill: ext port %d, want %d", got, ext2)
	}

	// The journal carries the outage and the promotion.
	var sawOutage, sawPromote bool
	for _, ev := range f.g.Journal().Events() {
		switch ev.Type {
		case telemetry.EventOutage:
			sawOutage = true
		case telemetry.EventPromote:
			sawPromote = true
		}
	}
	if !sawOutage || !sawPromote {
		t.Errorf("journal outage=%v promote=%v, want both", sawOutage, sawPromote)
	}

	// The failed node comes back: anti-entropy retires its stale copy and
	// the reconcile loop re-arms it as the new shadow.
	f.locals[primary].SetDown(false)
	f.g.ReconcileOnce()
	if got := f.g.StandbyNode("av"); got != primary {
		t.Errorf("standby node = %q after the old primary returned, want %q", got, primary)
	}
}

// TestAntiAffinitySpreadsNFs: NFs sharing an anti-affinity group must land
// on distinct nodes even when one node could hold them all; when the group
// outgrows the fleet, the deploy fails with a telling error.
func TestAntiAffinitySpreadsNFs(t *testing.T) {
	f := newFleet(t,
		[]nodeSpec{
			{name: "n1", ifaces: []string{"lan", "wan", "x12"}, cpuMillis: 8000},
			{name: "n2", ifaces: []string{"x12"}, cpuMillis: 8000},
		},
		[]linkSpec{{a: "n1", aIf: "x12", b: "n2", bIf: "x12"}})

	g := chainGraph("aa", 2)
	g.NFs[0].AntiAffinity = "blast-radius"
	g.NFs[1].AntiAffinity = "blast-radius"
	if err := f.g.Deploy(g); err != nil {
		t.Fatal(err)
	}
	pl, _ := f.g.Placement("aa")
	if pl.NFNode["nf0"] == pl.NFNode["nf1"] {
		t.Fatalf("anti-affinity group co-located on %q: %v", pl.NFNode["nf0"], pl.NFNode)
	}

	over := chainGraph("aa-over", 3)
	for i := range over.NFs {
		over.NFs[i].AntiAffinity = "blast-radius"
	}
	err := f.g.Deploy(over)
	if err == nil {
		t.Fatal("3-member anti-affinity group deployed on a 2-node fleet")
	}
	if !strings.Contains(err.Error(), "anti-affinity") {
		t.Errorf("error does not name the constraint: %v", err)
	}
}

// TestUnlinkRepairsAroundSeveredLink: cutting the link a cross-node chain
// is stitched over re-places the graph onto the surviving path, and
// traffic keeps flowing end to end.
func TestUnlinkRepairsAroundSeveredLink(t *testing.T) {
	f := newFleet(t,
		[]nodeSpec{
			{name: "n1", ifaces: []string{"lan", "x12", "x13"}, cpuMillis: 4000},
			{name: "n2", ifaces: []string{"x12", "x23"}, cpuMillis: 4000},
			{name: "n3", ifaces: []string{"x13", "x23", "wan"}, cpuMillis: 4000},
		},
		[]linkSpec{
			{a: "n1", aIf: "x12", b: "n2", bIf: "x12"},
			{a: "n2", aIf: "x23", b: "n3", bIf: "x23"},
			{a: "n1", aIf: "x13", b: "n3", bIf: "x13"},
		})
	if err := f.g.Deploy(chainGraph("ch", 3)); err != nil {
		t.Fatal(err)
	}
	frame := testFrame(t, 0x21)
	f.send(t, "n1", "lan", frame)
	if _, ok := f.recv(t, "n3", "wan"); !ok {
		t.Fatal("chain dropped traffic before the cut")
	}
	if err := f.g.Unlink("n1", "x13", "n3", "x13"); err != nil {
		t.Fatal(err)
	}
	if got := len(f.g.Links()); got != 2 {
		t.Fatalf("links after Unlink = %d, want 2", got)
	}
	frame = testFrame(t, 0x22)
	f.send(t, "n1", "lan", frame)
	if _, ok := f.recv(t, "n3", "wan"); !ok {
		t.Fatal("chain dead after link cut despite a surviving path")
	}
	// Severing an unknown link is an explicit error, not a silent no-op.
	if err := f.g.Unlink("n1", "ghost", "n3", "ghost"); err == nil {
		t.Error("unlinking an undeclared link succeeded")
	}
}

// TestDriftRepairRestoresLostShadow: the shadow is part of the graph's
// footprint, so a standby node that restarts empty gets it back — and
// state-synced — in one reconcile pass. Before the footprint included it,
// the orchestrator kept pointing at a node that held nothing and a later
// promotion flipped onto an empty node.
func TestDriftRepairRestoresLostShadow(t *testing.T) {
	f := newFleet(t,
		[]nodeSpec{
			{name: "ha1", ifaces: []string{"eth0", "eth1"}, cpuMillis: 2000},
			{name: "ha2", ifaces: []string{"eth0", "eth1"}, cpuMillis: 2000},
		}, nil)
	if err := f.g.Deploy(haNATGraph("av")); err != nil {
		t.Fatal(err)
	}
	pl, _ := f.g.Placement("av")
	primary, standby := pl.NFNode["nat"], f.g.StandbyNode("av")
	if standby == "" {
		t.Fatal("no shadow armed")
	}
	ext := natProbe(t, f, primary, 1, 30001)

	// The standby node comes back from a restart with nothing on it.
	if err := f.nodes[standby].Undeploy("av"); err != nil {
		t.Fatal(err)
	}
	f.g.ReconcileOnce()
	if got := f.g.StandbyNode("av"); got != standby {
		t.Fatalf("standby node = %q after the repair pass, want %q kept", got, standby)
	}
	if _, ok := f.nodes[standby].Graph("av"); !ok {
		t.Fatal("one reconcile pass did not redeploy the lost shadow")
	}
	// State-synced by the same pass: the primary dies and the promoted
	// shadow still translates the open connection to the same binding.
	f.locals[primary].SetDown(true)
	f.g.ReconcileOnce()
	if pl, _ = f.g.Placement("av"); pl.NFNode["nat"] != standby {
		t.Fatalf("NAT on %q after the node kill, want promoted standby %q", pl.NFNode["nat"], standby)
	}
	if got := natProbe(t, f, standby, 1, 30001); got != ext {
		t.Errorf("binding changed across repair and promotion: ext port %d, want %d", got, ext)
	}
}

// TestUpdateCarriesShadow: updating a shadowed graph updates the shadow in
// place as part of the same move; a shadow node that refuses the new version
// costs the graph its spare, never the update.
func TestUpdateCarriesShadow(t *testing.T) {
	f := newFleet(t,
		[]nodeSpec{
			{name: "ha1", ifaces: []string{"eth0", "eth1"}, cpuMillis: 2000},
			{name: "ha2", ifaces: []string{"eth0", "eth1"}, cpuMillis: 2000},
		}, nil)
	if err := f.g.Deploy(haNATGraph("av")); err != nil {
		t.Fatal(err)
	}
	standby := f.g.StandbyNode("av")
	externalIP := func(node string) string {
		g, ok := f.nodes[node].Graph("av")
		if !ok {
			return ""
		}
		return g.FindNF("nat").Config["external_ip"]
	}

	v2 := haNATGraph("av")
	v2.NFs[0].Config["external_ip"] = "198.51.100.2"
	if err := f.g.Update(v2); err != nil {
		t.Fatal(err)
	}
	if got := f.g.StandbyNode("av"); got != standby {
		t.Fatalf("standby node = %q after an update, want %q kept", got, standby)
	}
	if got := externalIP(standby); got != "198.51.100.2" {
		t.Fatalf("shadow runs external_ip %q after the update, want the new version", got)
	}

	v3 := haNATGraph("av")
	v3.NFs[0].Config["external_ip"] = "198.51.100.3"
	f.locals[standby].refuse("update")
	if err := f.g.Update(v3); err != nil {
		t.Fatalf("update failed because the spare refused it: %v", err)
	}
	pl, _ := f.g.Placement("av")
	if got := externalIP(pl.NFNode["nat"]); got != "198.51.100.3" {
		t.Fatalf("primary runs external_ip %q, want the new version", got)
	}
	if got := f.g.StandbyNode("av"); got != "" {
		t.Fatalf("standby node = %q, want the refusing shadow dropped", got)
	}
	if got := externalIP(standby); got != "" {
		t.Fatalf("dropped shadow still deployed (external_ip %q)", got)
	}
	// The node cooperates again: the reconcile loop re-arms it.
	f.locals[standby].refuse()
	f.g.ReconcileOnce()
	if got := f.g.StandbyNode("av"); got != standby {
		t.Fatalf("standby node = %q after the next pass, want %q re-armed", got, standby)
	}
	if got := externalIP(standby); got != "198.51.100.3" {
		t.Fatalf("re-armed shadow runs external_ip %q, want the current version", got)
	}
}
