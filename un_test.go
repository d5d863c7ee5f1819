package un_test

import (
	"bytes"
	"testing"

	un "repro"
	"repro/internal/bench"
	"repro/internal/netdev"
	"repro/internal/pkt"
	"repro/internal/rest"
)

func ipsecConfig() map[string]string {
	return map[string]string{
		"local":  "192.0.2.1",
		"remote": "203.0.113.9",
		"spi":    "4096",
		"key":    "000102030405060708090a0b0c0d0e0f10111213",
	}
}

// cpeGraph is the paper's validation scenario as a public-API value.
func cpeGraph(id string, tech un.Technology) *un.Graph {
	return &un.Graph{
		ID: id,
		NFs: []un.NF{{
			ID: "vpn", Name: "ipsec",
			Ports:                []un.NFPort{{ID: "0"}, {ID: "1"}},
			TechnologyPreference: tech,
			Config:               ipsecConfig(),
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
			{ID: "r3", Priority: 10, Match: un.RuleMatch{PortIn: un.EndpointRef("wan")},
				Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.NFPortRef("vpn", "1")}}},
			{ID: "r4", Priority: 10, Match: un.RuleMatch{PortIn: un.NFPortRef("vpn", "0")},
				Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.EndpointRef("lan")}}},
		},
	}
}

func TestNodeLifecycle(t *testing.T) {
	node, err := un.NewNode(un.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if err := node.Deploy(cpeGraph("g1", un.TechAny)); err != nil {
		t.Fatal(err)
	}
	if ids := node.GraphIDs(); len(ids) != 1 || ids[0] != "g1" {
		t.Fatalf("GraphIDs = %v", ids)
	}
	if g, ok := node.Graph("g1"); !ok || g.ID != "g1" {
		t.Error("Graph lookup failed")
	}
	pl, ok := node.Placements("g1")
	if !ok || pl["vpn"] != un.TechNative {
		t.Errorf("placements = %v", pl)
	}
	ram, ok := node.InstanceRAM("g1", "vpn")
	if !ok || ram == 0 {
		t.Error("InstanceRAM failed")
	}
	usedCPU, totalCPU, usedRAM, totalRAM := node.Usage()
	if usedCPU == 0 || totalCPU != 16000 || usedRAM == 0 || totalRAM != 8*un.GB {
		t.Errorf("usage = %d/%d %d/%d", usedCPU, totalCPU, usedRAM, totalRAM)
	}
	if err := node.Undeploy("g1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := node.Graph("g1"); ok {
		t.Error("graph survived undeploy")
	}
}

func TestNodeTrafficThroughPublicAPI(t *testing.T) {
	node, err := un.NewNode(un.Config{Name: "cpe"})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if err := node.Deploy(cpeGraph("vpn", un.TechNative)); err != nil {
		t.Fatal(err)
	}
	lan, ok := node.InterfacePort("eth0")
	if !ok {
		t.Fatal("no eth0")
	}
	wan, ok := node.InterfacePort("eth1")
	if !ok {
		t.Fatal("no eth1")
	}
	rep, err := bench.Run(lan, wan, node.Clock(), bench.Spec{Packets: 200, FrameSize: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RxPackets != 200 || rep.LossRate() != 0 {
		t.Fatalf("report = %v", rep)
	}
	if rep.MbpsVirtual() <= 0 {
		t.Error("no throughput measured")
	}
}

func TestNodeConfigDefaults(t *testing.T) {
	node, err := un.NewNode(un.Config{
		Name:         "tiny-cpe",
		Interfaces:   []string{"wan0"},
		CPUMillis:    1000,
		RAMBytes:     256 * un.MB,
		Capabilities: []string{"nnf:firewall"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	// A VM cannot deploy on this node: no kvm capability and no RAM.
	g := cpeGraph("g", un.TechVM)
	g.Endpoints = []un.Endpoint{
		{ID: "lan", Type: un.EPInterface, Interface: "wan0"},
		{ID: "wan", Type: un.EPInterface, Interface: "wan0"},
	}
	if err := node.Deploy(g); err == nil {
		t.Error("VM deployed on a node without kvm")
	}
	topo := node.Topology()
	if topo.NodeName != "tiny-cpe" || len(topo.Interfaces) != 1 {
		t.Errorf("topology = %+v", topo)
	}
}

func TestNodeImageSizes(t *testing.T) {
	node, err := un.NewNode(un.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	for img, wantMB := range map[string]uint64{
		"ipsec:vm": 522, "ipsec:docker": 240, "ipsec:native": 5,
	} {
		size, err := node.ImageDiskSize(img)
		if err != nil {
			t.Fatal(err)
		}
		if size/un.MB != wantMB {
			t.Errorf("%s = %d MB, want %d", img, size/un.MB, wantMB)
		}
	}
	if _, err := node.ImageDiskSize("ghost:img"); err == nil {
		t.Error("unknown image size returned")
	}
}

func TestNodeESPOnTheWire(t *testing.T) {
	node, err := un.NewNode(un.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if err := node.Deploy(cpeGraph("vpn", un.TechNative)); err != nil {
		t.Fatal(err)
	}
	lan, _ := node.InterfacePort("eth0")
	wan, _ := node.InterfacePort("eth1")
	spec := bench.Spec{Packets: 1, FrameSize: 1000}
	if _, err := bench.Run(lan, wan, node.Clock(), spec); err != nil {
		t.Fatal(err)
	}
	// Peek at what actually left the WAN: must be ESP with our SPI...
	// consumed by bench.Run already, so send one more frame manually.
	frame, err := spec.Frame()
	if err != nil {
		t.Fatal(err)
	}
	if err := lan.Send(netdev.Frame{Data: frame}); err != nil {
		t.Fatal(err)
	}
	out, ok := wan.TryRecv()
	if !ok {
		t.Fatal("no WAN frame")
	}
	p := pkt.NewPacket(out.Data, pkt.LayerTypeEthernet, pkt.Default)
	esp, isESP := p.Layer(pkt.LayerTypeESP).(*pkt.ESP)
	if !isESP {
		t.Fatalf("WAN traffic not ESP: %v", p)
	}
	if esp.SPI != 4096 {
		t.Errorf("SPI = %d, want 4096", esp.SPI)
	}
}

func TestCaptureInterfacePcap(t *testing.T) {
	node, err := un.NewNode(un.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if err := node.Deploy(cpeGraph("vpn", un.TechNative)); err != nil {
		t.Fatal(err)
	}
	var lanCap, wanCap bytes.Buffer
	stopLan, err := node.CaptureInterface("eth0", &lanCap)
	if err != nil {
		t.Fatal(err)
	}
	stopWan, err := node.CaptureInterface("eth1", &wanCap)
	if err != nil {
		t.Fatal(err)
	}
	lan, _ := node.InterfacePort("eth0")
	if _, err := bench.Run(lan, mustPort(t, node, "eth1"), node.Clock(),
		bench.Spec{Packets: 5, FrameSize: 600}); err != nil {
		t.Fatal(err)
	}
	stopLan()
	stopWan()

	lanPkts, err := rest.NewPcapReader(bytes.NewReader(lanCap.Bytes())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	wanPkts, err := rest.NewPcapReader(bytes.NewReader(wanCap.Bytes())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(lanPkts) != 5 || len(wanPkts) != 5 {
		t.Fatalf("captured %d lan / %d wan packets, want 5/5", len(lanPkts), len(wanPkts))
	}
	// The LAN capture holds cleartext UDP; the WAN capture holds ESP.
	lanP := pkt.NewPacket(lanPkts[0].Data, pkt.LayerTypeEthernet, pkt.Default)
	if lanP.Layer(pkt.LayerTypeUDP) == nil {
		t.Error("lan capture not cleartext")
	}
	wanP := pkt.NewPacket(wanPkts[0].Data, pkt.LayerTypeEthernet, pkt.Default)
	if wanP.Layer(pkt.LayerTypeESP) == nil {
		t.Error("wan capture not ESP")
	}
	// After stop, no more records accumulate.
	before := lanCap.Len()
	_ = lan.Send(netdev.Frame{Data: lanPkts[0].Data})
	if lanCap.Len() != before {
		t.Error("capture still active after stop")
	}
	if _, err := node.CaptureInterface("eth9", &lanCap); err == nil {
		t.Error("capture on unknown interface accepted")
	}
}

func mustPort(t *testing.T, node *un.Node, name string) *netdev.Port {
	t.Helper()
	p, ok := node.InterfacePort(name)
	if !ok {
		t.Fatalf("no interface %q", name)
	}
	return p
}
