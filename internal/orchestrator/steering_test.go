package orchestrator

import (
	"testing"

	"repro/internal/nffg"
	"repro/internal/pkt"
)

// TestSteeringHonoursRuleFields deploys a graph whose rules use every NF-FG
// match field and every rule action, then sends frames that differ from the
// matching one in one field at a time. Only the matching frame takes the
// specific rule (retagged, MACs rewritten, out of eth1); every other one
// falls through to the catch-all, which is listed first and wins only by
// priority, and leaves on eth2 untouched.
func TestSteeringHonoursRuleFields(t *testing.T) {
	o := newNode(t, "eth0", "eth1", "eth2")
	srcMAC, dstMAC := pkt.MAC{2, 0, 0, 0, 0, 0xaa}, pkt.MAC{2, 0, 0, 0, 0, 0xbb}
	g := &nffg.Graph{
		ID: "fields",
		Endpoints: []nffg.Endpoint{
			{ID: "in", Type: nffg.EPInterface, Interface: "eth0"},
			{ID: "hit", Type: nffg.EPInterface, Interface: "eth1"},
			{ID: "miss", Type: nffg.EPInterface, Interface: "eth2"},
		},
		Rules: []nffg.FlowRule{
			{ID: "all", Priority: 1,
				Match:   nffg.RuleMatch{PortIn: nffg.EndpointRef("in")},
				Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.EndpointRef("miss")}}},
			{ID: "fields", Priority: 10,
				Match: nffg.RuleMatch{PortIn: nffg.EndpointRef("in"), EtherType: 0x0800, VLANID: 7,
					IPProto: 17, IPSrc: "10.0.0.0/24", IPDst: "10.0.1.2/32", L4Src: 1000, L4Dst: 80},
				Actions: []nffg.RuleAction{
					{Type: nffg.ActPopVLAN},
					{Type: nffg.ActPushVLAN, VLANID: 9},
					{Type: nffg.ActSetEthSrc, MAC: srcMAC.String()},
					{Type: nffg.ActSetEthDst, MAC: dstMAC.String()},
					{Type: nffg.ActOutput, Output: nffg.EndpointRef("hit")},
				}},
		},
	}
	if err := o.Deploy(g); err != nil {
		t.Fatal(err)
	}
	matching := pkt.FrameSpec{
		SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2}, VLANID: 7,
		SrcIP: pkt.Addr{10, 0, 0, 5}, DstIP: pkt.Addr{10, 0, 1, 2}, Proto: pkt.IPProtocolUDP,
		SrcPort: 1000, DstPort: 80, PayloadLen: 16,
	}

	send(t, o, "eth0", pkt.MustBuildFrame(matching))
	if _, ok := recv(t, o, "eth2"); ok {
		t.Error("the matching frame took the catch-all: priority not honoured")
	}
	out, ok := recv(t, o, "eth1")
	if !ok {
		t.Fatal("the matching frame did not take its rule")
	}
	p := pkt.NewPacket(out, pkt.LayerTypeEthernet, pkt.Default)
	if v, ok := p.Layer(pkt.LayerTypeVLAN).(*pkt.VLAN); !ok || v.VLANID != 9 {
		t.Errorf("pop_vlan + push_vlan 9 not applied: %v", p)
	}
	if eth := p.Layer(pkt.LayerTypeEthernet).(*pkt.Ethernet); eth.SrcMAC != srcMAC || eth.DstMAC != dstMAC {
		t.Errorf("set_eth_src/dst not applied: %v -> %v", eth.SrcMAC, eth.DstMAC)
	}

	build := func(change func(*pkt.FrameSpec)) []byte {
		spec := matching
		change(&spec)
		return pkt.MustBuildFrame(spec)
	}
	notIPv4 := pkt.MustBuildFrame(matching)
	notIPv4[16], notIPv4[17] = 0x86, 0xdd // the EtherType under the tag
	for field, frame := range map[string][]byte{
		"ether_type":  notIPv4,
		"vlan_id":     build(func(s *pkt.FrameSpec) { s.VLANID = 8 }),
		"protocol":    build(func(s *pkt.FrameSpec) { s.Proto = pkt.IPProtocolTCP }),
		"source_ip":   build(func(s *pkt.FrameSpec) { s.SrcIP = pkt.Addr{10, 0, 9, 5} }),
		"dest_ip":     build(func(s *pkt.FrameSpec) { s.DstIP = pkt.Addr{10, 0, 1, 3} }),
		"source_port": build(func(s *pkt.FrameSpec) { s.SrcPort = 1001 }),
		"dest_port":   build(func(s *pkt.FrameSpec) { s.DstPort = 81 }),
	} {
		send(t, o, "eth0", frame)
		if _, ok := recv(t, o, "eth1"); ok {
			t.Errorf("%s: a frame that differs in it took the rule", field)
		}
		if _, ok := recv(t, o, "eth2"); !ok {
			t.Errorf("%s: the differing frame did not fall through to the catch-all", field)
		}
	}
}
