package vswitch

import (
	"testing"

	"repro/internal/netdev"
	"repro/internal/pkt"
)

var (
	macA = pkt.MAC{2, 0, 0, 0, 0, 0xa}
	macB = pkt.MAC{2, 0, 0, 0, 0, 0xb}
	ipA  = pkt.Addr{10, 0, 0, 1}
	ipB  = pkt.Addr{10, 0, 0, 2}
)

// rig wires N external "host" ports to a switch and returns their far ends,
// which tests use to send and receive.
func rig(t *testing.T, sw *Switch, n int) []*netdev.Port {
	t.Helper()
	hosts := make([]*netdev.Port, n)
	for i := 0; i < n; i++ {
		host, swSide := netdev.Veth("host", "sw")
		if err := sw.AddPort(uint32(i+1), swSide); err != nil {
			t.Fatal(err)
		}
		hosts[i] = host
	}
	return hosts
}

func frame(t testing.TB, vlan uint16, dstPort uint16) []byte {
	t.Helper()
	f, err := pkt.BuildFrame(pkt.FrameSpec{
		SrcMAC: macA, DstMAC: macB, VLANID: vlan,
		SrcIP: ipA, DstIP: ipB,
		SrcPort: 1000, DstPort: dstPort, PayloadLen: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func mustAdd(t *testing.T, sw *Switch, e *FlowEntry) {
	t.Helper()
	if err := sw.AddFlow(e); err != nil {
		t.Fatal(err)
	}
}

func TestBasicForwarding(t *testing.T) {
	sw := New("lsi", 1)
	hosts := rig(t, sw, 2)
	mustAdd(t, sw, &FlowEntry{Match: MatchAll().WithInPort(1), Actions: []Action{Output(2)}})
	if err := hosts[0].Send(netdev.Frame{Data: frame(t, 0, 80)}); err != nil {
		t.Fatal(err)
	}
	if _, ok := hosts[1].TryRecv(); !ok {
		t.Fatal("frame not forwarded 1->2")
	}
	// No reverse rule: must miss.
	_ = hosts[1].Send(netdev.Frame{Data: frame(t, 0, 80)})
	if _, ok := hosts[0].TryRecv(); ok {
		t.Fatal("frame forwarded without a rule")
	}
	if sw.Misses() != 1 {
		t.Errorf("misses = %d, want 1", sw.Misses())
	}
}

func TestPriorityWins(t *testing.T) {
	sw := New("lsi", 1)
	hosts := rig(t, sw, 3)
	mustAdd(t, sw, &FlowEntry{Priority: 10, Match: MatchAll().WithInPort(1), Actions: []Action{Output(2)}})
	mustAdd(t, sw, &FlowEntry{Priority: 100, Match: MatchAll().WithInPort(1).WithL4Dst(443), Actions: []Action{Output(3)}})
	_ = hosts[0].Send(netdev.Frame{Data: frame(t, 0, 443)})
	if _, ok := hosts[2].TryRecv(); !ok {
		t.Error("high-priority rule not preferred")
	}
	if _, ok := hosts[1].TryRecv(); ok {
		t.Error("low-priority rule also fired")
	}
	_ = hosts[0].Send(netdev.Frame{Data: frame(t, 0, 80)})
	if _, ok := hosts[1].TryRecv(); !ok {
		t.Error("fallback rule not used for non-matching traffic")
	}
}

func TestEqualPriorityOldestWins(t *testing.T) {
	sw := New("lsi", 1)
	hosts := rig(t, sw, 3)
	mustAdd(t, sw, &FlowEntry{Priority: 5, Match: MatchAll(), Actions: []Action{Output(2)}})
	mustAdd(t, sw, &FlowEntry{Priority: 5, Match: MatchAll(), Actions: []Action{Output(3)}})
	_ = hosts[0].Send(netdev.Frame{Data: frame(t, 0, 80)})
	if _, ok := hosts[1].TryRecv(); !ok {
		t.Error("oldest equal-priority entry must win")
	}
	if _, ok := hosts[2].TryRecv(); ok {
		t.Error("newer equal-priority entry fired")
	}
}

func TestVLANPushPopSet(t *testing.T) {
	sw := New("lsi", 1)
	hosts := rig(t, sw, 2)
	mustAdd(t, sw, &FlowEntry{Match: MatchAll().WithInPort(1), Actions: []Action{PushVLAN(100), Output(2)}})
	_ = hosts[0].Send(netdev.Frame{Data: frame(t, 0, 80)})
	f, ok := hosts[1].TryRecv()
	if !ok {
		t.Fatal("no frame")
	}
	p := pkt.NewPacket(f.Data, pkt.LayerTypeEthernet, pkt.Default)
	v, okv := p.Layer(pkt.LayerTypeVLAN).(*pkt.VLAN)
	if !okv || v.VLANID != 100 {
		t.Fatalf("push_vlan failed: %v", p)
	}
	if p.Layer(pkt.LayerTypeUDP) == nil {
		t.Fatal("payload damaged by push")
	}

	// Now rewrite 100 -> 200 and pop in a second pass.
	sw2 := New("lsi2", 2)
	h2 := rig(t, sw2, 2)
	mustAdd(t, sw2, &FlowEntry{Priority: 10, Match: MatchAll().WithVLAN(100), Actions: []Action{SetVLAN(200), Output(2)}})
	_ = h2[0].Send(netdev.Frame{Data: f.Data})
	g, ok := h2[1].TryRecv()
	if !ok {
		t.Fatal("no frame from sw2")
	}
	q := pkt.NewPacket(g.Data, pkt.LayerTypeEthernet, pkt.Default)
	if v := q.Layer(pkt.LayerTypeVLAN).(*pkt.VLAN); v.VLANID != 200 {
		t.Fatalf("set_vlan failed: id=%d", v.VLANID)
	}

	sw3 := New("lsi3", 3)
	h3 := rig(t, sw3, 2)
	mustAdd(t, sw3, &FlowEntry{Match: MatchAll().WithVLAN(200), Actions: []Action{PopVLAN(), Output(2)}})
	_ = h3[0].Send(netdev.Frame{Data: g.Data})
	u, ok := h3[1].TryRecv()
	if !ok {
		t.Fatal("no frame from sw3")
	}
	r := pkt.NewPacket(u.Data, pkt.LayerTypeEthernet, pkt.Default)
	if r.Layer(pkt.LayerTypeVLAN) != nil {
		t.Fatal("pop_vlan left a tag")
	}
	if udp, ok := r.Layer(pkt.LayerTypeUDP).(*pkt.UDP); !ok || udp.DstPort != 80 {
		t.Fatal("payload damaged by pop")
	}
}

func TestVLANNoneMatchesUntaggedOnly(t *testing.T) {
	sw := New("lsi", 1)
	hosts := rig(t, sw, 3)
	mustAdd(t, sw, &FlowEntry{Priority: 10, Match: MatchAll().WithVLAN(VLANNone), Actions: []Action{Output(2)}})
	mustAdd(t, sw, &FlowEntry{Priority: 5, Match: MatchAll(), Actions: []Action{Output(3)}})
	_ = hosts[0].Send(netdev.Frame{Data: frame(t, 0, 80)})
	if _, ok := hosts[1].TryRecv(); !ok {
		t.Error("untagged frame not matched by vlan=none")
	}
	_ = hosts[0].Send(netdev.Frame{Data: frame(t, 7, 80)})
	if _, ok := hosts[2].TryRecv(); !ok {
		t.Error("tagged frame wrongly matched by vlan=none")
	}
}

func TestMultiTableMetadataPipeline(t *testing.T) {
	sw := New("lsi", 1)
	hosts := rig(t, sw, 3)
	// Table 0 classifies by in_port into metadata, table 1 switches on it.
	mustAdd(t, sw, &FlowEntry{Table: 0, Match: MatchAll().WithInPort(1),
		Actions: []Action{SetMetadata(0x1, 0xff), GotoTable(1)}})
	mustAdd(t, sw, &FlowEntry{Table: 0, Match: MatchAll().WithInPort(2),
		Actions: []Action{SetMetadata(0x2, 0xff), GotoTable(1)}})
	mustAdd(t, sw, &FlowEntry{Table: 1, Match: MatchAll().WithMetadata(0x1, 0xff),
		Actions: []Action{Output(3)}})
	mustAdd(t, sw, &FlowEntry{Table: 1, Match: MatchAll().WithMetadata(0x2, 0xff),
		Actions: []Action{Output(1)}})
	_ = hosts[0].Send(netdev.Frame{Data: frame(t, 0, 80)})
	if _, ok := hosts[2].TryRecv(); !ok {
		t.Error("metadata 0x1 path broken")
	}
	_ = hosts[1].Send(netdev.Frame{Data: frame(t, 0, 80)})
	if _, ok := hosts[0].TryRecv(); !ok {
		t.Error("metadata 0x2 path broken")
	}
}

func TestGotoTableMustMoveForward(t *testing.T) {
	sw := New("lsi", 1)
	if err := sw.AddFlow(&FlowEntry{Table: 2, Actions: []Action{GotoTable(1)}}); err == nil {
		t.Error("backward goto accepted")
	}
	if err := sw.AddFlow(&FlowEntry{Table: 1, Actions: []Action{GotoTable(1)}}); err == nil {
		t.Error("self goto accepted")
	}
	if err := sw.AddFlow(&FlowEntry{Table: 9, Actions: nil}); err == nil {
		t.Error("out-of-range table accepted")
	}
}

func TestFloodExcludesIngress(t *testing.T) {
	sw := New("lsi", 1)
	hosts := rig(t, sw, 4)
	mustAdd(t, sw, &FlowEntry{Match: MatchAll(), Actions: []Action{Flood()}})
	_ = hosts[1].Send(netdev.Frame{Data: frame(t, 0, 80)})
	if _, ok := hosts[1].TryRecv(); ok {
		t.Error("flood echoed to ingress")
	}
	for _, i := range []int{0, 2, 3} {
		if _, ok := hosts[i].TryRecv(); !ok {
			t.Errorf("flood missed port %d", i+1)
		}
	}
}

func TestPacketInOnMissAndAction(t *testing.T) {
	sw := New("lsi", 1)
	hosts := rig(t, sw, 1)
	var events []PacketIn
	sw.SetPacketInHandler(func(pi PacketIn) { events = append(events, pi) })
	sw.SetMissPolicy(MissController)
	_ = hosts[0].Send(netdev.Frame{Data: frame(t, 0, 80)})
	if len(events) != 1 || events[0].Reason != ReasonMiss || events[0].InPort != 1 {
		t.Fatalf("miss packet-in = %+v", events)
	}
	mustAdd(t, sw, &FlowEntry{Match: MatchAll(), Actions: []Action{ToController()}})
	_ = hosts[0].Send(netdev.Frame{Data: frame(t, 0, 80)})
	if len(events) != 2 || events[1].Reason != ReasonAction {
		t.Fatalf("action packet-in = %+v", events)
	}
}

func TestPacketOutInjectAndOutput(t *testing.T) {
	sw := New("lsi", 1)
	hosts := rig(t, sw, 2)
	mustAdd(t, sw, &FlowEntry{Match: MatchAll().WithInPort(1), Actions: []Action{Output(2)}})
	sw.Inject(1, frame(t, 0, 80))
	if _, ok := hosts[1].TryRecv(); !ok {
		t.Error("Inject did not traverse pipeline")
	}
	sw.Output(1, frame(t, 0, 80))
	if _, ok := hosts[0].TryRecv(); !ok {
		t.Error("Output did not bypass pipeline")
	}
}

func TestDeleteFlowsByCookie(t *testing.T) {
	sw := New("lsi", 1)
	mustAdd(t, sw, &FlowEntry{Cookie: 7, Match: MatchAll()})
	mustAdd(t, sw, &FlowEntry{Cookie: 7, Table: 1, Match: MatchAll()})
	mustAdd(t, sw, &FlowEntry{Cookie: 9, Match: MatchAll()})
	if n := sw.DeleteFlows(7); n != 2 {
		t.Errorf("deleted %d, want 2", n)
	}
	if len(sw.Flows()) != 1 {
		t.Errorf("remaining = %d, want 1", len(sw.Flows()))
	}
	if n := sw.DeleteAllFlows(); n != 1 {
		t.Errorf("DeleteAllFlows = %d, want 1", n)
	}
}

func TestFlowStatsCount(t *testing.T) {
	sw := New("lsi", 1)
	hosts := rig(t, sw, 2)
	e := &FlowEntry{Match: MatchAll().WithInPort(1), Actions: []Action{Output(2)}}
	mustAdd(t, sw, e)
	data := frame(t, 0, 80)
	for i := 0; i < 5; i++ {
		_ = hosts[0].Send(netdev.Frame{Data: data})
	}
	p, b := e.Stats()
	if p != 5 || b != uint64(5*len(data)) {
		t.Errorf("stats = %d pkts %d bytes", p, b)
	}
	if sw.PacketsProcessed() != 5 {
		t.Errorf("pipeline counter = %d", sw.PacketsProcessed())
	}
}

func TestMatchFields(t *testing.T) {
	sw := New("lsi", 1)
	hosts := rig(t, sw, 2)
	m := MatchAll().
		WithEthSrc(macA).WithEthDst(macB).WithEthType(pkt.EthernetTypeIPv4).
		WithIPSrc(pkt.Addr{10, 0, 0, 0}, 24).WithIPDst(ipB, 32).
		WithIPProto(pkt.IPProtocolUDP).WithL4Src(1000).WithL4Dst(80)
	mustAdd(t, sw, &FlowEntry{Match: m, Actions: []Action{Output(2)}})
	_ = hosts[0].Send(netdev.Frame{Data: frame(t, 0, 80)})
	if _, ok := hosts[1].TryRecv(); !ok {
		t.Error("full-field match failed")
	}
	_ = hosts[0].Send(netdev.Frame{Data: frame(t, 0, 81)})
	if _, ok := hosts[1].TryRecv(); ok {
		t.Error("wrong dst port matched")
	}
}

func TestSetEthAddrs(t *testing.T) {
	sw := New("lsi", 1)
	hosts := rig(t, sw, 2)
	newSrc := pkt.MAC{2, 2, 2, 2, 2, 2}
	newDst := pkt.MAC{4, 4, 4, 4, 4, 4}
	mustAdd(t, sw, &FlowEntry{Match: MatchAll(), Actions: []Action{SetEthSrc(newSrc), SetEthDst(newDst), Output(2)}})
	_ = hosts[0].Send(netdev.Frame{Data: frame(t, 0, 80)})
	f, ok := hosts[1].TryRecv()
	if !ok {
		t.Fatal("no frame")
	}
	p := pkt.NewPacket(f.Data, pkt.LayerTypeEthernet, pkt.Default)
	eth := p.Layer(pkt.LayerTypeEthernet).(*pkt.Ethernet)
	if eth.SrcMAC != newSrc || eth.DstMAC != newDst {
		t.Errorf("rewrite failed: %v -> %v", eth.SrcMAC, eth.DstMAC)
	}
}

func TestPortManagement(t *testing.T) {
	sw := New("lsi", 1)
	p := netdev.NewPort("x")
	if err := sw.AddPort(0, p); err == nil {
		t.Error("port 0 accepted")
	}
	if err := sw.AddPort(1, p); err != nil {
		t.Fatal(err)
	}
	if err := sw.AddPort(1, netdev.NewPort("y")); err == nil {
		t.Error("duplicate port number accepted")
	}
	if sw.Port(1) != p {
		t.Error("Port lookup failed")
	}
	if err := sw.RemovePort(1); err != nil {
		t.Fatal(err)
	}
	if err := sw.RemovePort(1); err == nil {
		t.Error("double remove accepted")
	}
}

func TestDumpContainsRules(t *testing.T) {
	sw := New("lsi-0", 42)
	mustAdd(t, sw, &FlowEntry{Priority: 3, Cookie: 0xbeef,
		Match: MatchAll().WithVLAN(5), Actions: []Action{PopVLAN(), Output(2)}})
	d := sw.dump()
	for _, want := range []string{"lsi-0", "dl_vlan=5", "pop_vlan", "output:2", "0xbeef"} {
		if !contains(d, want) {
			t.Errorf("Dump missing %q in:\n%s", want, d)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}
