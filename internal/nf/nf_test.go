package nf

import (
	"testing"

	"repro/internal/execenv"
	"repro/internal/netdev"
	"repro/internal/pkt"
)

func udpFrame(t *testing.T, src, dst pkt.Addr, sport, dport uint16, vlan uint16) []byte {
	t.Helper()
	return pkt.MustBuildFrame(pkt.FrameSpec{
		SrcMAC: macA, DstMAC: macB, VLANID: vlan,
		SrcIP: src, DstIP: dst, SrcPort: sport, DstPort: dport, PayloadLen: 32,
	})
}

// --- Firewall ---

func TestFirewallDefaultAccept(t *testing.T) {
	fw := NewFirewall()
	res, err := fw.Process(0, udpFrame(t, ipA, ipB, 1, 80, 0))
	if err != nil || len(res.Emissions) != 1 || res.Emissions[0].Port != 1 {
		t.Fatalf("res = %+v, %v", res, err)
	}
	// And the reverse direction flows 1 -> 0.
	res, _ = fw.Process(1, udpFrame(t, ipB, ipA, 80, 1, 0))
	if len(res.Emissions) != 1 || res.Emissions[0].Port != 0 {
		t.Fatalf("reverse res = %+v", res)
	}
}

func TestFirewallRuleOrderFirstMatchWins(t *testing.T) {
	fw := NewFirewall()
	if err := fw.Configure(map[string]string{
		"rules": "drop proto=udp dport=53; accept proto=udp",
	}); err != nil {
		t.Fatal(err)
	}
	if res, _ := fw.Process(0, udpFrame(t, ipA, ipB, 1, 53, 0)); len(res.Emissions) != 0 {
		t.Error("DNS not dropped")
	}
	if res, _ := fw.Process(0, udpFrame(t, ipA, ipB, 1, 80, 0)); len(res.Emissions) != 1 {
		t.Error("non-DNS UDP dropped")
	}
	hits, drops := fw.pathStats(0)
	if hits != 2 || drops != 1 {
		t.Errorf("stats = %d/%d", hits, drops)
	}
}

func TestFirewallDefaultDrop(t *testing.T) {
	fw := NewFirewall()
	_ = fw.Configure(map[string]string{"default": "drop", "rules": "accept dst=10.0.0.0/24"})
	if res, _ := fw.Process(0, udpFrame(t, ipA, pkt.Addr{10, 0, 0, 9}, 1, 1, 0)); len(res.Emissions) != 1 {
		t.Error("allowed subnet dropped")
	}
	if res, _ := fw.Process(0, udpFrame(t, ipA, pkt.Addr{10, 9, 0, 9}, 1, 1, 0)); len(res.Emissions) != 0 {
		t.Error("default drop not applied")
	}
}

func TestFirewallMarkedPathsIsolated(t *testing.T) {
	// The sharable-NNF scenario: graph A (mark 10) drops UDP 53, graph B
	// (mark 20) accepts everything. The same packet gets different
	// verdicts depending on its mark, and untagged traffic uses the
	// default path.
	fw := NewFirewall()
	fw.SetPath(10, []FWRule{{Proto: pkt.IPProtocolUDP, DstPort: 53, Verdict: VerdictDrop}}, VerdictAccept)
	fw.SetPath(20, nil, VerdictAccept)

	if res, _ := fw.Process(0, udpFrame(t, ipA, ipB, 1, 53, 10)); len(res.Emissions) != 0 {
		t.Error("graph A mark 10: DNS not dropped")
	}
	if res, _ := fw.Process(0, udpFrame(t, ipA, ipB, 1, 53, 20)); len(res.Emissions) != 1 {
		t.Error("graph B mark 20: DNS dropped")
	}
	if res, _ := fw.Process(0, udpFrame(t, ipA, ipB, 1, 53, 0)); len(res.Emissions) != 1 {
		t.Error("untagged: default path broken")
	}
	hitsA, dropsA := fw.pathStats(10)
	hitsB, dropsB := fw.pathStats(20)
	if hitsA != 1 || dropsA != 1 || hitsB != 1 || dropsB != 0 {
		t.Errorf("path stats = A %d/%d, B %d/%d", hitsA, dropsA, hitsB, dropsB)
	}
	if fw.numPaths() != 2 {
		t.Errorf("numPaths = %d", fw.numPaths())
	}
	fw.RemovePath(20)
	if fw.numPaths() != 1 {
		t.Error("RemovePath failed")
	}
}

func TestFirewallMarkPreservedOnForward(t *testing.T) {
	fw := NewFirewall()
	fw.SetPath(33, nil, VerdictAccept)
	in := udpFrame(t, ipA, ipB, 5, 6, 33)
	res, _ := fw.Process(0, in)
	if len(res.Emissions) != 1 {
		t.Fatal("dropped")
	}
	p := pkt.NewPacket(res.Emissions[0].Frame, pkt.LayerTypeEthernet, pkt.Default)
	v, ok := p.Layer(pkt.LayerTypeVLAN).(*pkt.VLAN)
	if !ok || v.VLANID != 33 {
		t.Error("mark lost through shared firewall")
	}
}

func TestFirewallNonIPPasses(t *testing.T) {
	fw := NewFirewall()
	_ = fw.Configure(map[string]string{"default": "drop"})
	arp := &pkt.ARP{Operation: pkt.ARPRequest, SenderMAC: macA, SenderIP: ipA, TargetIP: ipB}
	frame, _ := pkt.Serialize(pkt.SerializeOptions{},
		&pkt.Ethernet{SrcMAC: macA, DstMAC: macB, EthernetType: pkt.EthernetTypeARP}, arp)
	if res, _ := fw.Process(0, frame); len(res.Emissions) != 1 {
		t.Error("ARP must bypass an IP firewall")
	}
}

func TestParseFWRuleErrors(t *testing.T) {
	for _, bad := range []string{
		"", "pass", "accept port=5", "drop proto=xyz", "accept dport=99999", "drop dst",
	} {
		if _, err := ParseFWRule(bad); err == nil {
			t.Errorf("ParseFWRule(%q) accepted", bad)
		}
	}
	r, err := ParseFWRule("drop proto=tcp src=192.168.0.0/16 dst=10.0.0.0/8 sport=1024 dport=443")
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != VerdictDrop || r.Proto != pkt.IPProtocolTCP || r.SrcPort != 1024 || r.DstPort != 443 {
		t.Errorf("rule = %+v", r)
	}
	if _, err := NewFirewallFromConfig(map[string]string{"default": "reject"}); err == nil {
		t.Error("bad default policy accepted")
	}
	if _, err := NewFirewallFromConfig(map[string]string{"rules": "garbage"}); err == nil {
		t.Error("bad rules accepted")
	}
}

// --- NAT ---

func TestNATOutboundInboundRoundTrip(t *testing.T) {
	ext := pkt.Addr{198, 51, 100, 1}
	n := NewNAT(ext)
	out, err := n.Process(NATPortInside, udpFrame(t, ipA, ipB, 3333, 80, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Emissions) != 1 || out.Emissions[0].Port != NATPortOutside {
		t.Fatalf("outbound = %+v", out)
	}
	p := pkt.NewPacket(out.Emissions[0].Frame, pkt.LayerTypeEthernet, pkt.Default)
	if p.ErrorLayer() != nil {
		t.Fatalf("rewritten frame broken: %v", p.ErrorLayer().Error())
	}
	ip := p.Layer(pkt.LayerTypeIPv4).(*pkt.IPv4)
	udp := p.Layer(pkt.LayerTypeUDP).(*pkt.UDP)
	if ip.SrcIP != ext {
		t.Errorf("src not translated: %v", ip.SrcIP)
	}
	extPort := udp.SrcPort
	if extPort < natPortBase {
		t.Errorf("external port = %d", extPort)
	}
	if n.Bindings() != 1 {
		t.Errorf("bindings = %d", n.Bindings())
	}

	// Return traffic.
	back, err := n.Process(NATPortOutside, udpFrame(t, ipB, ext, 80, extPort, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Emissions) != 1 || back.Emissions[0].Port != NATPortInside {
		t.Fatalf("inbound = %+v", back)
	}
	q := pkt.NewPacket(back.Emissions[0].Frame, pkt.LayerTypeEthernet, pkt.Default)
	qip := q.Layer(pkt.LayerTypeIPv4).(*pkt.IPv4)
	qudp := q.Layer(pkt.LayerTypeUDP).(*pkt.UDP)
	if qip.DstIP != ipA || qudp.DstPort != 3333 {
		t.Errorf("reverse translation broken: %v:%d", qip.DstIP, qudp.DstPort)
	}
}

func TestNATStableBindingAndUnknownDrop(t *testing.T) {
	n := NewNAT(pkt.Addr{198, 51, 100, 1})
	// Same connection twice: the binding is stable.
	r1, _ := n.Process(NATPortInside, udpFrame(t, ipA, ipB, 1000, 80, 0))
	r2, _ := n.Process(NATPortInside, udpFrame(t, ipA, ipB, 1000, 80, 0))
	p1 := pkt.NewPacket(r1.Emissions[0].Frame, pkt.LayerTypeEthernet, pkt.Default).Layer(pkt.LayerTypeUDP).(*pkt.UDP)
	p2 := pkt.NewPacket(r2.Emissions[0].Frame, pkt.LayerTypeEthernet, pkt.Default).Layer(pkt.LayerTypeUDP).(*pkt.UDP)
	if p1.SrcPort != p2.SrcPort {
		t.Error("same connection got different bindings")
	}
	if n.Bindings() != 1 {
		t.Errorf("bindings = %d, want 1", n.Bindings())
	}
	// Symmetric NAT: a different remote service is a distinct connection
	// with its own mapping.
	n.Process(NATPortInside, udpFrame(t, ipA, ipB, 1000, 443, 0))
	if n.Bindings() != 2 {
		t.Errorf("bindings after second connection = %d, want 2", n.Bindings())
	}
	// Unsolicited inbound to an unbound port: dropped.
	res, _ := n.Process(NATPortOutside, udpFrame(t, ipB, pkt.Addr{198, 51, 100, 1}, 80, 9999, 0))
	if len(res.Emissions) != 0 {
		t.Error("unsolicited inbound accepted")
	}
	// Inbound not addressed to the external IP: dropped.
	res, _ = n.Process(NATPortOutside, udpFrame(t, ipB, ipA, 80, 20000, 0))
	if len(res.Emissions) != 0 {
		t.Error("misaddressed inbound accepted")
	}
}

func TestNATTCP(t *testing.T) {
	n := NewNAT(pkt.Addr{198, 51, 100, 1})
	frame := pkt.MustBuildFrame(pkt.FrameSpec{
		SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB,
		Proto: pkt.IPProtocolTCP, SrcPort: 5555, DstPort: 443, PayloadLen: 10,
	})
	res, err := n.Process(NATPortInside, frame)
	if err != nil || len(res.Emissions) != 1 {
		t.Fatalf("tcp outbound = %+v, %v", res, err)
	}
	p := pkt.NewPacket(res.Emissions[0].Frame, pkt.LayerTypeEthernet, pkt.Default)
	if p.ErrorLayer() != nil {
		t.Fatal("rewritten TCP frame invalid")
	}
	tcp := p.Layer(pkt.LayerTypeTCP).(*pkt.TCP)
	if tcp.SrcPort < natPortBase {
		t.Error("TCP not translated")
	}
}

func TestNATFromConfig(t *testing.T) {
	if _, err := NewNATFromConfig(map[string]string{}); err == nil {
		t.Error("missing external_ip accepted")
	}
	if _, err := NewNATFromConfig(map[string]string{"external_ip": "zebra"}); err == nil {
		t.Error("bad external_ip accepted")
	}
	if _, err := NewNATFromConfig(map[string]string{"external_ip": "198.51.100.1"}); err != nil {
		t.Error(err)
	}
}

// --- Bridge ---

func TestBridgeLearningAndForwarding(t *testing.T) {
	b, err := NewBridge(3)
	if err != nil {
		t.Fatal(err)
	}
	macC := pkt.MAC{2, 0, 0, 0, 0, 0xc}
	// Unknown destination: flood.
	res, _ := b.Process(0, udpFrame(t, ipA, ipB, 1, 2, 0))
	if len(res.Emissions) != 2 {
		t.Fatalf("flood emissions = %+v", res.Emissions)
	}
	// macA now learned on port 0. Traffic to macA from port 2 is unicast.
	back := pkt.MustBuildFrame(pkt.FrameSpec{
		SrcMAC: macC, DstMAC: macA, SrcIP: ipB, DstIP: ipA, SrcPort: 2, DstPort: 1, PayloadLen: 8,
	})
	res, _ = b.Process(2, back)
	if len(res.Emissions) != 1 || res.Emissions[0].Port != 0 {
		t.Fatalf("learned forward = %+v", res.Emissions)
	}
	if port, ok := b.Lookup(macC); !ok || port != 2 {
		t.Error("macC not learned")
	}
	if b.fdbSize() != 2 {
		t.Errorf("fdb size = %d", b.fdbSize())
	}
	// Destination on the same port: filtered.
	sameSeg := pkt.MustBuildFrame(pkt.FrameSpec{
		SrcMAC: macB, DstMAC: macA, SrcIP: ipB, DstIP: ipA, SrcPort: 1, DstPort: 1, PayloadLen: 8,
	})
	res, _ = b.Process(0, sameSeg)
	if len(res.Emissions) != 0 {
		t.Error("same-segment frame forwarded")
	}
}

func TestBridgeBroadcastFloods(t *testing.T) {
	b, _ := NewBridge(4)
	bcast := pkt.MustBuildFrame(pkt.FrameSpec{
		SrcMAC: macA, DstMAC: pkt.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		SrcIP: ipA, DstIP: ipB, SrcPort: 1, DstPort: 2, PayloadLen: 8,
	})
	res, _ := b.Process(1, bcast)
	if len(res.Emissions) != 3 {
		t.Errorf("broadcast reached %d ports, want 3", len(res.Emissions))
	}
	if _, err := b.Process(9, bcast); err == nil {
		t.Error("bad port accepted")
	}
}

func TestBridgeConfig(t *testing.T) {
	if _, err := NewBridge(1); err == nil {
		t.Error("1-port bridge accepted")
	}
	if _, err := NewBridgeFromConfig(map[string]string{"ports": "x"}); err == nil {
		t.Error("bad ports accepted")
	}
	p, err := NewBridgeFromConfig(map[string]string{"ports": "5"})
	if err != nil {
		t.Fatal(err)
	}
	if p.(*Bridge).nPorts != 5 {
		t.Error("ports config ignored")
	}
}

// --- Router ---

func TestRouterForwardAndTTL(t *testing.T) {
	r := NewRouter()
	nhMAC := pkt.MAC{2, 2, 2, 2, 2, 2}
	srcMAC := pkt.MAC{4, 4, 4, 4, 4, 4}
	if err := r.AddRoute(Route{Prefix: "10.0.0.0/8", Port: 1, NextHop: nhMAC, SrcMAC: srcMAC}); err != nil {
		t.Fatal(err)
	}
	if err := r.AddRoute(Route{Prefix: "10.0.0.0/24", Port: 2, NextHop: nhMAC, SrcMAC: srcMAC}); err != nil {
		t.Fatal(err)
	}
	// Longest prefix wins: 10.0.0.x -> port 2; 10.9.x -> port 1.
	res, _ := r.Process(0, udpFrame(t, ipB, pkt.Addr{10, 0, 0, 7}, 1, 2, 0))
	if len(res.Emissions) != 1 || res.Emissions[0].Port != 2 {
		t.Fatalf("lpm = %+v", res.Emissions)
	}
	res, _ = r.Process(0, udpFrame(t, ipB, pkt.Addr{10, 9, 0, 7}, 1, 2, 0))
	if len(res.Emissions) != 1 || res.Emissions[0].Port != 1 {
		t.Fatalf("fallback = %+v", res.Emissions)
	}
	// TTL decremented, checksum still valid, MACs rewritten.
	p := pkt.NewPacket(res.Emissions[0].Frame, pkt.LayerTypeEthernet, pkt.Default)
	ip := p.Layer(pkt.LayerTypeIPv4).(*pkt.IPv4)
	if ip.TTL != 63 {
		t.Errorf("ttl = %d, want 63", ip.TTL)
	}
	hdr := res.Emissions[0].Frame[pkt.EthernetHeaderLen : pkt.EthernetHeaderLen+pkt.IPv4HeaderLen]
	if pkt.Checksum(hdr) != 0 {
		t.Error("checksum invalid after TTL decrement")
	}
	eth := p.Layer(pkt.LayerTypeEthernet).(*pkt.Ethernet)
	if eth.DstMAC != nhMAC || eth.SrcMAC != srcMAC {
		t.Error("L2 rewrite missing")
	}
}

func TestRouterDropsNoRouteAndTTLExpiry(t *testing.T) {
	r := NewRouter()
	_ = r.AddRoute(Route{Prefix: "10.0.0.0/8", Port: 1})
	res, _ := r.Process(0, udpFrame(t, ipB, pkt.Addr{172, 16, 0, 1}, 1, 2, 0))
	if len(res.Emissions) != 0 {
		t.Error("no-route packet forwarded")
	}
	expired := pkt.MustBuildFrame(pkt.FrameSpec{
		SrcMAC: macA, DstMAC: macB, SrcIP: ipB, DstIP: pkt.Addr{10, 0, 0, 1},
		SrcPort: 1, DstPort: 2, TTL: 1, PayloadLen: 4,
	})
	res, _ = r.Process(0, expired)
	if len(res.Emissions) != 0 {
		t.Error("TTL-expired packet forwarded")
	}
}

func TestRouterFromConfig(t *testing.T) {
	p, err := NewRouterFromConfig(map[string]string{
		"routes": "10.0.0.0/8,1,02:02:02:02:02:02,04:04:04:04:04:04; 0.0.0.0/0,2,02:02:02:02:02:02,04:04:04:04:04:04",
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.(*Router).numRoutes() != 2 {
		t.Error("routes not parsed")
	}
	for _, bad := range []string{"x", "10.0.0.0/8,z,02:02:02:02:02:02,04:04:04:04:04:04", "10.0.0.0/99,1,02:02:02:02:02:02,04:04:04:04:04:04"} {
		if _, err := NewRouterFromConfig(map[string]string{"routes": bad}); err == nil {
			t.Errorf("bad route %q accepted", bad)
		}
	}
}

// --- Monitor ---

func TestMonitorCountsFlows(t *testing.T) {
	m := NewMonitor()
	for i := 0; i < 3; i++ {
		res, _ := m.Process(0, udpFrame(t, ipA, ipB, 1, 2, 0))
		if len(res.Emissions) != 1 || res.Emissions[0].Port != 1 {
			t.Fatal("monitor not transparent")
		}
	}
	_, _ = m.Process(1, udpFrame(t, ipB, ipA, 2, 1, 0))
	flows := m.Flows()
	if len(flows) != 2 {
		t.Fatalf("flows = %+v", flows)
	}
	if flows[0].Packets != 3 {
		t.Errorf("top flow packets = %d", flows[0].Packets)
	}
	arp := &pkt.ARP{Operation: pkt.ARPRequest}
	frame, _ := pkt.Serialize(pkt.SerializeOptions{},
		&pkt.Ethernet{EthernetType: pkt.EthernetTypeARP}, arp)
	_, _ = m.Process(0, frame)
	if m.nonIPPackets() != 1 {
		t.Error("non-IP not counted")
	}
}

// --- Runtime & Registry ---

func TestRuntimeProcessesThroughPorts(t *testing.T) {
	clock := &execenv.VirtualClock{}
	env, err := execenv.New("fw", execenv.FlavorNative, execenv.Default(), clock)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime("fw", NewFirewall(), env, 2)
	rt.Start()
	defer rt.Stop()

	in := netdev.NewPort("in")
	out := netdev.NewPort("out")
	if err := netdev.Connect(in, rt.Port(0)); err != nil {
		t.Fatal(err)
	}
	if err := netdev.Connect(out, rt.Port(1)); err != nil {
		t.Fatal(err)
	}

	if err := in.Send(netdev.Frame{Data: udpFrame(t, ipA, ipB, 1, 2, 0)}); err != nil {
		t.Fatal(err)
	}
	if _, ok := out.TryRecv(); !ok {
		t.Fatal("frame did not traverse the runtime")
	}
	st := rt.Stats()
	if st.RxPackets != 1 || st.TxPackets != 1 || st.Errors != 0 {
		t.Errorf("stats = %+v", st)
	}
	if c := rt.Counts(); c.Packets != 1 || c.FrameBytes == 0 {
		t.Errorf("counts = %+v, want the one frame", c)
	}
	if clock.Now() <= execenv.Default().NativeStart {
		t.Error("the frame is not priced on the clock")
	}
}

func TestRuntimeStopsCleanly(t *testing.T) {
	env, _ := execenv.New("fw", execenv.FlavorNative, execenv.Default(), nil)
	rt := NewRuntime("fw", NewFirewall(), env, 2)
	rt.Start()
	if !rt.Running() {
		t.Error("not running")
	}
	rt.Stop()
	if rt.Running() {
		t.Error("still running")
	}
	// Frames after stop are not processed.
	in := netdev.NewPort("in")
	if err := netdev.Connect(in, rt.Port(0)); err != nil {
		t.Fatal(err)
	}
	_ = in.Send(netdev.Frame{Data: udpFrame(t, ipA, ipB, 1, 2, 0)})
	if rt.Stats().RxPackets != 0 {
		t.Error("processed while stopped")
	}
	if rt.Port(99) != nil || rt.Port(-1) != nil {
		t.Error("out-of-range port returned")
	}
}

func TestRuntimeCountsProcessorErrors(t *testing.T) {
	env, _ := execenv.New("b", execenv.FlavorNative, execenv.Default(), nil)
	b, _ := NewBridge(2)
	rt := NewRuntime("b", b, env, 2)
	rt.Start()
	defer rt.Stop()
	in := netdev.NewPort("in")
	if err := netdev.Connect(in, rt.Port(0)); err != nil {
		t.Fatal(err)
	}
	_ = in.Send(netdev.Frame{Data: []byte{1, 2, 3}}) // too short for Ethernet
	if rt.Stats().Errors != 1 {
		t.Errorf("errors = %d", rt.Stats().Errors)
	}
}

func TestDefaultRegistry(t *testing.T) {
	r := DefaultRegistry()
	names := r.names()
	want := []string{"bridge", "firewall", "ipsec", "monitor", "nat", "router", "shaper"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
	if _, err := r.Build("firewall", nil); err != nil {
		t.Error(err)
	}
	if _, err := r.Build("ghost", nil); err == nil {
		t.Error("unknown template built")
	}
	if err := r.Register("firewall", NewFirewallFromConfig); err == nil {
		t.Error("duplicate registration allowed")
	}
}
