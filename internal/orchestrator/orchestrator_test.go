package orchestrator

import (
	"strings"
	"testing"

	"repro/internal/compute"
	"repro/internal/execenv"
	"repro/internal/imagestore"
	"repro/internal/netdev"
	"repro/internal/netns"
	"repro/internal/nf"
	"repro/internal/nffg"
	"repro/internal/nnf"
	"repro/internal/pkt"
	"repro/internal/repository"
	"repro/internal/resources"
)

const gb = 1 << 30

// newNode assembles a complete compute node for tests.
func newNode(t *testing.T, interfaces ...string) *Orchestrator {
	t.Helper()
	if len(interfaces) == 0 {
		interfaces = []string{"eth0", "eth1"}
	}
	store := imagestore.NewStore()
	if err := repository.DefaultImages(store); err != nil {
		t.Fatal(err)
	}
	pool := resources.NewPool(16000, 8*gb)
	for _, c := range []resources.Capability{
		"kvm", "docker", "dpdk",
		"nnf:ipsec", "nnf:firewall", "nnf:nat", "nnf:bridge", "nnf:router", "nnf:monitor", "nnf:shaper",
	} {
		pool.AddCapability(c)
	}
	clock := &execenv.VirtualClock{}
	deps := compute.Deps{
		NFs:       nf.DefaultRegistry(),
		Images:    store,
		Resources: pool,
		Model:     execenv.Default(),
		Clock:     clock,
	}
	nnfMgr := nnf.NewManager(nnf.Builtins(), netns.NewRegistry(), deps.Model, clock)
	cmgr := compute.NewManager()
	mustDriver := func(d compute.Driver, err error) {
		if err != nil {
			t.Fatal(err)
		}
		if err := cmgr.Register(d); err != nil {
			t.Fatal(err)
		}
	}
	mustDriver(compute.NewVMDriver(deps))
	mustDriver(compute.NewDockerDriver(deps))
	mustDriver(compute.NewDPDKDriver(deps))
	mustDriver(compute.NewNativeDriver(deps, nnfMgr))

	o, err := New(Config{
		NodeName:   "cpe",
		Interfaces: interfaces,
		Resources:  pool,
		Repo:       repository.Default(),
		Compute:    cmgr,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	return o
}

func ipsecConfig() map[string]string {
	return map[string]string{
		"local":  "192.0.2.1",
		"remote": "203.0.113.9",
		"spi":    "4096",
		"key":    "000102030405060708090a0b0c0d0e0f10111213",
	}
}

// ipsecGraph is the paper's CPE use case: cleartext LAN on eth0, ESP WAN on
// eth1.
func ipsecGraph(id string, tech nffg.Technology) *nffg.Graph {
	return &nffg.Graph{
		ID:   id,
		Name: "ipsec-cpe",
		NFs: []nffg.NF{{
			ID: "vpn", Name: "ipsec",
			Ports:                []nffg.NFPort{{ID: "0"}, {ID: "1"}},
			TechnologyPreference: tech,
			Config:               ipsecConfig(),
		}},
		Endpoints: []nffg.Endpoint{
			{ID: "lan", Type: nffg.EPInterface, Interface: "eth0"},
			{ID: "wan", Type: nffg.EPInterface, Interface: "eth1"},
		},
		Rules: []nffg.FlowRule{
			{ID: "r1", Priority: 10,
				Match:   nffg.RuleMatch{PortIn: nffg.EndpointRef("lan")},
				Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.NFPortRef("vpn", "0")}}},
			{ID: "r2", Priority: 10,
				Match:   nffg.RuleMatch{PortIn: nffg.NFPortRef("vpn", "1")},
				Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.EndpointRef("wan")}}},
			{ID: "r3", Priority: 10,
				Match:   nffg.RuleMatch{PortIn: nffg.EndpointRef("wan")},
				Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.NFPortRef("vpn", "1")}}},
			{ID: "r4", Priority: 10,
				Match:   nffg.RuleMatch{PortIn: nffg.NFPortRef("vpn", "0")},
				Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.EndpointRef("lan")}}},
		},
	}
}

func clearFrame(t *testing.T) []byte {
	t.Helper()
	return pkt.MustBuildFrame(pkt.FrameSpec{
		SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: pkt.Addr{10, 0, 0, 1}, DstIP: pkt.Addr{10, 0, 0, 2},
		SrcPort: 40000, DstPort: 5001, PayloadLen: 200, PayloadByte: 0x42,
	})
}

func send(t *testing.T, o *Orchestrator, iface string, data []byte) {
	t.Helper()
	p, ok := o.InterfacePort(iface)
	if !ok {
		t.Fatalf("no interface %q", iface)
	}
	if err := p.Send(netdev.Frame{Data: data}); err != nil {
		t.Fatal(err)
	}
}

func recv(t *testing.T, o *Orchestrator, iface string) ([]byte, bool) {
	t.Helper()
	p, ok := o.InterfacePort(iface)
	if !ok {
		t.Fatalf("no interface %q", iface)
	}
	f, got := p.TryRecv()
	return f.Data, got
}

func TestDeployIPsecEndToEnd(t *testing.T) {
	for _, tech := range []nffg.Technology{nffg.TechNative, nffg.TechDocker, nffg.TechVM} {
		t.Run(string(tech), func(t *testing.T) {
			o := newNode(t)
			g := ipsecGraph("g-"+string(tech), tech)
			if err := o.Deploy(g); err != nil {
				t.Fatal(err)
			}
			// Cleartext in on eth0 -> ESP out on eth1.
			send(t, o, "eth0", clearFrame(t))
			wire, ok := recv(t, o, "eth1")
			if !ok {
				t.Fatal("nothing emitted on the WAN side")
			}
			p := pkt.NewPacket(wire, pkt.LayerTypeEthernet, pkt.Default)
			if p.Layer(pkt.LayerTypeESP) == nil {
				t.Fatalf("WAN traffic not ESP: %v", p)
			}
			// And back: ESP in on eth1 -> cleartext out on eth0.
			send(t, o, "eth1", wire)
			back, ok := recv(t, o, "eth0")
			if !ok {
				t.Fatal("nothing decapsulated on the LAN side")
			}
			q := pkt.NewPacket(back, pkt.LayerTypeEthernet, pkt.Default)
			udp, isUDP := q.Layer(pkt.LayerTypeUDP).(*pkt.UDP)
			if !isUDP || udp.DstPort != 5001 {
				t.Fatalf("decapsulated traffic damaged: %v", q)
			}
			// Verify the placement matches the request.
			d, _ := o.Graph(g.ID)
			if d.Instances()["vpn"].Technology != tech {
				t.Errorf("placed as %v, want %v", d.Instances()["vpn"].Technology, tech)
			}
		})
	}
}

func TestSchedulerPrefersNativeThenFallsBack(t *testing.T) {
	o := newNode(t)
	// No preference: scheduler must choose native (cheapest).
	g1 := ipsecGraph("g1", nffg.TechAny)
	if err := o.Deploy(g1); err != nil {
		t.Fatal(err)
	}
	d1, _ := o.Graph("g1")
	if got := d1.Instances()["vpn"].Technology; got != nffg.TechNative {
		t.Fatalf("first graph placed as %v, want native", got)
	}
	// Second graph: the exclusive ipsec NNF is busy -> docker fallback,
	// the paper's placement logic in action.
	g2 := ipsecGraph("g2", nffg.TechAny)
	if err := o.Deploy(g2); err != nil {
		t.Fatal(err)
	}
	d2, _ := o.Graph("g2")
	if got := d2.Instances()["vpn"].Technology; got != nffg.TechDocker {
		t.Fatalf("second graph placed as %v, want docker fallback", got)
	}
	// Release the first graph; a third deploys native again.
	if err := o.Undeploy("g1"); err != nil {
		t.Fatal(err)
	}
	g3 := ipsecGraph("g3", nffg.TechAny)
	if err := o.Deploy(g3); err != nil {
		t.Fatal(err)
	}
	d3, _ := o.Graph("g3")
	if got := d3.Instances()["vpn"].Technology; got != nffg.TechNative {
		t.Fatalf("third graph placed as %v, want native", got)
	}
}

func TestSchedulerPlacementMatrix(t *testing.T) {
	// Experiment A5: placement under constrained nodes.
	cases := []struct {
		name       string
		caps       []resources.Capability
		preference nffg.Technology
		wantTech   nffg.Technology
		wantErr    bool
	}{
		{"all caps, any -> native", []resources.Capability{"kvm", "docker", "nnf:ipsec"}, nffg.TechAny, nffg.TechNative, false},
		{"no nnf, any -> docker", []resources.Capability{"kvm", "docker"}, nffg.TechAny, nffg.TechDocker, false},
		{"kvm only, any -> vm", []resources.Capability{"kvm"}, nffg.TechAny, nffg.TechVM, false},
		{"no caps, any -> error", nil, nffg.TechAny, "", true},
		{"pinned vm without kvm -> error", []resources.Capability{"docker"}, nffg.TechVM, "", true},
		{"pinned docker", []resources.Capability{"kvm", "docker", "nnf:ipsec"}, nffg.TechDocker, nffg.TechDocker, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			store := imagestore.NewStore()
			_ = repository.DefaultImages(store)
			pool := resources.NewPool(16000, 8*gb)
			for _, cap := range c.caps {
				pool.AddCapability(cap)
			}
			clock := &execenv.VirtualClock{}
			deps := compute.Deps{NFs: nf.DefaultRegistry(), Images: store, Resources: pool,
				Model: execenv.Default(), Clock: clock}
			nnfMgr := nnf.NewManager(nnf.Builtins(), netns.NewRegistry(), deps.Model, clock)
			cmgr := compute.NewManager()
			vm, _ := compute.NewVMDriver(deps)
			docker, _ := compute.NewDockerDriver(deps)
			native, _ := compute.NewNativeDriver(deps, nnfMgr)
			_ = cmgr.Register(vm)
			_ = cmgr.Register(docker)
			_ = cmgr.Register(native)
			o, err := New(Config{NodeName: "n", Interfaces: []string{"eth0", "eth1"},
				Resources: pool, Repo: repository.Default(), Compute: cmgr})
			if err != nil {
				t.Fatal(err)
			}
			defer o.Close()
			err = o.Deploy(ipsecGraph("g", c.preference))
			if c.wantErr {
				if err == nil {
					t.Fatal("deploy succeeded, want error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			d, _ := o.Graph("g")
			if got := d.Instances()["vpn"].Technology; got != c.wantTech {
				t.Errorf("placed as %v, want %v", got, c.wantTech)
			}
		})
	}
}

// firewallGraph chains a firewall between two VLAN endpoints on eth0/eth1.
func firewallGraph(id string, vlanBase uint16, rules string) *nffg.Graph {
	return &nffg.Graph{
		ID: id,
		NFs: []nffg.NF{{
			ID: "fw", Name: "firewall",
			Ports:                []nffg.NFPort{{ID: "0"}, {ID: "1"}},
			TechnologyPreference: nffg.TechNative,
			Config:               map[string]string{"rules": rules},
		}},
		Endpoints: []nffg.Endpoint{
			{ID: "in", Type: nffg.EPVLAN, Interface: "eth0", VLANID: vlanBase},
			{ID: "out", Type: nffg.EPVLAN, Interface: "eth1", VLANID: vlanBase},
		},
		Rules: []nffg.FlowRule{
			{ID: "r1", Priority: 10,
				Match:   nffg.RuleMatch{PortIn: nffg.EndpointRef("in")},
				Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.NFPortRef("fw", "0")}}},
			{ID: "r2", Priority: 10,
				Match:   nffg.RuleMatch{PortIn: nffg.NFPortRef("fw", "1")},
				Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.EndpointRef("out")}}},
			{ID: "r3", Priority: 10,
				Match:   nffg.RuleMatch{PortIn: nffg.EndpointRef("out")},
				Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.NFPortRef("fw", "1")}}},
			{ID: "r4", Priority: 10,
				Match:   nffg.RuleMatch{PortIn: nffg.NFPortRef("fw", "0")},
				Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.EndpointRef("in")}}},
		},
	}
}

func vlanFrame(t *testing.T, vlan uint16, dport uint16) []byte {
	t.Helper()
	return pkt.MustBuildFrame(pkt.FrameSpec{
		SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2},
		VLANID: vlan,
		SrcIP:  pkt.Addr{10, 0, 0, 1}, DstIP: pkt.Addr{10, 0, 0, 2},
		SrcPort: 1234, DstPort: dport, PayloadLen: 64,
	})
}

func TestSharedNNFTwoGraphsIsolation(t *testing.T) {
	o := newNode(t)
	// Graph A (customer VLAN 100) blocks DNS; graph B (VLAN 200) allows
	// everything. Both share one native firewall via marks.
	if err := o.Deploy(firewallGraph("gA", 100, "drop proto=udp dport=53")); err != nil {
		t.Fatal(err)
	}
	if err := o.Deploy(firewallGraph("gB", 200, "")); err != nil {
		t.Fatal(err)
	}
	dA, _ := o.Graph("gA")
	dB, _ := o.Graph("gB")
	instA := dA.Instances()["fw"]
	instB := dB.Instances()["fw"]
	if !instA.Shared || !instB.Shared {
		t.Fatal("firewall not deployed as shared NNF")
	}
	if instA.Runtime != instB.Runtime {
		t.Fatal("graphs did not share the NNF instance")
	}

	// Graph A: DNS blocked, HTTP passes.
	send(t, o, "eth0", vlanFrame(t, 100, 53))
	if _, got := recv(t, o, "eth1"); got {
		t.Error("graph A DNS leaked through shared firewall")
	}
	send(t, o, "eth0", vlanFrame(t, 100, 80))
	outA, got := recv(t, o, "eth1")
	if !got {
		t.Fatal("graph A HTTP dropped")
	}
	// Egress re-tagged with graph A's VLAN 100.
	p := pkt.NewPacket(outA, pkt.LayerTypeEthernet, pkt.Default)
	if v, ok := p.Layer(pkt.LayerTypeVLAN).(*pkt.VLAN); !ok || v.VLANID != 100 {
		t.Errorf("graph A egress VLAN wrong: %v", p)
	}

	// Graph B: DNS passes.
	send(t, o, "eth0", vlanFrame(t, 200, 53))
	outB, got := recv(t, o, "eth1")
	if !got {
		t.Fatal("graph B DNS dropped: path isolation broken")
	}
	q := pkt.NewPacket(outB, pkt.LayerTypeEthernet, pkt.Default)
	if v, ok := q.Layer(pkt.LayerTypeVLAN).(*pkt.VLAN); !ok || v.VLANID != 200 {
		t.Errorf("graph B egress VLAN wrong: %v", q)
	}
}

func TestUndeployCleansUp(t *testing.T) {
	o := newNode(t)
	usedCPU0, _, usedRAM0, _ := o.cfg.Resources.Usage()
	lsi0Flows0 := len(o.LSI0().Flows())
	if err := o.Deploy(ipsecGraph("g1", nffg.TechNative)); err != nil {
		t.Fatal(err)
	}
	if err := o.Undeploy("g1"); err != nil {
		t.Fatal(err)
	}
	usedCPU, _, usedRAM, _ := o.cfg.Resources.Usage()
	if usedCPU != usedCPU0 || usedRAM != usedRAM0 {
		t.Errorf("resource leak: %dm/%dB -> %dm/%dB", usedCPU0, usedRAM0, usedCPU, usedRAM)
	}
	if got := len(o.LSI0().Flows()); got != lsi0Flows0 {
		t.Errorf("LSI-0 flows leaked: %d -> %d", lsi0Flows0, got)
	}
	if len(o.GraphIDs()) != 0 {
		t.Error("graph still listed")
	}
	if err := o.Undeploy("g1"); err == nil {
		t.Error("double undeploy succeeded")
	}
	// The VLAN/interface reservations are free again.
	if err := o.Deploy(ipsecGraph("g1", nffg.TechNative)); err != nil {
		t.Errorf("redeploy after undeploy failed: %v", err)
	}
}

func TestDeployValidationAndConflicts(t *testing.T) {
	o := newNode(t)
	bad := ipsecGraph("", nffg.TechAny)
	if err := o.Deploy(bad); err == nil {
		t.Error("empty graph id accepted")
	}
	g := ipsecGraph("g1", nffg.TechAny)
	if err := o.Deploy(g); err != nil {
		t.Fatal(err)
	}
	if err := o.Deploy(g); err == nil {
		t.Error("duplicate deploy accepted")
	}
	// Unknown NF template.
	g2 := ipsecGraph("g2", nffg.TechAny)
	g2.NFs[0].Name = "quantum-dpi"
	if err := o.Deploy(g2); err == nil {
		t.Error("unknown template accepted")
	}
	// Unknown interface.
	g3 := ipsecGraph("g3", nffg.TechAny)
	g3.Endpoints[0].Interface = "eth9"
	if err := o.Deploy(g3); err == nil {
		t.Error("unknown interface accepted")
	}
	if _, stillThere := o.Graph("g3"); stillThere {
		t.Error("failed deploy left graph state")
	}
	// VLAN endpoint conflicts.
	if err := o.Deploy(firewallGraph("g4", 300, "")); err != nil {
		t.Fatal(err)
	}
	if err := o.Deploy(firewallGraph("g5", 300, "")); err == nil {
		t.Error("conflicting VLAN endpoint accepted")
	}
}

func TestFailedDeployRollsBackResources(t *testing.T) {
	o := newNode(t)
	before, _, beforeRAM, _ := o.cfg.Resources.Usage()
	// Two NFs; the second has a bad config so its start fails after the
	// first started.
	g := ipsecGraph("g1", nffg.TechNative)
	g.NFs = append(g.NFs, nffg.NF{
		ID: "vpn2", Name: "ipsec",
		Ports:                []nffg.NFPort{{ID: "0"}, {ID: "1"}},
		TechnologyPreference: nffg.TechDocker,
		Config:               map[string]string{"local": "bogus"},
	})
	g.Rules = append(g.Rules, nffg.FlowRule{
		ID: "r9", Priority: 1,
		Match:   nffg.RuleMatch{PortIn: nffg.NFPortRef("vpn2", "0")},
		Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.EndpointRef("lan")}},
	})
	if err := o.Deploy(g); err == nil {
		t.Fatal("deploy with broken NF config succeeded")
	}
	after, _, afterRAM, _ := o.cfg.Resources.Usage()
	if before != after || beforeRAM != afterRAM {
		t.Errorf("rollback leaked resources: %d/%d -> %d/%d", before, beforeRAM, after, afterRAM)
	}
	if len(o.LSI0().Flows()) != 0 {
		t.Error("rollback leaked LSI-0 flows")
	}
}

func TestUpdateGraph(t *testing.T) {
	o := newNode(t)
	g := ipsecGraph("g1", nffg.TechNative)
	if err := o.Deploy(g); err != nil {
		t.Fatal(err)
	}
	// Update: drop the wan->lan direction (remove r3/r4), keeping encap
	// only.
	upd := ipsecGraph("g1", nffg.TechNative)
	upd.Rules = upd.Rules[:2]
	if err := o.Update(upd); err != nil {
		t.Fatal(err)
	}
	send(t, o, "eth0", clearFrame(t))
	wire, ok := recv(t, o, "eth1")
	if !ok {
		t.Fatal("encap path broken after update")
	}
	send(t, o, "eth1", wire)
	if _, got := recv(t, o, "eth0"); got {
		t.Error("removed rule still forwarding")
	}
	// Update of an unknown graph fails.
	if err := o.Update(ipsecGraph("ghost", nffg.TechNative)); err == nil {
		t.Error("update of undeployed graph accepted")
	}
	// No-op update succeeds.
	if err := o.Update(upd); err != nil {
		t.Errorf("no-op update failed: %v", err)
	}
}

func TestUpdateAddAndRemoveNF(t *testing.T) {
	o := newNode(t)
	g := ipsecGraph("g1", nffg.TechNative)
	if err := o.Deploy(g); err != nil {
		t.Fatal(err)
	}
	// Add a monitor between lan and the vpn.
	upd := ipsecGraph("g1", nffg.TechNative)
	upd.NFs = append(upd.NFs, nffg.NF{
		ID: "mon", Name: "monitor",
		Ports:                []nffg.NFPort{{ID: "0"}, {ID: "1"}},
		TechnologyPreference: nffg.TechNative,
	})
	upd.Rules[0].Actions = []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.NFPortRef("mon", "0")}}
	upd.Rules = append(upd.Rules, nffg.FlowRule{
		ID: "r5", Priority: 10,
		Match:   nffg.RuleMatch{PortIn: nffg.NFPortRef("mon", "1")},
		Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.NFPortRef("vpn", "0")}},
	})
	if err := o.Update(upd); err != nil {
		t.Fatal(err)
	}
	d, _ := o.Graph("g1")
	if len(d.Instances()) != 2 {
		t.Fatalf("instances = %v", d.Instances())
	}
	send(t, o, "eth0", clearFrame(t))
	if _, ok := recv(t, o, "eth1"); !ok {
		t.Fatal("chain broken after adding monitor")
	}
	// Now remove the monitor again.
	if err := o.Update(ipsecGraph("g1", nffg.TechNative)); err != nil {
		t.Fatal(err)
	}
	d, _ = o.Graph("g1")
	if len(d.Instances()) != 1 {
		t.Error("removed NF still running")
	}
	send(t, o, "eth0", clearFrame(t))
	if _, ok := recv(t, o, "eth1"); !ok {
		t.Error("chain broken after removing monitor")
	}
}

func TestInternalEndpointsStitchGraphs(t *testing.T) {
	o := newNode(t)
	// Graph 1: eth0 -> monitor -> internal group "handoff".
	g1 := &nffg.Graph{
		ID: "stage1",
		NFs: []nffg.NF{{ID: "mon", Name: "monitor",
			Ports: []nffg.NFPort{{ID: "0"}, {ID: "1"}}, TechnologyPreference: nffg.TechNative}},
		Endpoints: []nffg.Endpoint{
			{ID: "in", Type: nffg.EPInterface, Interface: "eth0"},
			{ID: "next", Type: nffg.EPInternal, InternalGroup: "handoff"},
		},
		Rules: []nffg.FlowRule{
			{ID: "r1", Priority: 10, Match: nffg.RuleMatch{PortIn: nffg.EndpointRef("in")},
				Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.NFPortRef("mon", "0")}}},
			{ID: "r2", Priority: 10, Match: nffg.RuleMatch{PortIn: nffg.NFPortRef("mon", "1")},
				Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.EndpointRef("next")}}},
		},
	}
	// Graph 2: internal group "handoff" -> eth1.
	g2 := &nffg.Graph{
		ID: "stage2",
		NFs: []nffg.NF{{ID: "mon2", Name: "monitor",
			Ports: []nffg.NFPort{{ID: "0"}, {ID: "1"}}, TechnologyPreference: nffg.TechNative}},
		Endpoints: []nffg.Endpoint{
			{ID: "prev", Type: nffg.EPInternal, InternalGroup: "handoff"},
			{ID: "out", Type: nffg.EPInterface, Interface: "eth1"},
		},
		Rules: []nffg.FlowRule{
			{ID: "r1", Priority: 10, Match: nffg.RuleMatch{PortIn: nffg.EndpointRef("prev")},
				Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.NFPortRef("mon2", "0")}}},
			{ID: "r2", Priority: 10, Match: nffg.RuleMatch{PortIn: nffg.NFPortRef("mon2", "1")},
				Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.EndpointRef("out")}}},
		},
	}
	if err := o.Deploy(g1); err != nil {
		t.Fatal(err)
	}
	if err := o.Deploy(g2); err != nil {
		t.Fatal(err)
	}
	send(t, o, "eth0", clearFrame(t))
	if _, ok := recv(t, o, "eth1"); !ok {
		t.Fatal("traffic did not cross the inter-graph handoff")
	}
	// A third member of the same group is rejected.
	g3 := &nffg.Graph{
		ID: "stage3",
		NFs: []nffg.NF{{ID: "m", Name: "monitor",
			Ports: []nffg.NFPort{{ID: "0"}, {ID: "1"}}, TechnologyPreference: nffg.TechNative}},
		Endpoints: []nffg.Endpoint{{ID: "x", Type: nffg.EPInternal, InternalGroup: "handoff"}},
		Rules: []nffg.FlowRule{
			{ID: "r1", Priority: 1, Match: nffg.RuleMatch{PortIn: nffg.EndpointRef("x")},
				Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.NFPortRef("m", "0")}}},
		},
	}
	if err := o.Deploy(g3); err == nil {
		t.Error("third member of a two-party internal group accepted")
	}
}

func TestFigure1Topology(t *testing.T) {
	o := newNode(t)
	if err := o.Deploy(ipsecGraph("customer1", nffg.TechNative)); err != nil {
		t.Fatal(err)
	}
	if err := o.Deploy(firewallGraph("customer2", 150, "drop proto=udp dport=53")); err != nil {
		t.Fatal(err)
	}
	topo := o.Topology()
	if topo.NodeName != "cpe" || len(topo.Graphs) != 2 {
		t.Fatalf("topology = %+v", topo)
	}
	// The base LSI has: 2 interfaces + 2 vlinks per graph (endpoints)
	// + 1 NNF port + 1 NNF vlink for customer2's shared firewall.
	if len(topo.LSI0.Ports) != 2+2+2+1+1 {
		t.Errorf("LSI-0 ports = %v", topo.LSI0.Ports)
	}
	// Figure 1 structure in DOT: LSI-0, per-graph LSIs, NFs, interfaces.
	dot := topo.DOT()
	for _, want := range []string{
		"digraph", "LSI-0", "lsi_customer1", "lsi_customer2",
		"nf_customer1_vpn", "nf_customer2_fw", "NNF", "[shared]",
		"if_eth0", "if_eth1", "virtual link",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	txt := topo.String()
	for _, want := range []string{"customer1", "customer2", "native", "shared NNF"} {
		if !strings.Contains(txt, want) {
			t.Errorf("text topology missing %q:\n%s", want, txt)
		}
	}
}

func TestDPDKPlacement(t *testing.T) {
	o := newNode(t)
	g := &nffg.Graph{
		ID: "dpdk-router",
		NFs: []nffg.NF{{
			ID: "r", Name: "router",
			Ports:                []nffg.NFPort{{ID: "0"}, {ID: "1"}},
			TechnologyPreference: nffg.TechDPDK,
			Config: map[string]string{
				"routes": "0.0.0.0/0,1,02:02:02:02:02:02,04:04:04:04:04:04",
			},
		}},
		Endpoints: []nffg.Endpoint{
			{ID: "in", Type: nffg.EPInterface, Interface: "eth0"},
			{ID: "out", Type: nffg.EPInterface, Interface: "eth1"},
		},
		Rules: []nffg.FlowRule{
			{ID: "r1", Priority: 10, Match: nffg.RuleMatch{PortIn: nffg.EndpointRef("in")},
				Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.NFPortRef("r", "0")}}},
			{ID: "r2", Priority: 10, Match: nffg.RuleMatch{PortIn: nffg.NFPortRef("r", "1")},
				Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.EndpointRef("out")}}},
		},
	}
	if err := o.Deploy(g); err != nil {
		t.Fatal(err)
	}
	d, _ := o.Graph("dpdk-router")
	if d.Instances()["r"].Technology != nffg.TechDPDK {
		t.Error("router not placed on DPDK")
	}
	send(t, o, "eth0", clearFrame(t))
	if _, ok := recv(t, o, "eth1"); !ok {
		t.Error("routed traffic lost")
	}
}

// A node keeps a frozen graph it is handed as it is and a copy of any other,
// so the caller may modify its own graph once Deploy or Update returns; Scale
// replaces the value the node holds instead of editing it.
func TestNodeHoldsGraphValues(t *testing.T) {
	o := newNode(t)
	g := chainGraph("g", "firewall", nffg.TechDocker, map[string]string{"default": "accept"})
	if err := o.Deploy(g); err != nil {
		t.Fatal(err)
	}
	held, _ := o.Spec("g")
	if held == g || held.Value() != held {
		t.Fatalf("deploy of a caller's graph holds it (%v) or holds a copy that is not frozen (%v)", held == g, held.Value() == held)
	}
	g.NFs[0].Config["default"] = "drop"
	if held.NFs[0].Config["default"] != "accept" {
		t.Fatal("modifying the caller's graph changed the node's")
	}
	frozen := chainGraph("g", "firewall", nffg.TechDocker, map[string]string{"default": "drop"}).Freeze()
	if err := o.Update(frozen); err != nil {
		t.Fatal(err)
	}
	if held, _ = o.Spec("g"); held != frozen {
		t.Fatal("update with a frozen graph copied it")
	}
	if err := o.Scale("g", "nf", 2); err != nil {
		t.Fatal(err)
	}
	scaled, _ := o.Spec("g")
	if scaled == frozen || frozen.NFs[0].Replicas != 0 || scaled.NFs[0].Replicas != 2 || scaled.Value() != scaled {
		t.Fatalf("scale edited the held value (%d replicas) or did not replace it (%d replicas)",
			frozen.NFs[0].Replicas, scaled.NFs[0].Replicas)
	}
	if &scaled.Rules[0] != &frozen.Rules[0] {
		t.Error("scale copied the rules it did not change")
	}
}
