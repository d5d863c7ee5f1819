package orchestrator

import (
	"sync"
	"testing"

	"repro/internal/nf"
	"repro/internal/nffg"
	"repro/internal/pkt"
)

const natExternalIP = "198.51.100.1"

// natGraph wires a source NAT between the LAN (eth0) and WAN (eth1).
func natGraph(id string, replicas int) *nffg.Graph {
	return &nffg.Graph{
		ID: id,
		NFs: []nffg.NF{{
			ID: "nat", Name: "nat",
			Ports:                []nffg.NFPort{{ID: "0"}, {ID: "1"}},
			TechnologyPreference: nffg.TechDocker,
			Config:               map[string]string{"external_ip": natExternalIP},
			Replicas:             replicas,
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

// natConnection is one live translated connection the tests drive traffic
// through across scale operations.
type natConnection struct {
	srcIP            pkt.Addr
	srcPort, extPort uint16
}

var natRemote = pkt.Addr{203, 0, 113, 50}

const natRemotePort = 53

func (c *natConnection) outboundFrame(t *testing.T) []byte {
	t.Helper()
	return pkt.MustBuildFrame(pkt.FrameSpec{
		SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: c.srcIP, DstIP: natRemote,
		SrcPort: c.srcPort, DstPort: natRemotePort, PayloadLen: 64,
	})
}

func (c *natConnection) replyFrame(t *testing.T) []byte {
	t.Helper()
	ext, err := pkt.ParseAddr(natExternalIP)
	if err != nil {
		t.Fatal(err)
	}
	return pkt.MustBuildFrame(pkt.FrameSpec{
		SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 2}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 1},
		SrcIP: natRemote, DstIP: ext,
		SrcPort: natRemotePort, DstPort: c.extPort, PayloadLen: 64,
	})
}

func udpOf(t *testing.T, frame []byte) *pkt.UDP {
	t.Helper()
	p := pkt.NewPacket(frame, pkt.LayerTypeEthernet, pkt.Default)
	udp, ok := p.Layer(pkt.LayerTypeUDP).(*pkt.UDP)
	if !ok {
		t.Fatalf("frame is not UDP: %v", p)
	}
	return udp
}

// establishNATConns opens n distinct connections through the NAT and
// records the external port each was mapped to.
func establishNATConns(t *testing.T, o *Orchestrator, n int) []*natConnection {
	t.Helper()
	conns := make([]*natConnection, n)
	for i := range conns {
		c := &natConnection{
			srcIP:   pkt.Addr{10, 0, 0, byte(i + 1)},
			srcPort: uint16(30000 + i),
		}
		send(t, o, "eth0", c.outboundFrame(t))
		out, ok := recv(t, o, "eth1")
		if !ok {
			t.Fatalf("conn %d: outbound packet lost", i)
		}
		c.extPort = udpOf(t, out).SrcPort
		conns[i] = c
	}
	return conns
}

// verifyNATConns pushes one packet in each direction of every connection
// and fails on any packet loss, any binding change (state loss) or any
// mistranslated reply.
func verifyNATConns(t *testing.T, o *Orchestrator, conns []*natConnection, phase string) {
	t.Helper()
	for i, c := range conns {
		send(t, o, "eth0", c.outboundFrame(t))
		out, ok := recv(t, o, "eth1")
		if !ok {
			t.Fatalf("%s: conn %d: outbound packet lost", phase, i)
		}
		if got := udpOf(t, out).SrcPort; got != c.extPort {
			t.Fatalf("%s: conn %d: binding changed: ext port %d, want %d (state lost)",
				phase, i, got, c.extPort)
		}
		send(t, o, "eth1", c.replyFrame(t))
		back, ok := recv(t, o, "eth0")
		if !ok {
			t.Fatalf("%s: conn %d: reply packet lost", phase, i)
		}
		udp := udpOf(t, back)
		p := pkt.NewPacket(back, pkt.LayerTypeEthernet, pkt.Default)
		ip := p.Layer(pkt.LayerTypeIPv4).(*pkt.IPv4)
		if ip.DstIP != c.srcIP || udp.DstPort != c.srcPort {
			t.Fatalf("%s: conn %d: reply mistranslated to %v:%d, want %v:%d",
				phase, i, ip.DstIP, udp.DstPort, c.srcIP, c.srcPort)
		}
	}
}

// TestScaleOutNATLiveMigration is the issue's acceptance scenario: a NAT
// scales 1 -> 3 -> 2 -> 1 under live traffic with zero packet loss and zero
// state loss (every established binding survives every reshape).
func TestScaleOutNATLiveMigration(t *testing.T) {
	o := newNode(t)
	if err := o.Deploy(natGraph("g", 1)); err != nil {
		t.Fatal(err)
	}
	conns := establishNATConns(t, o, 32)

	if err := o.Scale("g", "nat", 3); err != nil {
		t.Fatal(err)
	}
	if n, _ := o.Replicas("g", "nat"); n != 3 {
		t.Fatalf("replicas = %d, want 3", n)
	}
	verifyNATConns(t, o, conns, "after 1->3")

	// The binding load actually spread: more than one replica holds state.
	holders := 0
	for _, inst := range o.ReplicaInstances("g", "nat") {
		if nat, ok := inst.Runtime.Processor().(*nf.NAT); ok && nat.Bindings() > 0 {
			holders++
		}
	}
	if holders < 2 {
		t.Fatalf("bindings concentrated on %d replica(s), want spread over >= 2", holders)
	}

	// New connections opened while scaled land on their bucket's owner and
	// keep working through the later scale-down.
	for i := 0; i < 8; i++ {
		c := &natConnection{srcIP: pkt.Addr{10, 0, 1, byte(i + 1)}, srcPort: uint16(40000 + i)}
		send(t, o, "eth0", c.outboundFrame(t))
		out, ok := recv(t, o, "eth1")
		if !ok {
			t.Fatalf("scaled conn %d: outbound packet lost", i)
		}
		c.extPort = udpOf(t, out).SrcPort
		conns = append(conns, c)
	}

	if err := o.Scale("g", "nat", 2); err != nil {
		t.Fatal(err)
	}
	if n, _ := o.Replicas("g", "nat"); n != 2 {
		t.Fatalf("replicas = %d, want 2", n)
	}
	verifyNATConns(t, o, conns, "after 3->2")

	if err := o.Scale("g", "nat", 1); err != nil {
		t.Fatal(err)
	}
	if n, _ := o.Replicas("g", "nat"); n != 1 {
		t.Fatalf("replicas = %d, want 1", n)
	}
	d, _ := o.Graph("g")
	o.mu.Lock()
	set := d.nfs["nat"]
	o.mu.Unlock()
	if len(set.draining) != 0 || set.assign != nil {
		t.Fatalf("set not back to one member owning every bucket after scale-down to 1: %+v", set)
	}
	verifyNATConns(t, o, conns, "after 2->1")
}

// TestDeployHonorsReplicas: a spec with replicas: N comes up sharded.
func TestDeployHonorsReplicas(t *testing.T) {
	o := newNode(t)
	if err := o.Deploy(natGraph("g", 3)); err != nil {
		t.Fatal(err)
	}
	if n, _ := o.Replicas("g", "nat"); n != 3 {
		t.Fatalf("replicas = %d, want 3", n)
	}
	conns := establishNATConns(t, o, 16)
	verifyNATConns(t, o, conns, "deployed at 3")
}

// TestUpdateScalesReplicas: changing only replicas in the spec scales the
// NF in place instead of restarting it (bindings survive).
func TestUpdateScalesReplicas(t *testing.T) {
	o := newNode(t)
	if err := o.Deploy(natGraph("g", 1)); err != nil {
		t.Fatal(err)
	}
	conns := establishNATConns(t, o, 16)
	if err := o.Update(natGraph("g", 3)); err != nil {
		t.Fatal(err)
	}
	if n, _ := o.Replicas("g", "nat"); n != 3 {
		t.Fatalf("replicas = %d, want 3", n)
	}
	verifyNATConns(t, o, conns, "after update to 3")
	if err := o.Update(natGraph("g", 1)); err != nil {
		t.Fatal(err)
	}
	if n, _ := o.Replicas("g", "nat"); n != 1 {
		t.Fatalf("replicas = %d, want 1", n)
	}
	verifyNATConns(t, o, conns, "after update back to 1")
}

// TestReplicaFailureRehoming kills one member of a three-member NAT under
// live connections; the repair salvages its flow state from the stopped
// runtime and re-homes its buckets onto the survivors. The active-active
// case is the same set with the descriptor field set: "serves through every
// replica; survives losing one" IS a set of >= 2 members plus RepairNF, so
// no code path is keyed on the mode.
func TestReplicaFailureRehoming(t *testing.T) {
	for _, mode := range []nffg.RedundancyMode{nffg.RedundancyNone, nffg.RedundancyActiveActive} {
		t.Run("redundancy="+string(mode), func(t *testing.T) {
			o := newNode(t)
			g := natGraph("g", 3)
			g.NFs[0].Redundancy = mode
			if err := o.Deploy(g); err != nil {
				t.Fatal(err)
			}
			conns := establishNATConns(t, o, 32)
			// Kill the last member out from under the orchestrator.
			insts := o.ReplicaInstances("g", "nat")
			if len(insts) != 3 {
				t.Fatalf("replica instances = %d, want 3", len(insts))
			}
			insts[2].Runtime.Stop()
			if err := o.RepairNF("g", "nat"); err != nil {
				t.Fatal(err)
			}
			if n, _ := o.Replicas("g", "nat"); n != 2 {
				t.Fatalf("replicas = %d, want 2", n)
			}
			verifyNATConns(t, o, conns, "after replica failure")

			// Killing the first member leaves the survivor standing for the NF.
			insts = o.ReplicaInstances("g", "nat")
			insts[0].Runtime.Stop()
			if n, err := o.RepairReplicas("g", "nat"); err != nil || n != 1 {
				t.Fatalf("survivors = %d (%v), want 1", n, err)
			}
			verifyNATConns(t, o, conns, "after first-member failure")
			if inst := o.ReplicaInstances("g", "nat")[0]; inst != insts[1] {
				t.Fatalf("NF stands on %s, want the survivor %s", inst.Name, insts[1].Name)
			}
		})
	}
}

// TestConcurrentScaleReflavorUpdate hammers one graph with racing Scale,
// Reflavor and Update operations; run under -race this is the issue's
// concurrency acceptance test. Any interleaving must leave the graph
// serving traffic.
func TestConcurrentScaleReflavorUpdate(t *testing.T) {
	o := newNode(t)
	if err := o.Deploy(natGraph("g", 1)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const iters = 15
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			_ = o.Scale("g", "nat", 1+i%3)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			// NAT packages docker and native flavors; native NAT instances
			// are exclusive (not shared), so a scaled NAT may hold either.
			tech := nffg.TechNative
			if i%2 == 0 {
				tech = nffg.TechDocker
			}
			_ = o.Reflavor("g", "nat", tech)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			g := natGraph("g", 1+(i+1)%3)
			g.Rules[0].Priority = 10 + i%5
			_ = o.Update(g)
		}
	}()
	wg.Wait()
	// Whatever the final interleaving, the datapath must still translate.
	c := &natConnection{srcIP: pkt.Addr{10, 0, 9, 9}, srcPort: 45678}
	send(t, o, "eth0", c.outboundFrame(t))
	out, ok := recv(t, o, "eth1")
	if !ok {
		t.Fatal("outbound packet lost after concurrent hammer")
	}
	c.extPort = udpOf(t, out).SrcPort
	send(t, o, "eth1", c.replyFrame(t))
	if _, ok := recv(t, o, "eth0"); !ok {
		t.Fatal("reply packet lost after concurrent hammer")
	}
	if n, _ := o.Replicas("g", "nat"); n < 1 || n > 3 {
		t.Fatalf("replicas = %d, want within [1,3]", n)
	}
}

// TestScaleRejectsSharedNNF: a shared native NF cannot shard (its traffic
// is mark-multiplexed on LSI-0, not per-replica ports).
func TestScaleRejectsSharedNNF(t *testing.T) {
	o := newNode(t)
	g := firewallGraph("g", 100, "drop proto=udp dport=53")
	// Make the firewall's native instance shared: deploy a second graph
	// sharing it is not needed — the native firewall plugin is sharable and
	// single-instance, so the attachment is the shared adapter.
	if err := o.Deploy(g); err != nil {
		t.Fatal(err)
	}
	insts := o.ReplicaInstances("g", "fw")
	if len(insts) != 1 {
		t.Fatalf("replica instances = %d, want 1", len(insts))
	}
	if !insts[0].Shared {
		t.Skip("firewall did not come up shared on this node")
	}
	starts := o.metrics.nfStarts.Value()
	if err := o.Scale("g", "fw", 2); err == nil {
		t.Fatal("scaling a shared NNF succeeded, want error")
	}
	// Nor can it keep a standby; both refusals are known from the plan,
	// before any instance boots: g2's member would join the shared one.
	g2 := firewallGraph("g2", 200, "")
	g2.NFs[0].TechnologyPreference = nffg.TechAny // the standby could boot as a container
	g2.NFs[0].Redundancy = nffg.RedundancyActiveStandby
	if err := o.Deploy(g2); err == nil {
		t.Fatal("a standby beside a shared NNF accepted, want error")
	}
	if got := o.metrics.nfStarts.Value() - starts; got != 0 {
		t.Errorf("the refusals started %d instance(s), want 0", got)
	}
}

// TestRebalanceAssignMinimalMovement checks the bucket rebalance moves only
// what it must and always converges to near-equal shares.
func TestRebalanceAssignMinimalMovement(t *testing.T) {
	var assign [64]int // all owned by replica 0
	rebalanceAssign(&assign, 3)
	counts := map[int]int{}
	for _, owner := range assign {
		counts[owner]++
	}
	// Replica 0 gave up exactly the 42 buckets above its share.
	if counts[0] != 22 || counts[1] != 21 || counts[2] != 21 {
		t.Fatalf("unbalanced shares after 1->3: %v", counts)
	}
	// Scale back down: only the removed replicas' buckets move.
	before := assign
	rebalanceAssign(&assign, 2)
	movedFromSurvivors := 0
	for b := range assign {
		if before[b] < 2 && assign[b] != before[b] {
			movedFromSurvivors++
		}
	}
	if movedFromSurvivors != 0 {
		t.Fatalf("%d buckets moved between survivors on scale-down, want 0", movedFromSurvivors)
	}
	counts = map[int]int{}
	for _, owner := range assign {
		counts[owner]++
	}
	if counts[0] != 32 || counts[1] != 32 {
		t.Fatalf("unbalanced shares after 3->2: %v", counts)
	}
}

// TestScaleValidation covers the error edges of the Scale API.
func TestScaleValidation(t *testing.T) {
	o := newNode(t)
	if err := o.Deploy(natGraph("g", 1)); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		graph, nf string
		replicas  int
	}{
		{"g", "nat", 0},
		{"g", "nat", nffg.MaxReplicas + 1},
		{"g", "ghost", 2},
		{"ghost", "nat", 2},
	}
	for _, c := range cases {
		if err := o.Scale(c.graph, c.nf, c.replicas); err == nil {
			t.Errorf("Scale(%q, %q, %d) succeeded, want error", c.graph, c.nf, c.replicas)
		}
	}
	// Scaling to the current count is a no-op, not an error.
	if err := o.Scale("g", "nat", 1); err != nil {
		t.Fatalf("no-op scale failed: %v", err)
	}
}
