// HA control plane: three global-orchestrator replicas form a cluster —
// a lease-based leader election with PreVote, and a replicated intent
// journal. Only the leader mutates placement; every desired-state
// change is streamed to the followers as a sequence-numbered op. When the
// leader crashes mid-lease, a follower wins the election, replays the
// journal into an identical desired state, and adopts the running fleet
// without touching it — the NAT's port bindings survive the failover.
// The deposed replica fences itself: once its lease expires it refuses
// writes, so there is never a second writer.
//
// Run with: go run ./examples/hacluster
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"time"

	un "repro"
	"repro/internal/cluster"
	"repro/internal/global"
	"repro/internal/netdev"
	"repro/internal/pkt"
)

func natGraph(id string) *un.Graph {
	return &un.Graph{
		ID: id,
		NFs: []un.NF{{
			ID: "nat", Name: "nat",
			Ports:                []un.NFPort{{ID: "0"}, {ID: "1"}},
			TechnologyPreference: un.TechDocker,
			Config:               map[string]string{"external_ip": "198.51.100.1"},
		}},
		Endpoints: []un.Endpoint{
			{ID: "lan", Type: un.EPInterface, Interface: "eth0"},
			{ID: "wan", Type: un.EPInterface, Interface: "eth1"},
		},
		Rules: []un.FlowRule{
			{ID: "r1", Priority: 10, Match: un.RuleMatch{PortIn: un.EndpointRef("lan")},
				Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.NFPortRef("nat", "0")}}},
			{ID: "r2", Priority: 10, Match: un.RuleMatch{PortIn: un.NFPortRef("nat", "1")},
				Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.EndpointRef("wan")}}},
			{ID: "r3", Priority: 10, Match: un.RuleMatch{PortIn: un.EndpointRef("wan")},
				Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.NFPortRef("nat", "1")}}},
			{ID: "r4", Priority: 10, Match: un.RuleMatch{PortIn: un.NFPortRef("nat", "0")},
				Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.EndpointRef("lan")}}},
		},
	}
}

func main() {
	// One Universal Node: the managed fleet. It keeps forwarding no
	// matter what happens to the control plane above it.
	node, err := un.NewNode(un.Config{
		Name: "edge", Interfaces: []string{"eth0", "eth1"},
		CPUMillis: 4000, RAMBytes: 1 * un.GB,
		Capabilities: []string{"docker", "nnf:nat"},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()
	local := global.NewLocalNode("edge", node)
	resolver := func(name string, _ json.RawMessage) (global.Node, error) {
		if name != "edge" {
			return nil, fmt.Errorf("unknown node %q", name)
		}
		return local, nil
	}

	// Three control-plane replicas over the in-process transport. A real
	// deployment runs three `un-global -id rN -join ...` daemons; the
	// cluster wiring is identical.
	net := cluster.NewLocalNetwork()
	ids := []string{"r1", "r2", "r3"}
	var peers []cluster.PeerSpec
	for _, id := range ids {
		peers = append(peers, cluster.PeerSpec{ID: id, Addr: "http://" + id})
	}
	orchs := map[string]*global.Orchestrator{}
	clusters := map[string]*cluster.Cluster{}
	for _, id := range ids {
		o := global.New(global.Config{ProbeInterval: 20 * time.Millisecond})
		c, err := global.BuildHA(o, cluster.Options{
			ID: id, ClusterID: "demo", Peers: peers,
			Transport:         net.Transport(id),
			HeartbeatInterval: 10 * time.Millisecond,
			LeaseDuration:     120 * time.Millisecond,
		}, resolver)
		if err != nil {
			log.Fatal(err)
		}
		net.Register(id, c)
		orchs[id], clusters[id] = o, c
	}
	for _, id := range ids {
		clusters[id].Start()
		defer clusters[id].Close()
	}

	leaderOf := func(exclude string) string {
		for {
			for _, id := range ids {
				if id != exclude && clusters[id].IsLeader() {
					return id
				}
			}
			time.Sleep(time.Millisecond)
		}
	}
	lead := leaderOf("")
	fmt.Printf("cluster up: %v, leader %q (term %d)\n", ids, lead, clusters[lead].Term())

	// All writes go through the leader; each lands in the intent journal
	// and is committed once a quorum of followers acknowledges it.
	if err := orchs[lead].AddNode(local); err != nil {
		log.Fatal(err)
	}
	if err := orchs[lead].Deploy(natGraph("cpe")); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployed \"cpe\" through %q; journal committed through seq %d\n",
		lead, clusters[lead].CommitSeq())

	// Open a connection through the NAT: live state the failover must
	// not lose.
	probe := func(srcPort uint16) uint16 {
		frame := pkt.MustBuildFrame(pkt.FrameSpec{
			SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2},
			SrcIP: pkt.Addr{10, 0, 0, 1}, DstIP: pkt.Addr{203, 0, 113, 50},
			SrcPort: srcPort, DstPort: 53, PayloadLen: 64,
		})
		lan, _ := node.InterfacePort("eth0")
		wan, _ := node.InterfacePort("eth1")
		if err := lan.Send(netdev.Frame{Data: frame}); err != nil {
			log.Fatal(err)
		}
		out, ok := wan.TryRecv()
		if !ok {
			log.Fatal("NAT dropped the probe")
		}
		udp, _ := pkt.NewPacket(out.Data, pkt.LayerTypeEthernet, pkt.Default).
			Layer(pkt.LayerTypeUDP).(*pkt.UDP)
		return udp.SrcPort
	}
	ext := probe(30001)
	fmt.Printf("connection established: :30001 -> external port %d\n", ext)

	// Crash the leader. Once its lease lapses a follower wins the next
	// term, and promotion replays the journal.
	fmt.Printf("\nkilling leader %q ...\n", lead)
	net.SetDown(lead, true)
	t0 := time.Now()
	succ := leaderOf(lead)
	for len(orchs[succ].GraphIDs()) == 0 {
		time.Sleep(time.Millisecond)
	}
	fmt.Printf("%q promoted in term %d after %v; replayed graphs: %v\n",
		succ, clusters[succ].Term(), time.Since(t0).Round(time.Millisecond),
		orchs[succ].GraphIDs())

	// The deposed replica fences itself on lease expiry: no split brain.
	for clusters[lead].IsLeader() {
		time.Sleep(time.Millisecond)
	}
	err = orchs[lead].Undeploy("cpe")
	fmt.Printf("write on deposed %q: %v (fenced: %v)\n",
		lead, err, errors.Is(err, global.ErrNotLeader))

	// Promotion adopted the running node without redeploying, so the
	// binding made under the old leader still translates identically.
	got := probe(30001)
	fmt.Printf("binding after failover: :30001 -> external port %d (state loss: %v)\n",
		got, got != ext)
}
