//go:build !race

// Allocation figures differ under the race detector's instrumentation.

package un_test

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	un "repro"
	"repro/internal/global"
	"repro/internal/netdev"
	"repro/internal/pkt"
)

// nodePath is traffic through deployed nodes: each lane's frames are sent
// in bursts of 32 at tx, as unbench sends them, and must all come out.
type nodePath struct {
	lanes     []nodeLane
	delivered int
}

type nodeLane struct {
	tx     *netdev.Port
	frames [][]byte
}

// sink makes p an egress that owns what it gets, as unbench's does.
func (np *nodePath) sink(p *netdev.Port) {
	p.SetHandler(func(f netdev.Frame) {
		np.delivered++
		pkt.PutBuffer(f.Data)
	})
}

// send runs every lane's frames once and returns how many went in.
func (np *nodePath) send() int {
	var burst [32]netdev.Frame
	n := 0
	for _, l := range np.lanes {
		for i := 0; i < len(l.frames); i += len(burst) {
			b := burst[:min(len(burst), len(l.frames)-i)]
			for j := range b {
				b[j] = netdev.Frame{Data: l.frames[i+j]}
			}
			_, _ = l.tx.SendBatch(b)
			n += len(b)
		}
	}
	return n
}

// nodeChain builds `name` as a node with eth0 (lan) and eth1 (wan) and the
// graph deployed, closed when the test ends.
func nodeChain(t *testing.T, name string, g *un.Graph) (lan, wan *netdev.Port) {
	t.Helper()
	node, err := un.NewNode(un.Config{Name: name})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	if err := node.Deploy(g); err != nil {
		t.Fatal(err)
	}
	return mustPort(t, node, "eth0"), mustPort(t, node, "eth1")
}

// chainGraph steers lan → nfs → wan through ports "0" (inside) and "1"
// (outside) of each NF, and the way back.
func chainGraph(id string, nfs ...un.NF) *un.Graph {
	g := &un.Graph{ID: id, NFs: nfs, Endpoints: []un.Endpoint{
		{ID: "lan", Type: un.EPInterface, Interface: "eth0"},
		{ID: "wan", Type: un.EPInterface, Interface: "eth1"},
	}}
	hop := func(from, to un.PortRef) {
		g.Rules = append(g.Rules, un.FlowRule{ID: fmt.Sprint("r", len(g.Rules)), Priority: 10,
			Match: un.RuleMatch{PortIn: from}, Actions: []un.RuleAction{{Type: un.ActOutput, Output: to}}})
	}
	out, back := un.EndpointRef("lan"), un.EndpointRef("wan")
	for i := range nfs {
		hop(out, un.NFPortRef(nfs[i].ID, "0"))
		hop(back, un.NFPortRef(nfs[len(nfs)-1-i].ID, "1"))
		out, back = un.NFPortRef(nfs[i].ID, "1"), un.NFPortRef(nfs[len(nfs)-1-i].ID, "0")
	}
	hop(out, un.EndpointRef("wan"))
	hop(back, un.EndpointRef("lan"))
	return g
}

func udpFrames(n, size int, src, dst pkt.Addr) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = pkt.MustBuildFrame(pkt.FrameSpec{
			SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2},
			SrcIP: pkt.Addr{src[0], src[1], byte(i >> 8), byte(1 + i)}, DstIP: dst,
			SrcPort: uint16(20000 + i), DstPort: uint16(1000 + i%256), PayloadLen: size - 42,
		})
	}
	return out
}

// chainPath is chain-small's graph — a conntrack firewall, a NAT and a
// monitor, both ways — with 64 flows of 64 B frames. The firewall runs as
// the node's shared native NF behind LSI-0; the NAT and the monitor attach
// to the graph LSI. The return frames are built from what the NAT sent out,
// as the far end would answer.
func chainPath(t *testing.T) *nodePath {
	two := []un.NFPort{{ID: "0"}, {ID: "1"}}
	lan, wan := nodeChain(t, "cpe", chainGraph("chain",
		un.NF{ID: "fw", Name: "firewall", Ports: two, Config: map[string]string{
			"rules": "drop proto=tcp dport=22;accept proto=udp src=10.0.0.0/8", "default": "drop", "conntrack": "true"}},
		un.NF{ID: "nat", Name: "nat", Ports: two, Config: map[string]string{"external_ip": "198.51.100.1"}},
		un.NF{ID: "mon", Name: "monitor", Ports: two}))
	out := udpFrames(64, 64, pkt.Addr{10, 0, 0, 0}, pkt.Addr{203, 0, 113, 9})
	var back [][]byte
	wan.SetHandler(func(f netdev.Frame) {
		d := f.Data // Ethernet, IPv4 and UDP headers without options
		back = append(back, pkt.MustBuildFrame(pkt.FrameSpec{
			SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 2}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 1},
			SrcIP: pkt.Addr(d[30:34]), DstIP: pkt.Addr(d[26:30]),
			SrcPort: binary.BigEndian.Uint16(d[36:]), DstPort: binary.BigEndian.Uint16(d[34:]), PayloadLen: 64 - 42,
		}))
	})
	for _, f := range out {
		_ = lan.Send(netdev.Frame{Data: f})
	}
	if len(back) != len(out) {
		t.Fatalf("%d of %d flows crossed the chain", len(back), len(out))
	}
	np := &nodePath{lanes: []nodeLane{{lan, out}, {wan, back}}}
	np.sink(lan)
	np.sink(wan)
	return np
}

// ipsecPath is the two-node IPsec tunnel: 16 flows of 1 500 B frames each
// way, encapsulated on one node and decapsulated on the other.
func ipsecPath(t *testing.T) *nodePath {
	var lan, wan [2]*netdev.Port
	for side, name := range []string{"A", "B"} {
		cfg := ipsecConfig()
		if side == 1 {
			cfg["local"], cfg["remote"] = cfg["remote"], cfg["local"]
		}
		lan[side], wan[side] = nodeChain(t, name, chainGraph("tunnel", un.NF{ID: "vpn", Name: "ipsec",
			Ports: []un.NFPort{{ID: "0"}, {ID: "1"}}, TechnologyPreference: un.TechNative, Config: cfg}))
	}
	t.Cleanup(global.Patch(wan[0], wan[1]))
	np := &nodePath{lanes: []nodeLane{
		{lan[0], udpFrames(16, 1500, pkt.Addr{10, 1, 0, 0}, pkt.Addr{10, 2, 0, 9})},
		{lan[1], udpFrames(16, 1500, pkt.Addr{10, 2, 0, 0}, pkt.Addr{10, 1, 0, 9})},
	}}
	np.sink(lan[0])
	np.sink(lan[1])
	return np
}

// fwdPath is fwd-flows' graph: no NF, 256 rules lan → wan on UDP
// destination ports 1000-1255, and four 64 B flows per rule. Its graph LSI
// caches, and flows that share a slot of the direct-mapped cache evict each
// other, each miss allocating a verdict; which flows share one depends on
// the switch's random hash seed. Over 1 024 flows that churn is about a
// tenth of an allocation per frame, and it varies far less than the
// ceiling's slack: the row read 2.10–2.15 over 60 runs.
func fwdPath(t *testing.T) *nodePath {
	g := chainGraph("fwd")
	g.Rules = nil
	for i := 0; i < 256; i++ {
		g.Rules = append(g.Rules, un.FlowRule{ID: fmt.Sprint("r", i), Priority: 10,
			Match:   un.RuleMatch{PortIn: un.EndpointRef("lan"), IPProto: uint8(pkt.IPProtocolUDP), L4Dst: uint16(1000 + i)},
			Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.EndpointRef("wan")}}})
	}
	lan, wan := nodeChain(t, "fwd", g)
	np := &nodePath{lanes: []nodeLane{{lan, udpFrames(1024, 64, pkt.Addr{10, 0, 0, 0}, pkt.Addr{203, 0, 113, 9})}}}
	np.sink(wan)
	return np
}

// TestNodePathAllocs is the whole-path allocation gate: allocations and
// bytes per frame through deployed nodes, driven from their interfaces. The
// readings are those of a switch that returns what an NF hands it; before
// it did, the chain read 7.01 allocations and 12.09 KB per frame and the
// tunnel 7.03 and 14.04 KB. The forward-only row has no NF and reads the
// same either way: its switches still borrow what another switch hands
// them. Each row is held at its reading + 0.05 allocations and + 2 % bytes.
func TestNodePathAllocs(t *testing.T) {
	for _, c := range []struct {
		name    string
		path    func(*testing.T) *nodePath
		allocs  float64 // per frame
		bytesKB float64 // per frame
	}{
		{"chain-small", chainPath, 5.01, 8.09},
		{"ipsec-tunnel", ipsecPath, 5.03, 10.04},
		{"fwd-256", fwdPath, 2.12, 4.01},
	} {
		t.Run(c.name, func(t *testing.T) {
			np := c.path(t)
			var sent int
			for i := 0; i < 10; i++ {
				np.delivered = 0
				sent = np.send()
				if np.delivered != sent {
					t.Fatalf("%d of %d frames delivered", np.delivered, sent)
				}
			}
			// About 4 096 frames a count, and no collection while counting:
			// one empties the buffer pool and the spare lanes, and what
			// refills them would read as noise.
			runs := 4096 / sent
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			allocs := testing.AllocsPerRun(runs, func() { np.send() }) / float64(sent)
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				np.send()
			}
			runtime.ReadMemStats(&after)
			kb := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(runs*sent)
			t.Logf("%.3f allocations and %.3f KB per frame (readings %.2f and %.2f KB)", allocs, kb, c.allocs, c.bytesKB)
			if allocs > c.allocs+0.05 || kb > c.bytesKB*1.02 {
				t.Errorf("%.3f allocations and %.3f KB per frame, over %.2f + 0.05 and %.2f KB + 2 %%", allocs, kb, c.allocs, c.bytesKB)
			}
		})
	}
}
