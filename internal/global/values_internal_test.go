package global

import (
	"reflect"
	"testing"

	"repro/internal/nffg"
)

// roomyNode is a faultyNode with the capacity, interfaces and capabilities
// placement needs.
type roomyNode struct{ *faultyNode }

func (n roomyNode) Status() (Status, error) {
	return Status{Name: n.name, FreeCPUMillis: 1000, TotalCPUMillis: 1000, FreeRAMBytes: 1 << 30, TotalRAMBytes: 1 << 30,
		Interfaces: []string{"lan", "wan"}, Capabilities: []string{"docker", "nnf:firewall", "nnf:monitor"}}, nil
}

// The global tier holds one value per graph and per piece, and hands the
// nodes those very values: Deploy keeps a frozen copy of the caller's graph,
// every subgraph is frozen and shares the desired graph's NFs, an update that
// leaves a node's piece as it was keeps that value (and calls no node), and
// Scale replaces the deployment instead of editing the graphs a node holds.
func TestGraphsAreSharedValues(t *testing.T) {
	o := New(Config{Logf: t.Logf})
	f := &faultyFleet{nodes: make(map[string]*faultyNode)}
	for _, name := range []string{"n1", "n2"} {
		n := &faultyNode{fleet: f, name: name, graphs: make(map[string]*nffg.Graph)}
		f.nodes[name] = n
		if err := o.AddNode(roomyNode{n}); err != nil {
			t.Fatal(err)
		}
	}
	chain := func() *nffg.Graph {
		g := &nffg.Graph{ID: "svc",
			NFs: []nffg.NF{
				{ID: "fw", Name: "firewall", Ports: []nffg.NFPort{{ID: "0"}, {ID: "1"}}, TechnologyPreference: nffg.TechDocker,
					Config: map[string]string{"default": "accept"}, AntiAffinity: "spread"},
				{ID: "mon", Name: "monitor", Ports: []nffg.NFPort{{ID: "0"}, {ID: "1"}}, AntiAffinity: "spread"},
			},
			Endpoints: []nffg.Endpoint{{ID: "lan", Type: nffg.EPInterface, Interface: "lan"}},
		}
		for i, hop := range [][2]nffg.PortRef{
			{nffg.EndpointRef("lan"), nffg.NFPortRef("fw", "0")},
			{nffg.NFPortRef("fw", "1"), nffg.NFPortRef("mon", "0")},
		} {
			g.Rules = append(g.Rules, nffg.FlowRule{ID: string(rune('a' + i)), Priority: 10, Match: nffg.RuleMatch{PortIn: hop[0]},
				Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: hop[1]}}})
		}
		return g
	}
	g := chain()
	if err := o.Link("n1", "lan", "n2", "lan"); err != nil {
		t.Fatal(err)
	}
	if err := o.Deploy(g); err != nil {
		t.Fatal(err)
	}
	dep := o.graphs["svc"]
	if dep.Desired == g || dep.Desired.Value() != dep.Desired || len(dep.Subs) != 2 {
		t.Fatalf("desired is the caller's graph (%v), not frozen (%v), or not split over two nodes (%d)",
			dep.Desired == g, dep.Desired.Value() == dep.Desired, len(dep.Subs))
	}
	for node, sub := range dep.Subs {
		if sub.Value() != sub || f.nodes[node].graphs["svc"] != sub {
			t.Errorf("%s holds a copy of its piece, or the piece is not frozen", node)
		}
	}
	fwNode := dep.Placement.NFNode["fw"]
	if reflect.ValueOf(dep.Subs[fwNode].FindNF("fw").Config).UnsafePointer() != reflect.ValueOf(dep.Desired.FindNF("fw").Config).UnsafePointer() {
		t.Error("the firewall's piece copied its configuration instead of sharing the desired graph's")
	}

	// A config change of the firewall reaches its node only; the other
	// node's piece is the value it was.
	calls := f.calls
	upd := chain()
	upd.NFs[0].Config["default"] = "drop"
	other := dep.Subs[dep.Placement.NFNode["mon"]]
	if err := o.Update(upd); err != nil {
		t.Fatal(err)
	}
	now := o.graphs["svc"]
	if f.calls-calls != 1 || now.Subs[dep.Placement.NFNode["mon"]] != other {
		t.Errorf("config update made %d node calls, or rebuilt the unchanged piece", f.calls-calls)
	}

	// Scale replaces the deployment: the graphs the nodes hold keep their
	// replica count, the new desired graph and piece carry the new one.
	held := f.nodes[fwNode].graphs["svc"]
	if err := o.Scale("svc", "fw", 2); err != nil {
		t.Fatal(err)
	}
	scaled := o.graphs["svc"]
	if held.FindNF("fw").Replicas != 0 || now.Desired.FindNF("fw").Replicas != 0 {
		t.Error("scale edited a graph in place")
	}
	if scaled.Desired.FindNF("fw").Replicas != 2 || scaled.Subs[fwNode].FindNF("fw").Replicas != 2 {
		t.Error("scale did not record the new replica count")
	}
}
