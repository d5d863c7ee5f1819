package un_test

import (
	"bytes"
	"encoding/json"
	"testing"

	un "repro"
	"repro/internal/cluster"
	"repro/internal/global"
)

// TestCallersGraphIsNotHeld is the aliasing property of graphs as values:
// after Deploy or Update returns, modifying the caller's graph changes
// nothing any tier holds, and the global desired graph and the graph each
// node runs are byte for byte the desired graph and the subgraphs of the
// graph's intent record. A graph handed out by Graph is the caller's too.
func TestCallersGraphIsNotHeld(t *testing.T) {
	nodes := map[string]*un.Node{}
	orch := global.New(global.Config{})
	records := map[string][]byte{}
	orch.SetIntentRecorder(func(_ cluster.OpKind, key string, data json.RawMessage) (func() error, error) {
		records[key] = data
		return nil, nil
	})
	for name, ifaces := range map[string][]string{"n1": {"lan", "x12"}, "n2": {"x12", "x23"}, "n3": {"x23", "wan"}} {
		n, err := un.NewNode(un.Config{
			Name: name, Interfaces: ifaces, CPUMillis: 250, RAMBytes: 1 << 30,
			Capabilities: []string{"docker", "nnf:firewall", "nnf:monitor", "nnf:bridge"},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		nodes[name] = n
	}
	for _, name := range []string{"n1", "n2", "n3"} {
		if err := orch.AddNode(global.NewLocalNode(name, nodes[name])); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range [][3]string{{"n1", "n2", "x12"}, {"n2", "n3", "x23"}} {
		pa, _ := nodes[l[0]].InterfacePort(l[2])
		pb, _ := nodes[l[1]].InterfacePort(l[2])
		t.Cleanup(global.Patch(pa, pb))
		if err := orch.Link(l[0], l[2], l[1], l[2]); err != nil {
			t.Fatal(err)
		}
	}
	encode := func(g *un.Graph) []byte {
		data, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	// scribble modifies every part of a graph it holds.
	scribble := func(g *un.Graph) {
		g.Name = "scribbled"
		for i := range g.NFs {
			n := &g.NFs[i]
			if n.Config == nil {
				n.Config = map[string]string{}
			}
			n.Config["default"] = "drop"
			n.Ports[0].ID, n.Replicas = "9", 3
		}
		for i := range g.Endpoints {
			g.Endpoints[i].Interface = "eth9"
		}
		for i := range g.Rules {
			g.Rules[i].Actions[0].Output = un.EndpointRef("x")
		}
		g.Rules = g.Rules[:1]
	}
	check := func(step string, want []byte) {
		t.Helper()
		var record struct {
			Desired json.RawMessage            `json:"desired"`
			Subs    map[string]json.RawMessage `json:"subs"`
		}
		if err := json.Unmarshal(records["svc"], &record); err != nil {
			t.Fatal(err)
		}
		desired, _ := orch.Graph("svc")
		if got := encode(desired); !bytes.Equal(got, want) || !bytes.Equal(record.Desired, want) {
			t.Errorf("%s: desired graph\n%s\nintent record\n%s\nwant the caller's graph as it was handed over\n%s", step, got, record.Desired, want)
		}
		if len(record.Subs) < 2 {
			t.Fatalf("%s: the chain is split over %d node(s), want at least 2", step, len(record.Subs))
		}
		for name, n := range nodes {
			g, ok := n.Graph("svc")
			sub, recorded := record.Subs[name]
			if ok != recorded || ok && !bytes.Equal(encode(g), sub) {
				t.Errorf("%s: %s runs\n%s\nthe intent record holds\n%s", step, name, encode(g), sub)
			}
			if ok {
				scribble(g)
			}
		}
		desired, _ = orch.Graph("svc")
		scribble(desired)
	}
	for _, step := range []string{"deploy", "update"} {
		g := globalChain("svc", 6)
		g.NFs[0].Config = map[string]string{"rules": "drop proto=tcp dport=82", "default": "accept"}
		put := orch.Deploy
		if step == "update" {
			g.NFs[0].Config["rules"] += ";drop proto=tcp dport=443"
			put = orch.Update
		}
		want := encode(g)
		if err := put(g); err != nil {
			t.Fatal(err)
		}
		scribble(g)
		check(step, want)
		check(step+", read twice", want)
	}
}
