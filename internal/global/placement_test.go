package global

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/nffg"
	"repro/internal/policy"
	"repro/internal/repository"
)

func view(name string, cpu int, ram uint64, caps, ifaces []string) nodeView {
	return newNodeView(Status{
		Name:          name,
		FreeCPUMillis: cpu,
		FreeRAMBytes:  ram,
		Capabilities:  caps,
		Interfaces:    ifaces,
	})
}

func twoNFChain(techs ...nffg.Technology) *nffg.Graph {
	g := &nffg.Graph{
		ID: "g",
		NFs: []nffg.NF{
			{ID: "a", Name: "firewall", Ports: []nffg.NFPort{{ID: "0"}, {ID: "1"}}},
			{ID: "b", Name: "monitor", Ports: []nffg.NFPort{{ID: "0"}, {ID: "1"}}},
		},
		Endpoints: []nffg.Endpoint{
			{ID: "in", Type: nffg.EPInterface, Interface: "lan"},
			{ID: "out", Type: nffg.EPInterface, Interface: "wan"},
		},
		Rules: []nffg.FlowRule{
			{ID: "r1", Priority: 10, Match: nffg.RuleMatch{PortIn: nffg.EndpointRef("in")},
				Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.NFPortRef("a", "0")}}},
			{ID: "r2", Priority: 10, Match: nffg.RuleMatch{PortIn: nffg.NFPortRef("a", "1")},
				Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.NFPortRef("b", "0")}}},
			{ID: "r3", Priority: 10, Match: nffg.RuleMatch{PortIn: nffg.NFPortRef("b", "1")},
				Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.EndpointRef("out")}}},
		},
	}
	for i, tech := range techs {
		if i < len(g.NFs) {
			g.NFs[i].TechnologyPreference = tech
		}
	}
	return g
}

func TestEstimateDemandPinnedVsAny(t *testing.T) {
	repo := repository.Default()
	// Pinned docker: docker flavor charge and capability.
	d, err := estimateDemand(repo, nffg.NF{ID: "x", Name: "ipsec", TechnologyPreference: nffg.TechDocker})
	if err != nil {
		t.Fatal(err)
	}
	if caps := d.caps(); d.cpuMillis != 500 || len(caps) != 1 || caps[0] != "docker" {
		t.Errorf("docker demand = %dm %v, want 500m [docker]", d.cpuMillis, caps)
	}
	// TechAny: cheapest flavor (native 250m), any flavor capability.
	d, err = estimateDemand(repo, nffg.NF{ID: "x", Name: "ipsec"})
	if err != nil {
		t.Fatal(err)
	}
	if caps := d.caps(); d.cpuMillis != 250 || len(caps) != 3 {
		t.Errorf("any demand = %dm %v, want 250m and 3 candidate caps", d.cpuMillis, caps)
	}
	// Unknown template.
	if _, err := estimateDemand(repo, nffg.NF{ID: "x", Name: "nonesuch"}); err == nil {
		t.Error("unknown template accepted")
	}
	// Pinned technology the template is not packaged for.
	if _, err := estimateDemand(repo, nffg.NF{ID: "x", Name: "nat", TechnologyPreference: nffg.TechVM}); err == nil {
		t.Error("unpackaged flavor accepted")
	}
}

func TestPlaceRespectsTechCapability(t *testing.T) {
	repo := repository.Default()
	views := []nodeView{
		view("native-only", 4000, 1<<30, []string{"nnf:firewall", "nnf:monitor"}, []string{"lan", "wan", "x"}),
		view("docker-only", 4000, 1<<30, []string{"docker"}, []string{"x"}),
	}
	links := []Link{{A: "native-only", AIf: "x", B: "docker-only", BIf: "x"}}
	// Pin the firewall to docker: it must land on the docker node even
	// though the walk starts on the endpoint node.
	g := twoNFChain(nffg.TechDocker, nffg.TechNative)
	pl, err := place(g, repo, policy.BinPack{}, views, links, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pl.NFNode["a"] != "docker-only" {
		t.Errorf("docker-pinned NF on %q, want docker-only", pl.NFNode["a"])
	}
	if pl.NFNode["b"] != "native-only" {
		t.Errorf("native-pinned NF on %q, want native-only", pl.NFNode["b"])
	}
}

func TestPlaceCoLocatesWhenPossible(t *testing.T) {
	repo := repository.Default()
	views := []nodeView{
		view("n1", 4000, 1<<30, []string{"nnf:firewall", "nnf:monitor"}, []string{"lan", "wan"}),
		view("n2", 8000, 1<<30, []string{"nnf:firewall", "nnf:monitor"}, []string{"x"}),
	}
	// n2 has more capacity, but the chain fits on the endpoint node: the
	// walk must not hop for nothing.
	pl, err := place(twoNFChain(), repo, policy.BinPack{}, views, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pl.NFNode["a"] != "n1" || pl.NFNode["b"] != "n1" {
		t.Errorf("chain not co-located with its endpoints: %v", pl.NFNode)
	}
}

func TestPlaceErrors(t *testing.T) {
	repo := repository.Default()
	caps := []string{"nnf:firewall", "nnf:monitor"}
	// No node has the endpoint interface.
	views := []nodeView{view("n1", 4000, 1<<30, caps, []string{"other"})}
	if _, err := place(twoNFChain(), repo, policy.BinPack{}, views, nil, nil); err == nil {
		t.Error("placement with unhosted endpoint interface accepted")
	}
	// Capacity exhausted.
	views = []nodeView{view("n1", 10, 1<<30, caps, []string{"lan", "wan"})}
	if _, err := place(twoNFChain(), repo, policy.BinPack{}, views, nil, nil); err == nil {
		t.Error("placement beyond fleet capacity accepted")
	}
	// No nodes at all.
	if _, err := place(twoNFChain(), repo, policy.BinPack{}, nil, nil, nil); err == nil {
		t.Error("placement on empty fleet accepted")
	}
}

func TestPlacePinsInternalGroups(t *testing.T) {
	repo := repository.Default()
	caps := []string{"nnf:firewall", "nnf:monitor"}
	views := func() []nodeView {
		return []nodeView{
			view("n1", 4000, 1<<30, caps, []string{"lan"}),
			view("n2", 4000, 1<<30, caps, []string{"lan"}),
		}
	}
	g := &nffg.Graph{
		ID: "g",
		NFs: []nffg.NF{
			{ID: "a", Name: "monitor", Ports: []nffg.NFPort{{ID: "0"}, {ID: "1"}}},
		},
		Endpoints: []nffg.Endpoint{
			{ID: "in", Type: nffg.EPInterface, Interface: "lan"},
			{ID: "bus", Type: nffg.EPInternal, InternalGroup: "svc-bus"},
		},
		Rules: []nffg.FlowRule{
			{ID: "r1", Priority: 10, Match: nffg.RuleMatch{PortIn: nffg.EndpointRef("in")},
				Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.NFPortRef("a", "0")}}},
			{ID: "r2", Priority: 10, Match: nffg.RuleMatch{PortIn: nffg.NFPortRef("a", "1")},
				Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.EndpointRef("bus")}}},
		},
	}
	// Unanchored: the internal endpoint rides with its NF.
	pl, err := place(g, repo, policy.BinPack{}, views(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pl.EPNode["bus"] != pl.NFNode["a"] {
		t.Errorf("unanchored internal EP on %q, NF on %q", pl.EPNode["bus"], pl.NFNode["a"])
	}
	// Anchored by another graph: the endpoint must follow the anchor so
	// the LSI-0 rendezvous actually forms.
	pl, err = place(g, repo, policy.BinPack{}, views(), nil, map[string]string{"svc-bus": "n2"})
	if err != nil {
		t.Fatal(err)
	}
	if pl.EPNode["bus"] != "n2" {
		t.Errorf("anchored internal EP on %q, want n2", pl.EPNode["bus"])
	}
	// Anchor on a node that is gone: placement must refuse rather than
	// silently strand the rendezvous.
	if _, err := place(g, repo, policy.BinPack{}, views(), nil, map[string]string{"svc-bus": "dead"}); err == nil {
		t.Error("placement with unavailable internal anchor accepted")
	}
}

func TestSplitMultiHopRelay(t *testing.T) {
	repo := repository.Default()
	caps := []string{"nnf:firewall", "nnf:monitor"}
	// Line topology where the endpoints live at the far ends and the only
	// compute sits in the middle: both stitches relay through no transit,
	// but the in->a hand-off spans lan-node -> mid and a->b stays local,
	// while b -> out crosses mid -> wan-node.
	views := []nodeView{
		view("left", 0, 1<<30, nil, []string{"lan", "l"}),
		view("mid", 4000, 1<<30, caps, []string{"l", "r"}),
		view("right", 0, 1<<30, nil, []string{"r", "wan"}),
	}
	links := []Link{
		{A: "left", AIf: "l", B: "mid", BIf: "l"},
		{A: "mid", AIf: "r", B: "right", BIf: "r"},
	}
	g := twoNFChain()
	pl, err := place(g, repo, policy.BinPack{}, views, links, nil)
	if err != nil {
		t.Fatal(err)
	}
	alloc := newVLANAlloc()
	subs, stitches, err := splitGraph(g, pl, links, alloc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 3 {
		t.Fatalf("partition spans %d nodes, want 3: %v", len(subs), sortedKeys(subs))
	}
	if len(stitches) != 2 {
		t.Fatalf("stitch count = %d, want 2", len(stitches))
	}
	// Now strand the NFs two hops from the wan endpoint: left hosts the
	// chain, right owns wan, mid only relays.
	views = []nodeView{
		view("left", 4000, 1<<30, caps, []string{"lan", "l"}),
		view("mid", 0, 1<<30, nil, []string{"l", "r"}),
		view("right", 0, 1<<30, nil, []string{"r", "wan"}),
	}
	pl, err = place(g, repo, policy.BinPack{}, views, links, nil)
	if err != nil {
		t.Fatal(err)
	}
	subs, stitches, err = splitGraph(g, pl, links, newVLANAlloc(), nil)
	if err != nil {
		t.Fatal(err)
	}
	mid, ok := subs["mid"]
	if !ok {
		t.Fatal("transit node got no relay subgraph")
	}
	if len(mid.NFs) != 0 || len(mid.Endpoints) != 2 || len(mid.Rules) != 1 {
		t.Errorf("relay subgraph shape = %dNF/%dEP/%dR, want 0/2/1",
			len(mid.NFs), len(mid.Endpoints), len(mid.Rules))
	}
	for _, st := range stitches {
		if st.Src == "left" && st.Dst == "right" && len(st.Hops) != 2 {
			t.Errorf("left->right stitch has %d hops, want 2", len(st.Hops))
		}
	}
}

// A split given the stitches the graph rides now keeps every one it
// re-creates, VLANs included, and allocates nothing; a stitch whose path moved
// gets fresh VLANs, and a failed split hands back only what it took.
func TestSplitKeepsPriorStitches(t *testing.T) {
	links := []Link{
		{A: "left", AIf: "l", B: "mid", BIf: "l"},
		{A: "mid", AIf: "r", B: "right", BIf: "r"},
	}
	g := twoNFChain()
	pl, err := place(g, repository.Default(), policy.BinPack{}, []nodeView{
		view("left", 0, 1<<30, nil, []string{"lan", "l"}),
		view("mid", 4000, 1<<30, []string{"nnf:firewall", "nnf:monitor"}, []string{"l", "r"}),
		view("right", 0, 1<<30, nil, []string{"r", "wan"}),
	}, links, nil)
	if err != nil {
		t.Fatal(err)
	}
	alloc := newVLANAlloc()
	subs, prior, err := splitGraph(g, pl, links, alloc, nil)
	if err != nil {
		t.Fatal(err)
	}
	inUse := fmt.Sprint(alloc.inUse)
	have := &deployment{Subs: subs, Stitches: prior}
	again, stitches, err := splitGraph(g, pl, links, alloc, have)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stitches, prior) || !reflect.DeepEqual(again, subs) {
		t.Fatalf("re-split moved the stitches: %v -> %v", prior, stitches)
	}
	for node, sub := range subs {
		if again[node] != sub {
			t.Errorf("re-split rebuilt the unchanged piece of %s", node)
		}
	}
	if got := fmt.Sprint(alloc.inUse); got != inUse {
		t.Fatalf("re-split allocated: %s -> %s", inUse, got)
	}
	// Both NFs move to left: the left->mid hand-off is gone and a
	// left->right stitch relays through mid on fresh VLANs.
	moved := Placement{NFNode: map[string]string{}, EPNode: pl.EPNode}
	for nf := range pl.NFNode {
		moved.NFNode[nf] = "left"
	}
	_, stitches, err = splitGraph(g, moved, links, alloc, have)
	if err != nil {
		t.Fatal(err)
	}
	if fresh := hopsNotIn(stitches, prior); len(fresh) == 0 {
		t.Fatalf("moved stitches %v reuse every prior hop", stitches)
	}
	releaseHops(alloc, hopsNotIn(stitches, prior))
	if got := fmt.Sprint(alloc.inUse); got != inUse {
		t.Fatalf("allocator %s after releasing the moved split, want %s", got, inUse)
	}
	// A split that fails after taking VLANs hands back those and only those.
	for nf := range moved.NFNode {
		moved.NFNode[nf] = "right" // in -> a now crosses left -> mid -> right
	}
	moved.EPNode = map[string]string{"in": "left"} // out is not placed
	if _, _, err := splitGraph(g, moved, links, alloc, have); err == nil {
		t.Fatal("split with an unplaced endpoint succeeded")
	}
	if got := fmt.Sprint(alloc.inUse); got != inUse {
		t.Fatalf("allocator %s after a failed split, want %s", got, inUse)
	}
}

func TestVLANAllocReleaseReuse(t *testing.T) {
	a := newVLANAlloc()
	l := Link{A: "x", AIf: "i", B: "y", BIf: "j"}
	v1, err := a.alloc(l)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := a.alloc(l)
	if err != nil {
		t.Fatal(err)
	}
	if v1 == v2 {
		t.Fatalf("duplicate stitch VLAN %d", v1)
	}
	a.release(l, v1)
	v3, err := a.alloc(l)
	if err != nil {
		t.Fatal(err)
	}
	if v3 != v1 {
		t.Errorf("released VLAN not reused: got %d, want %d", v3, v1)
	}
	// A different link has its own space.
	other := Link{A: "x", AIf: "k", B: "z", BIf: "j"}
	vo, err := a.alloc(other)
	if err != nil {
		t.Fatal(err)
	}
	if vo != stitchVLANBase {
		t.Errorf("fresh link allocation = %d, want %d", vo, stitchVLANBase)
	}
}

// mapAdjacencyOrder is adjacencyOrder as it was written over maps of NF and
// endpoint ids: the oracle of the index-slice walk.
func mapAdjacencyOrder(g *nffg.Graph) []nffg.NF {
	adj := make(map[string][]string)
	epAdj := make(map[string][]string)
	addEdge := func(a, b nffg.PortRef) {
		switch {
		case a.IsNF() && b.IsNF() && a.NF != b.NF:
			adj[a.NF] = append(adj[a.NF], b.NF)
			adj[b.NF] = append(adj[b.NF], a.NF)
		case a.IsEndpoint() && b.IsNF():
			epAdj[a.Endpoint] = append(epAdj[a.Endpoint], b.NF)
		case a.IsNF() && b.IsEndpoint():
			epAdj[b.Endpoint] = append(epAdj[b.Endpoint], a.NF)
		}
	}
	for _, r := range g.Rules {
		for _, a := range r.Actions {
			if a.Type == nffg.ActOutput {
				addEdge(r.Match.PortIn, a.Output)
			}
		}
	}
	byID := make(map[string]nffg.NF, len(g.NFs))
	for _, n := range g.NFs {
		byID[n.ID] = n
	}
	var order []nffg.NF
	visited := make(map[string]bool, len(g.NFs))
	var stack []string
	push := func(id string) {
		if !visited[id] {
			visited[id] = true
			stack = append(stack, id)
		}
	}
	for _, ep := range g.Endpoints {
		if nfs := epAdj[ep.ID]; len(nfs) > 0 {
			push(nfs[0])
			break
		}
	}
	for len(order) < len(g.NFs) {
		if len(stack) == 0 {
			for _, n := range g.NFs {
				if !visited[n.ID] {
					push(n.ID)
					break
				}
			}
		}
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, byID[id])
		nbs := adj[id]
		for i := len(nbs) - 1; i >= 0; i-- {
			push(nbs[i])
		}
	}
	return order
}

// The index-slice walk visits NFs in the order the map-based walk did, on
// seeded random graphs: chains wired both ways, fan-outs, self-loops,
// non-output actions and disconnected components.
func TestAdjacencyOrderMatchesMapWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for i := 0; i < 3000; i++ {
		g := &nffg.Graph{ID: "g"}
		nfs, eps := 1+rng.Intn(8), rng.Intn(4)
		for n := 0; n < nfs; n++ {
			g.NFs = append(g.NFs, nffg.NF{ID: fmt.Sprintf("nf%d", n), Name: "monitor"})
		}
		for e := 0; e < eps; e++ {
			g.Endpoints = append(g.Endpoints, nffg.Endpoint{ID: fmt.Sprintf("ep%d", e), Type: nffg.EPInterface, Interface: "lan"})
		}
		port := func() nffg.PortRef {
			if eps > 0 && rng.Intn(3) == 0 {
				return nffg.EndpointRef(fmt.Sprintf("ep%d", rng.Intn(eps)))
			}
			return nffg.NFPortRef(fmt.Sprintf("nf%d", rng.Intn(nfs)), fmt.Sprint(rng.Intn(2)))
		}
		if rng.Intn(2) == 0 { // a chain wired both ways
			for n := 0; n+1 < nfs; n++ {
				a, b := nffg.NFPortRef(fmt.Sprintf("nf%d", n), "1"), nffg.NFPortRef(fmt.Sprintf("nf%d", n+1), "0")
				g.Rules = append(g.Rules,
					nffg.FlowRule{ID: fmt.Sprintf("f%d", n), Match: nffg.RuleMatch{PortIn: a}, Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: b}}},
					nffg.FlowRule{ID: fmt.Sprintf("b%d", n), Match: nffg.RuleMatch{PortIn: b}, Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: a}}})
			}
		}
		for r := rng.Intn(10); r > 0; r-- {
			rule := nffg.FlowRule{ID: fmt.Sprintf("r%d", r), Match: nffg.RuleMatch{PortIn: port()}}
			for a := rng.Intn(3); a >= 0; a-- {
				if rng.Intn(4) == 0 {
					rule.Actions = append(rule.Actions, nffg.RuleAction{Type: nffg.ActPushVLAN, VLANID: 5})
				} else {
					rule.Actions = append(rule.Actions, nffg.RuleAction{Type: nffg.ActOutput, Output: port()})
				}
			}
			g.Rules = append(g.Rules, rule)
		}
		rng.Shuffle(len(g.Rules), func(a, b int) { g.Rules[a], g.Rules[b] = g.Rules[b], g.Rules[a] })
		if got, want := adjacencyOrder(g), mapAdjacencyOrder(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("graph %d: order %v, the map walk's %v\nrules %+v", i, got, want, g.Rules)
		}
	}
}
