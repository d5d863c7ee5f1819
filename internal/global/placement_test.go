package global

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/nffg"
	"repro/internal/policy"
	"repro/internal/repository"
)

func view(name string, cpu int, ram uint64, caps, ifaces []string) *nodeView {
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
	if d.cpuMillis != 500 || len(d.anyOfCaps) != 1 || d.anyOfCaps[0] != "docker" {
		t.Errorf("docker demand = %dm %v, want 500m [docker]", d.cpuMillis, d.anyOfCaps)
	}
	// TechAny: cheapest flavor (native 250m), any flavor capability.
	d, err = estimateDemand(repo, nffg.NF{ID: "x", Name: "ipsec"})
	if err != nil {
		t.Fatal(err)
	}
	if d.cpuMillis != 250 || len(d.anyOfCaps) != 3 {
		t.Errorf("any demand = %dm %v, want 250m and 3 candidate caps", d.cpuMillis, d.anyOfCaps)
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
	views := []*nodeView{
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
	views := []*nodeView{
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
	views := []*nodeView{view("n1", 4000, 1<<30, caps, []string{"other"})}
	if _, err := place(twoNFChain(), repo, policy.BinPack{}, views, nil, nil); err == nil {
		t.Error("placement with unhosted endpoint interface accepted")
	}
	// Capacity exhausted.
	views = []*nodeView{view("n1", 10, 1<<30, caps, []string{"lan", "wan"})}
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
	views := func() []*nodeView {
		return []*nodeView{
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
	views := []*nodeView{
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
	views = []*nodeView{
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
	pl, err := place(g, repository.Default(), policy.BinPack{}, []*nodeView{
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
	again, stitches, err := splitGraph(g, pl, links, alloc, prior)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stitches, prior) || !reflect.DeepEqual(again, subs) {
		t.Fatalf("re-split moved the stitches: %v -> %v", prior, stitches)
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
	_, stitches, err = splitGraph(g, moved, links, alloc, prior)
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
	if _, _, err := splitGraph(g, moved, links, alloc, prior); err == nil {
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
