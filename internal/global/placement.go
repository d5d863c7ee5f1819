package global

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/execenv"
	"repro/internal/nffg"
	"repro/internal/policy"
	"repro/internal/repository"
)

// Placement is the global scheduler's decision for one graph: which node
// hosts each NF and each endpoint.
type Placement struct {
	// NFNode maps NF id -> node name.
	NFNode map[string]string
	// EPNode maps endpoint id -> node name.
	EPNode map[string]string
}

// nodeView is the scheduler's working copy of one node's free capacity. caps
// and ifaces are the status's own slices, read and never written.
type nodeView struct {
	name         string
	freeCPU      int
	freeRAM      uint64
	ratePPS      float64
	caps, ifaces []string
}

func newNodeView(st Status) nodeView {
	return nodeView{
		name:    st.Name,
		freeCPU: st.FreeCPUMillis,
		freeRAM: st.FreeRAMBytes,
		ratePPS: st.RatePPS,
		caps:    st.Capabilities,
		ifaces:  st.Interfaces,
	}
}

// nfDemand is the scheduler's resource estimate for one NF: the ledger
// charge of the cheapest flavor the NF may run as, plus the flavors whose
// capability a hosting node must offer one of.
type nfDemand struct {
	cpuMillis int
	ram       uint64
	// costNs is the modeled per-packet cost of the flavor the charge was
	// derived from, feeding the M/M/1 saturation demotion.
	costNs float64
	// tpl and tech name the flavors: every flavor of tpl, or only the
	// pinned tech.
	tpl  *repository.Template
	tech nffg.Technology
}

// estimateDemand resolves an NF against the repository and derives its
// bin-packing demand. A pinned technology narrows both the charge and the
// capability requirement to that flavor; TechAny takes the cheapest flavor's
// CPU (the local scheduler prefers native, the cheapest, when available),
// the first technology by name among equally cheap ones.
func estimateDemand(repo *repository.Repository, n nffg.NF) (nfDemand, error) {
	tpl, ok := repo.Lookup(n.Name)
	if !ok {
		return nfDemand{}, fmt.Errorf("global: NF %q: template %q not in repository", n.ID, n.Name)
	}
	if _, ok := tpl.Flavors[n.TechnologyPreference]; !ok && n.TechnologyPreference != nffg.TechAny {
		return nfDemand{}, fmt.Errorf("global: NF %q: template %q has no %q flavor",
			n.ID, n.Name, n.TechnologyPreference)
	}
	// A scaled-out NF runs `replicas` instances on its node, so the whole
	// replica set's demand must fit there.
	reps := max(n.Replicas, 1)
	d := nfDemand{ram: tpl.WorkloadRAM * uint64(reps), tpl: tpl, tech: n.TechnologyPreference}
	charged := nffg.Technology("")
	for tech, fl := range tpl.Flavors {
		if !d.offers(tech) {
			continue
		}
		if cpu := fl.CPUMillis * reps; charged == "" || cpu < d.cpuMillis || cpu == d.cpuMillis && tech < charged {
			charged, d.cpuMillis = tech, cpu
		}
	}
	d.costNs = float64(execenv.Default().PacketCost(policy.FlavorOf(charged), policy.RefFrameBytes, 0))
	return d, nil
}

// offers reports whether the NF may run as tech.
func (d nfDemand) offers(tech nffg.Technology) bool {
	return d.tech == nffg.TechAny || tech == d.tech
}

// caps lists the capabilities a host must offer one of, sorted.
func (d nfDemand) caps() []string {
	var out []string
	for tech, fl := range d.tpl.Flavors {
		if d.offers(tech) {
			out = append(out, string(fl.Capability))
		}
	}
	slices.Sort(out)
	return out
}

// canHost reports whether the node view has the capability and capacity for
// the demand.
func (v *nodeView) canHost(d nfDemand) bool {
	if v.freeCPU < d.cpuMillis || v.freeRAM < d.ram {
		return false
	}
	for tech, fl := range d.tpl.Flavors {
		if d.offers(tech) && slices.Contains(v.caps, string(fl.Capability)) {
			return true
		}
	}
	return false
}

func (v *nodeView) charge(d nfDemand) {
	v.freeCPU -= d.cpuMillis
	v.freeRAM -= d.ram
}

// linkBetween returns a declared link joining nodes a and b.
func linkBetween(links []Link, a, b string) (Link, bool) {
	for _, l := range links {
		if (l.A == a && l.B == b) || (l.A == b && l.B == a) {
			return l, true
		}
	}
	return Link{}, false
}

// adjacencyOrder returns the graph's NFs in chain-walk order: a depth-first
// traversal of the rule adjacency starting from the NF wired to the first
// wired endpoint, so that consecutive NFs in the returned slice tend to be
// chain neighbors and the greedy packer keeps them co-located. It works on NF
// indices: edges holds every NF-to-NF output of the rules in rule order.
func adjacencyOrder(g *nffg.Graph) []nffg.NF {
	index := func(id string) int {
		return slices.IndexFunc(g.NFs, func(n nffg.NF) bool { return n.ID == id })
	}
	edges := make([][2]int, 0, len(g.Rules))
	for _, r := range g.Rules {
		for _, a := range r.Actions {
			if in, out := r.Match.PortIn, a.Output; a.Type == nffg.ActOutput && in.IsNF() && out.IsNF() && in.NF != out.NF {
				edges = append(edges, [2]int{index(in.NF), index(out.NF)})
			}
		}
	}
	order := make([]nffg.NF, 0, len(g.NFs))
	visited := make([]bool, len(g.NFs))
	stack := make([]int, 0, len(g.NFs))
	push := func(i int) {
		if !visited[i] {
			visited[i] = true
			stack = append(stack, i)
		}
	}
	// Seed the walk from the first endpoint wired to an NF: the traversal
	// then follows the chain from where traffic enters the graph, instead
	// of interleaving both ends.
seed:
	for _, ep := range g.Endpoints {
		for _, r := range g.Rules {
			for _, a := range r.Actions {
				in, out := r.Match.PortIn, a.Output
				switch {
				case a.Type != nffg.ActOutput:
				case in.IsEndpoint() && in.Endpoint == ep.ID && out.IsNF():
					push(index(out.NF))
					break seed
				case out.IsEndpoint() && out.Endpoint == ep.ID && in.IsNF():
					push(index(in.NF))
					break seed
				}
			}
		}
	}
	for len(order) < len(g.NFs) {
		if len(stack) == 0 {
			// Disconnected component: seed from the first unvisited NF.
			push(slices.Index(visited, false))
		}
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, g.NFs[i])
		// Push neighbors in reverse so the first-listed neighbor is
		// visited next.
		for e := len(edges) - 1; e >= 0; e-- {
			switch i {
			case edges[e][0]:
				push(edges[e][1])
			case edges[e][1]:
				push(edges[e][0])
			}
		}
	}
	return order
}

// place partitions a graph across the fleet: endpoints pin to the node
// owning their interface, then NFs are packed along a greedy chain walk.
// Per NF, every node with the capability and capacity becomes a placement
// candidate — flagged with whether it co-locates with the chain's current
// position and whether a direct link reaches it — and the configured
// placement policy ranks them: the same policy engine that ranks execution
// flavors inside the local orchestrator's scheduler.
//
// internalPins maps internal-group names to the node already anchoring the
// group (from other deployed graphs): the EPInternal rendezvous only forms
// on one node's LSI-0, so both members must land together.
func place(g *nffg.Graph, repo *repository.Repository, pol policy.PlacementPolicy, views []nodeView, links []Link, internalPins map[string]string) (Placement, error) {
	if len(views) == 0 {
		return Placement{}, fmt.Errorf("global: no nodes available")
	}
	slices.SortFunc(views, func(a, b nodeView) int { return strings.Compare(a.name, b.name) })
	byName := func(name string) int { return slices.IndexFunc(views, func(v nodeView) bool { return v.name == name }) }
	pl := Placement{NFNode: make(map[string]string, len(g.NFs)), EPNode: make(map[string]string, len(g.Endpoints))}

	// 1. Pin interface endpoints to the node owning the interface.
	for _, ep := range g.Endpoints {
		if ep.Type != nffg.EPInterface && ep.Type != nffg.EPVLAN {
			continue
		}
		i := slices.IndexFunc(views, func(v nodeView) bool { return slices.Contains(v.ifaces, ep.Interface) })
		if i < 0 {
			return Placement{}, fmt.Errorf("global: graph %q: endpoint %q: no node has interface %q",
				g.ID, ep.ID, ep.Interface)
		}
		pl.EPNode[ep.ID] = views[i].name
	}

	// 2. Pack NFs along the chain. The walk starts on the node of the
	// first pinned endpoint so the head of the chain lands next to its
	// ingress.
	cur := ""
	for _, ep := range g.Endpoints {
		if n, ok := pl.EPNode[ep.ID]; ok {
			cur = n
			break
		}
	}
	cands := make([]policy.Candidate, 0, len(views))
	for _, n := range adjacencyOrder(g) {
		d, err := estimateDemand(repo, n)
		if err != nil {
			return Placement{}, err
		}
		// Every node that can host the demand is a candidate; the policy
		// ranks them (co-located beats linked beats relayed — the stitcher
		// can relay through transit nodes — and capacity or cost decides
		// among peers; the name-sorted view order breaks ties). Nodes
		// already hosting an anti-affinity sibling are excluded outright,
		// and hosts with a near-saturated datapath (per the M/M/1
		// predictor) are demoted by the policy's Saturated rank.
		cands = cands[:0]
		excluded := 0
		for i := range views {
			v := &views[i]
			if !v.canHost(d) {
				continue
			}
			if n.AntiAffinity != "" && slices.ContainsFunc(g.NFs, func(m nffg.NF) bool {
				return m.AntiAffinity == n.AntiAffinity && pl.NFNode[m.ID] == v.name
			}) {
				excluded++
				continue
			}
			_, linked := linkBetween(links, cur, v.name)
			cands = append(cands, policy.Candidate{
				Node:          v.name,
				Tech:          n.TechnologyPreference,
				CPUMillis:     d.cpuMillis,
				RAMBytes:      d.ram,
				CostNs:        d.costNs,
				FreeCPUMillis: v.freeCPU,
				FreeRAMBytes:  v.freeRAM,
				Colocated:     v.name == cur,
				Linked:        cur == "" || v.name == cur || linked,
				HostRatePPS:   v.ratePPS,
			})
		}
		if len(cands) == 0 {
			if excluded > 0 {
				return Placement{}, fmt.Errorf(
					"global: graph %q: no node can host NF %q: anti-affinity group %q already occupies every feasible node",
					g.ID, n.ID, n.AntiAffinity)
			}
			return Placement{}, fmt.Errorf(
				"global: graph %q: no node can host NF %q (want %dm CPU, %d B RAM, caps %v)",
				g.ID, n.ID, d.cpuMillis, d.ram, d.caps())
		}
		chosen := pol.Rank(policy.Request{GraphID: g.ID, NFID: n.ID}, cands)[0].Node
		views[byName(chosen)].charge(d)
		pl.NFNode[n.ID] = chosen
		cur = chosen
	}

	// 3. Internal endpoints ride with the NF they are wired to — unless
	// their rendezvous group is already anchored by another graph, which
	// pins them to that node (stitches carry the traffic there if the
	// wired NF lives elsewhere).
	for _, ep := range g.Endpoints {
		if ep.Type != nffg.EPInternal {
			continue
		}
		if pinned, anchored := internalPins[ep.InternalGroup]; anchored {
			if byName(pinned) < 0 {
				return Placement{}, fmt.Errorf(
					"global: graph %q: endpoint %q: internal group %q is anchored on unavailable node %q",
					g.ID, ep.ID, ep.InternalGroup, pinned)
			}
			pl.EPNode[ep.ID] = pinned
			continue
		}
		node := views[0].name
		for _, r := range g.Rules {
			if r.Match.PortIn.IsEndpoint() && r.Match.PortIn.Endpoint == ep.ID {
				for _, a := range r.Actions {
					if a.Type == nffg.ActOutput && a.Output.IsNF() {
						node = pl.NFNode[a.Output.NF]
					}
				}
			}
			for _, a := range r.Actions {
				if a.Type == nffg.ActOutput && a.Output.IsEndpoint() && a.Output.Endpoint == ep.ID &&
					r.Match.PortIn.IsNF() {
					node = pl.NFNode[r.Match.PortIn.NF]
				}
			}
		}
		pl.EPNode[ep.ID] = node
	}
	return pl, nil
}
