package global

import (
	"fmt"
	"sort"

	"repro/internal/nffg"
)

// Link is one inter-node connection: interface AIf on node A is wired to
// interface BIf on node B (in process via Patch, or a GRE/VXLAN tunnel in a
// real deployment). Cross-node stitches ride these links as VLAN-tagged
// sub-interfaces.
type Link struct {
	A   string `json:"a-node"`
	AIf string `json:"a-if"`
	B   string `json:"b-node"`
	BIf string `json:"b-if"`
}

// key is the canonical identity of the link, direction-independent.
func (l Link) key() string {
	if l.A > l.B || (l.A == l.B && l.AIf > l.BIf) {
		return l.B + "/" + l.BIf + "|" + l.A + "/" + l.AIf
	}
	return l.A + "/" + l.AIf + "|" + l.B + "/" + l.BIf
}

// ifaceOn returns the link's interface on the given node.
func (l Link) ifaceOn(node string) (string, bool) {
	switch node {
	case l.A:
		return l.AIf, true
	case l.B:
		return l.BIf, true
	}
	return "", false
}

// stitchVLANBase is the first VLAN id used for inter-node stitches, leaving
// the low range to user-facing VLAN endpoints.
const stitchVLANBase = 3000

// vlanAlloc hands out stitch VLAN ids per link. Not safe for concurrent use;
// the global orchestrator serializes access under its lock.
type vlanAlloc struct {
	inUse map[string]map[uint16]bool // link key -> vlan set
}

func newVLANAlloc() *vlanAlloc {
	return &vlanAlloc{inUse: make(map[string]map[uint16]bool)}
}

// reserve marks a specific VLAN in use on a link.
func (a *vlanAlloc) reserve(l Link, vlan uint16) {
	k := l.key()
	set := a.inUse[k]
	if set == nil {
		set = make(map[uint16]bool)
		a.inUse[k] = set
	}
	set[vlan] = true
}

func (a *vlanAlloc) alloc(l Link) (uint16, error) {
	k := l.key()
	set := a.inUse[k]
	if set == nil {
		set = make(map[uint16]bool)
		a.inUse[k] = set
	}
	for v := uint16(stitchVLANBase); v <= 4094; v++ {
		if !set[v] {
			set[v] = true
			return v, nil
		}
	}
	return 0, fmt.Errorf("global: link %s: stitch VLAN space exhausted", k)
}

func (a *vlanAlloc) release(l Link, vlan uint16) {
	if set := a.inUse[l.key()]; set != nil {
		delete(set, vlan)
	}
}

// stitchHop is one link crossing of a stitch, with its allocated VLAN.
type stitchHop struct {
	Link Link   `json:"link"`
	VLAN uint16 `json:"vlan"`
}

// stitch is one cross-node traffic hand-off: frames leaving srcNode for
// dstNode cross one or more links VLAN-tagged, relayed through transit
// nodes, and enter the destination subgraph through an endpoint named after
// the stitch. Stitches are replicated as part of their deployment's intent
// record, so a promoted leader restores the allocated VLANs exactly.
type stitch struct {
	EP  string `json:"ep"`
	Src string `json:"src"`
	Dst string `json:"dst"`
	// Path is the node sequence from Src to Dst; Hops[i] carries traffic
	// between Path[i] and Path[i+1].
	Path []string    `json:"path,omitempty"`
	Hops []stitchHop `json:"hops,omitempty"`
}

// splitGraph partitions a placed graph into one subgraph per node. Rules
// whose input and outputs land on the same node are copied verbatim; a rule
// whose output resolves on another node is rewritten to emit into a stitch
// endpoint, and the destination subgraph gains a companion rule forwarding
// stitch ingress to the original destination port.
func splitGraph(g *nffg.Graph, pl Placement, links []Link, alloc *vlanAlloc) (map[string]*nffg.Graph, []stitch, error) {
	subs := make(map[string]*nffg.Graph)
	sub := func(node string) *nffg.Graph {
		s, ok := subs[node]
		if !ok {
			s = &nffg.Graph{ID: g.ID, Name: g.Name}
			subs[node] = s
		}
		return s
	}
	linkBetween := func(a, b string) (Link, bool) {
		for _, l := range links {
			if (l.A == a && l.B == b) || (l.A == b && l.B == a) {
				return l, true
			}
		}
		return Link{}, false
	}
	// pathBetween finds the shortest node path from a to b over the
	// declared links (breadth-first), so stitches may relay through
	// transit nodes.
	pathBetween := func(a, b string) ([]string, bool) {
		if a == b {
			return []string{a}, true
		}
		prev := map[string]string{a: a}
		queue := []string{a}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, l := range links {
				var next string
				switch cur {
				case l.A:
					next = l.B
				case l.B:
					next = l.A
				default:
					continue
				}
				if _, seen := prev[next]; seen {
					continue
				}
				prev[next] = cur
				if next == b {
					var path []string
					for n := b; n != a; n = prev[n] {
						path = append(path, n)
					}
					path = append(path, a)
					for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
						path[i], path[j] = path[j], path[i]
					}
					return path, true
				}
				queue = append(queue, next)
			}
		}
		return nil, false
	}
	nodeOf := func(ref nffg.PortRef) (string, error) {
		switch {
		case ref.IsNF():
			n, ok := pl.NFNode[ref.NF]
			if !ok {
				return "", fmt.Errorf("global: graph %q: NF %q not placed", g.ID, ref.NF)
			}
			return n, nil
		case ref.IsEndpoint():
			n, ok := pl.EPNode[ref.Endpoint]
			if !ok {
				return "", fmt.Errorf("global: graph %q: endpoint %q not placed", g.ID, ref.Endpoint)
			}
			return n, nil
		}
		return "", fmt.Errorf("global: graph %q: empty port reference", g.ID)
	}

	// NFs and user endpoints go to their assigned nodes.
	for _, n := range g.NFs {
		s := sub(pl.NFNode[n.ID])
		s.NFs = append(s.NFs, n)
	}
	for _, ep := range g.Endpoints {
		s := sub(pl.EPNode[ep.ID])
		s.Endpoints = append(s.Endpoints, ep)
	}

	// Rules: copy local ones, stitch cross-node ones. Stitches are shared
	// by (src node, dst node, destination ref): two rules steering into
	// the same remote port reuse one stitch and one companion rule.
	var stitches []stitch
	stitchFor := make(map[string]*stitch)
	fail := func(err error) (map[string]*nffg.Graph, []stitch, error) {
		releaseStitchVLANs(alloc, stitches)
		return nil, nil, err
	}
	for _, r := range g.Rules {
		srcNode, err := nodeOf(r.Match.PortIn)
		if err != nil {
			return fail(err)
		}
		out := r
		out.Actions = append([]nffg.RuleAction(nil), r.Actions...)
		for ai, a := range out.Actions {
			if a.Type != nffg.ActOutput {
				continue
			}
			dstNode, err := nodeOf(a.Output)
			if err != nil {
				return fail(err)
			}
			if dstNode == srcNode {
				continue
			}
			key := srcNode + "|" + dstNode + "|" + a.Output.String()
			st, ok := stitchFor[key]
			if !ok {
				path, reachable := pathBetween(srcNode, dstNode)
				if !reachable {
					return fail(fmt.Errorf(
						"global: graph %q rule %q: no inter-node path between %q and %q",
						g.ID, r.ID, srcNode, dstNode))
				}
				st = &stitch{
					EP:   fmt.Sprintf("gx%d-%s", len(stitches), g.ID),
					Src:  srcNode,
					Dst:  dstNode,
					Path: path,
				}
				for j := 0; j+1 < len(path); j++ {
					link, _ := linkBetween(path[j], path[j+1])
					vlan, err := alloc.alloc(link)
					if err != nil {
						stitches = append(stitches, *st) // release what st holds
						return fail(err)
					}
					st.Hops = append(st.Hops, stitchHop{Link: link, VLAN: vlan})
				}
				stitchFor[key] = st
				stitches = append(stitches, *st)
				// Source side: egress endpoint on the first hop.
				srcIf, _ := st.Hops[0].Link.ifaceOn(srcNode)
				sub(srcNode).Endpoints = append(sub(srcNode).Endpoints, nffg.Endpoint{
					ID: st.EP, Type: nffg.EPVLAN, Interface: srcIf, VLANID: st.Hops[0].VLAN,
				})
				// Transit nodes relay between consecutive hops with an
				// NF-less subgraph: two VLAN endpoints and one rule.
				for j := 1; j+1 < len(path); j++ {
					node := path[j]
					inIf, _ := st.Hops[j-1].Link.ifaceOn(node)
					outIf, _ := st.Hops[j].Link.ifaceOn(node)
					inEP := fmt.Sprintf("%s-t%di", st.EP, j)
					outEP := fmt.Sprintf("%s-t%do", st.EP, j)
					s := sub(node)
					s.Endpoints = append(s.Endpoints,
						nffg.Endpoint{ID: inEP, Type: nffg.EPVLAN, Interface: inIf, VLANID: st.Hops[j-1].VLAN},
						nffg.Endpoint{ID: outEP, Type: nffg.EPVLAN, Interface: outIf, VLANID: st.Hops[j].VLAN},
					)
					s.Rules = append(s.Rules, nffg.FlowRule{
						ID:       r.ID + "@" + inEP,
						Priority: r.Priority,
						Match:    nffg.RuleMatch{PortIn: nffg.EndpointRef(inEP)},
						Actions:  []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.EndpointRef(outEP)}},
					})
				}
				// Destination side: ingress endpoint on the last hop,
				// plus the companion rule to the original port.
				last := st.Hops[len(st.Hops)-1]
				dstIf, _ := last.Link.ifaceOn(dstNode)
				sub(dstNode).Endpoints = append(sub(dstNode).Endpoints, nffg.Endpoint{
					ID: st.EP, Type: nffg.EPVLAN, Interface: dstIf, VLANID: last.VLAN,
				})
				sub(dstNode).Rules = append(sub(dstNode).Rules, nffg.FlowRule{
					ID:       r.ID + "@" + st.EP,
					Priority: r.Priority,
					Match:    nffg.RuleMatch{PortIn: nffg.EndpointRef(st.EP)},
					Actions:  []nffg.RuleAction{{Type: nffg.ActOutput, Output: a.Output}},
				})
			}
			out.Actions[ai] = nffg.RuleAction{Type: nffg.ActOutput, Output: nffg.EndpointRef(st.EP)}
		}
		s := sub(srcNode)
		s.Rules = append(s.Rules, out)
	}

	// Drop nodes that ended up with nothing, then sanity-check the rest.
	for node, s := range subs {
		if len(s.NFs) == 0 && len(s.Endpoints) == 0 && len(s.Rules) == 0 {
			delete(subs, node)
			continue
		}
		if err := s.Validate(); err != nil {
			return fail(fmt.Errorf("global: graph %q: subgraph for node %q invalid: %w", g.ID, node, err))
		}
	}
	return subs, stitches, nil
}

// releaseStitchVLANs returns every hop VLAN of the stitches to the
// allocator.
func releaseStitchVLANs(alloc *vlanAlloc, stitches []stitch) {
	for _, st := range stitches {
		for _, h := range st.Hops {
			alloc.release(h.Link, h.VLAN)
		}
	}
}

// reserveStitchVLANs marks every hop VLAN of the stitches in use — the
// promotion replay restoring the allocations a previous leader recorded, so
// later deploys cannot collide with a live stitch.
func reserveStitchVLANs(alloc *vlanAlloc, stitches []stitch) {
	for _, st := range stitches {
		for _, h := range st.Hops {
			alloc.reserve(h.Link, h.VLAN)
		}
	}
}

// sortedKeys returns a map's keys in sorted order: every walk over nodes or
// graphs that issues RPCs, proposes ops or prints goes through it, so runs
// are repeatable.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
