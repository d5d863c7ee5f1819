package global

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

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

// peerOf returns the node at the other end of the link from node.
func (l Link) peerOf(node string) (string, bool) {
	switch node {
	case l.A:
		return l.B, true
	case l.B:
		return l.A, true
	}
	return "", false
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

// splitGraph partitions a placed graph, a value, into one subgraph per node.
// Rules whose input and outputs land on the same node are copied verbatim; a
// rule whose output resolves on another node is rewritten to emit into a
// stitch endpoint, and the destination subgraph gains a companion rule
// forwarding stitch ingress to the original destination port. A stitch of
// prior, the graph's current deployment (nil for none), with the same
// endpoint name, ends and path keeps its hops' VLANs; every other hop gets a
// fresh one. A node whose piece comes out as its subgraph in prior keeps
// that very value, and a new piece shares g's NFs, endpoints and rules.
func splitGraph(g *nffg.Graph, pl Placement, links []Link, alloc *vlanAlloc, prior *deployment) (map[string]*nffg.Graph, []stitch, error) {
	pieces := make(map[string]*piece)
	sub := func(node string) *piece {
		s, ok := pieces[node]
		if !ok {
			s = &piece{prev: prior.subOn(node)}
			pieces[node] = s
		}
		return s
	}
	// pathBetween finds the shortest node path from a to b over the
	// declared links (breadth-first), so stitches may relay through
	// transit nodes. from[i] indexes the node seen[i] was reached from.
	pathBetween := func(a, b string) ([]string, bool) {
		var seenBuf [8]string
		var fromBuf [8]int
		seen, from := append(seenBuf[:0], a), append(fromBuf[:0], 0)
		for i := 0; i < len(seen); i++ {
			if seen[i] == b {
				n := 1
				for j := i; j != 0; j = from[j] {
					n++
				}
				path := make([]string, n)
				for j := i; n > 0; j = from[j] {
					n--
					path[n] = seen[j]
				}
				return path, true
			}
			for _, l := range links {
				if next, ok := l.peerOf(seen[i]); ok && !slices.Contains(seen, next) {
					seen, from = append(seen, next), append(from, i)
				}
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
		s.nfs.add(s.prev.NFs, n, nffg.EqualNF)
	}
	for _, ep := range g.Endpoints {
		s := sub(pl.EPNode[ep.ID])
		s.endpoint(ep)
	}

	// Rules: copy local ones, stitch cross-node ones. Stitches are shared
	// by (src node, dst node, destination ref): two rules steering into
	// the same remote port reuse one stitch and one companion rule;
	// keys[i] is the one of stitches[i].
	type stitchKey struct {
		src, dst string
		to       nffg.PortRef
	}
	var stitches []stitch
	var keyBuf [4]stitchKey
	keys := keyBuf[:0]
	fail := func(err error) (map[string]*nffg.Graph, []stitch, error) {
		releaseHops(alloc, hopsNotIn(stitches, prior.stitchSet()))
		return nil, nil, err
	}
	for _, r := range g.Rules {
		srcNode, err := nodeOf(r.Match.PortIn)
		if err != nil {
			return fail(err)
		}
		out := r
		for ai, a := range r.Actions {
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
			key := stitchKey{srcNode, dstNode, a.Output}
			var st *stitch
			if i := slices.Index(keys, key); i >= 0 {
				st = &stitches[i]
			} else {
				path, reachable := pathBetween(srcNode, dstNode)
				if !reachable {
					return fail(fmt.Errorf(
						"global: graph %q rule %q: no inter-node path between %q and %q",
						g.ID, r.ID, srcNode, dstNode))
				}
				st = &stitch{
					EP:   "gx" + strconv.Itoa(len(stitches)) + "-" + g.ID,
					Src:  srcNode,
					Dst:  dstNode,
					Path: path,
				}
				var held *stitch
				for i, p := range prior.stitchSet() {
					if p.EP == st.EP && p.Src == srcNode && p.Dst == dstNode &&
						slices.Equal(p.Path, path) && len(p.Hops)+1 == len(path) {
						held = &prior.Stitches[i]
					}
				}
				for j := 0; j+1 < len(path); j++ {
					link, _ := linkBetween(links, path[j], path[j+1])
					if held != nil && held.Hops[j].Link == link {
						st.Hops = append(st.Hops, held.Hops[j])
						continue
					}
					vlan, err := alloc.alloc(link)
					if err != nil {
						stitches = append(stitches, *st) // release what st holds
						return fail(err)
					}
					st.Hops = append(st.Hops, stitchHop{Link: link, VLAN: vlan})
				}
				keys = append(keys, key)
				stitches = append(stitches, *st)
				// Source side: egress endpoint on the first hop.
				srcIf, _ := st.Hops[0].Link.ifaceOn(srcNode)
				sub(srcNode).endpoint(nffg.Endpoint{
					ID: st.EP, Type: nffg.EPVLAN, Interface: srcIf, VLANID: st.Hops[0].VLAN,
				})
				// Transit nodes relay between consecutive hops with an
				// NF-less subgraph: two VLAN endpoints and one rule.
				for j := 1; j+1 < len(path); j++ {
					node := path[j]
					inIf, _ := st.Hops[j-1].Link.ifaceOn(node)
					outIf, _ := st.Hops[j].Link.ifaceOn(node)
					inEP := st.EP + "-t" + strconv.Itoa(j) + "i"
					outEP := st.EP + "-t" + strconv.Itoa(j) + "o"
					s := sub(node)
					s.endpoint(nffg.Endpoint{ID: inEP, Type: nffg.EPVLAN, Interface: inIf, VLANID: st.Hops[j-1].VLAN})
					s.endpoint(nffg.Endpoint{ID: outEP, Type: nffg.EPVLAN, Interface: outIf, VLANID: st.Hops[j].VLAN})
					s.rule(nffg.FlowRule{
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
				sub(dstNode).endpoint(nffg.Endpoint{
					ID: st.EP, Type: nffg.EPVLAN, Interface: dstIf, VLANID: last.VLAN,
				})
				sub(dstNode).rule(nffg.FlowRule{
					ID:       r.ID + "@" + st.EP,
					Priority: r.Priority,
					Match:    nffg.RuleMatch{PortIn: nffg.EndpointRef(st.EP)},
					Actions:  []nffg.RuleAction{{Type: nffg.ActOutput, Output: a.Output}},
				})
			}
			if &out.Actions[ai] == &r.Actions[ai] { // the first rewrite copies
				out.Actions = slices.Clone(r.Actions)
			}
			out.Actions[ai] = nffg.RuleAction{Type: nffg.ActOutput, Output: nffg.EndpointRef(st.EP)}
		}
		sub(srcNode).rule(out)
	}

	// Drop nodes that ended up with nothing, then sanity-check the new
	// pieces: a kept one was checked when it was built.
	subs := make(map[string]*nffg.Graph, len(pieces))
	for node, p := range pieces {
		switch s := p.graph(g); {
		case s == p.prev:
			subs[node] = s
		case len(s.NFs)+len(s.Endpoints)+len(s.Rules) > 0:
			if err := s.Validate(); err != nil {
				return fail(fmt.Errorf("global: graph %q: subgraph for node %q invalid: %w", g.ID, node, err))
			}
			subs[node] = s
		}
	}
	return subs, stitches, nil
}

// piece builds one node's subgraph against prev, the one the node runs now
// (empty for none): nothing is copied while what is added equals prev's
// element at the same place, and a piece that comes out as prev is prev.
type piece struct {
	prev  *nffg.Graph
	nfs   run[nffg.NF]
	eps   run[nffg.Endpoint]
	rules run[nffg.FlowRule]
}

func (p *piece) endpoint(ep nffg.Endpoint) {
	p.eps.add(p.prev.Endpoints, ep, func(a, b nffg.Endpoint) bool { return a == b })
}

func (p *piece) rule(r nffg.FlowRule) { p.rules.add(p.prev.Rules, r, nffg.EqualRule) }

func (p *piece) graph(g *nffg.Graph) *nffg.Graph {
	if prev := p.prev; prev.ID == g.ID && prev.Name == g.Name &&
		p.nfs.whole(prev.NFs) && p.eps.whole(prev.Endpoints) && p.rules.whole(prev.Rules) {
		return prev
	}
	return (&nffg.Graph{ID: g.ID, Name: g.Name,
		NFs: p.nfs.of(p.prev.NFs), Endpoints: p.eps.of(p.prev.Endpoints), Rules: p.rules.of(p.prev.Rules)}).Freeze()
}

// run is one section of a piece: prev's first n elements while own is nil.
type run[T any] struct {
	own []T
	n   int
}

func (r *run[T]) add(prev []T, x T, eq func(a, b T) bool) {
	switch {
	case r.own != nil:
		r.own = append(r.own, x)
	case r.n < len(prev) && eq(prev[r.n], x):
		r.n++
	default:
		r.own = append(prev[:r.n:r.n], x) // the first difference copies what came before
	}
}

func (r *run[T]) whole(prev []T) bool { return r.own == nil && r.n == len(prev) }

func (r *run[T]) of(prev []T) []T {
	if r.own != nil || r.n == 0 {
		return r.own
	}
	return prev[:r.n:r.n]
}

// subOn returns the subgraph d runs on node, an empty one for none.
func (d *deployment) subOn(node string) *nffg.Graph {
	if d != nil && d.Subs[node] != nil {
		return d.Subs[node]
	}
	return &noSub
}

var noSub nffg.Graph

// hopsNotIn returns the hops of a's stitches, compared by link and VLAN, that
// no stitch of b rides: what a move from a to b frees.
func hopsNotIn(a, b []stitch) []stitchHop {
	var out []stitchHop
	for _, st := range a {
	hops:
		for _, h := range st.Hops {
			for _, other := range b {
				if slices.Contains(other.Hops, h) {
					continue hops
				}
			}
			out = append(out, h)
		}
	}
	return out
}

// releaseHops returns the hops' VLANs to the allocator.
func releaseHops(alloc *vlanAlloc, hops []stitchHop) {
	for _, h := range hops {
		alloc.release(h.Link, h.VLAN)
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

// nodeList renders m's sorted keys as fmt prints a []string: "[a b]".
func nodeList[V any](m map[string]V) string { return "[" + strings.Join(sortedKeys(m), " ") + "]" }
