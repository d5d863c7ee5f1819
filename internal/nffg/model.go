// Package nffg models the Network Functions Forwarding Graph (NF-FG), the
// service description that the local orchestrator receives over its REST
// interface.
//
// A graph names a set of network functions (NFs), a set of endpoints
// (attachment points to the outside world: physical interfaces, VLAN
// sub-interfaces, or inter-graph links) and a list of big-switch flow rules
// steering traffic between them. The schema follows the un-orchestrator's
// JSON format: a top-level "forwarding-graph" object with "VNFs",
// "end-points" and "big-switch"/"flow-rules" sections.
package nffg

import (
	"fmt"
	"maps"
	"slices"
	"strings"
)

// Technology identifies how an NF is materialized on the node.
type Technology string

// Supported execution technologies. TechAny lets the orchestrator's
// scheduler choose.
const (
	TechAny    Technology = ""
	TechVM     Technology = "vm"
	TechDocker Technology = "docker"
	TechDPDK   Technology = "dpdk"
	TechNative Technology = "native"
)

// Valid reports whether t is a known technology.
func (t Technology) Valid() bool {
	switch t {
	case TechAny, TechVM, TechDocker, TechDPDK, TechNative:
		return true
	}
	return false
}

// RedundancyMode selects how an NF survives instance or node failure.
type RedundancyMode string

// Redundancy modes.
const (
	// RedundancyNone relies on restart-in-place repair: state accumulated
	// since the last migration is lost when the instance dies.
	RedundancyNone RedundancyMode = ""
	// RedundancyActiveStandby pre-attaches an idle standby instance whose
	// flow state is kept in sync; failure promotes it via the zero-loss
	// steering swap path.
	RedundancyActiveStandby RedundancyMode = "active-standby"
	// RedundancyActiveActive serves through every replica simultaneously
	// (requires Replicas >= 2); instance failure re-homes the dead
	// replica's buckets onto survivors with their migrated state.
	RedundancyActiveActive RedundancyMode = "active-active"
)

// Valid reports whether m is a known redundancy mode.
func (m RedundancyMode) Valid() bool {
	switch m {
	case RedundancyNone, RedundancyActiveStandby, RedundancyActiveActive:
		return true
	}
	return false
}

// Graph is one Network Functions Forwarding Graph.
//
// A graph an orchestrator holds is a value: frozen, never modified again,
// and shared, not copied, by the global desired state, the intent record and
// the node running it. A change builds a new value sharing what it keeps.
type Graph struct {
	ID        string
	Name      string
	NFs       []NF
	Endpoints []Endpoint
	Rules     []FlowRule

	// frozen marks a value (see Freeze).
	frozen bool
}

// NF is a network function instance requested by a graph.
type NF struct {
	// ID is the NF's identifier, unique within the graph.
	ID string
	// Name is the template name resolved against the VNF repository
	// (e.g. "ipsec", "firewall").
	Name string
	// Ports are the NF's network attachment points.
	Ports []NFPort
	// TechnologyPreference pins the execution technology; empty lets the
	// scheduler decide.
	TechnologyPreference Technology
	// Config carries NF-specific configuration handed to the driver at
	// start time (the paper's "predefined configuration script").
	Config map[string]string
	// Replicas asks the orchestrator to shard this NF across N instances
	// behind consistent-hash flow steering. 0 and 1 both mean a single
	// instance. Replicas beyond 1 require a stateful-scalable NF: per-flow
	// state migrates between instances as the replica set changes.
	Replicas int
	// Availability is the NF's target availability as a fraction in
	// [0, 1), e.g. 0.999. Zero means no explicit target. Targets at or
	// above three nines require a redundancy mode, since restart-in-place
	// repair alone cannot reach them.
	Availability float64
	// Redundancy selects the failure-survival strategy; see
	// RedundancyMode.
	Redundancy RedundancyMode
	// AntiAffinity names a spreading group: the placements of NFs sharing
	// a group (and the standby of an active-standby NF) must land on
	// distinct nodes, so one node failure cannot take out the whole group.
	AntiAffinity string
}

// NFPort is one port of an NF.
type NFPort struct {
	ID   string
	Name string
}

// EndpointType classifies graph attachment points.
type EndpointType string

// Endpoint types.
const (
	// EPInterface attaches the graph to a physical node interface.
	EPInterface EndpointType = "interface"
	// EPVLAN attaches to a VLAN sub-interface of a node interface.
	EPVLAN EndpointType = "vlan"
	// EPInternal stitches this graph to another graph on the same node.
	EPInternal EndpointType = "internal"
)

// Endpoint is one graph attachment point.
type Endpoint struct {
	ID   string
	Type EndpointType
	// Interface is the node interface name (EPInterface, EPVLAN).
	Interface string
	// VLANID qualifies EPVLAN endpoints.
	VLANID uint16
	// InternalGroup names the rendezvous shared by EPInternal endpoints
	// of different graphs.
	InternalGroup string
}

// PortRef points at either an NF port or an endpoint inside a graph.
// The textual form is "vnf:<nf-id>:<port-id>" or "endpoint:<ep-id>".
type PortRef struct {
	NF       string // NF id; empty for endpoint refs
	Port     string // NF port id; empty for endpoint refs
	Endpoint string // endpoint id; empty for NF refs
}

// NFPortRef builds a reference to an NF port.
func NFPortRef(nfID, portID string) PortRef { return PortRef{NF: nfID, Port: portID} }

// EndpointRef builds a reference to a graph endpoint.
func EndpointRef(epID string) PortRef { return PortRef{Endpoint: epID} }

// IsNF reports whether the reference targets an NF port.
func (r PortRef) IsNF() bool { return r.NF != "" }

// IsEndpoint reports whether the reference targets an endpoint.
func (r PortRef) IsEndpoint() bool { return r.Endpoint != "" }

// IsZero reports whether the reference is unset.
func (r PortRef) IsZero() bool { return r == PortRef{} }

// String renders the textual form used in the JSON schema.
func (r PortRef) String() string {
	if r.IsNF() {
		return "vnf:" + r.NF + ":" + r.Port
	}
	if r.IsEndpoint() {
		return "endpoint:" + r.Endpoint
	}
	return ""
}

// ParsePortRef parses the textual form.
func ParsePortRef(s string) (PortRef, error) {
	switch {
	case strings.HasPrefix(s, "vnf:"):
		rest := strings.TrimPrefix(s, "vnf:")
		i := strings.LastIndex(rest, ":")
		if i <= 0 || i == len(rest)-1 {
			return PortRef{}, fmt.Errorf("nffg: bad vnf port reference %q", s)
		}
		return PortRef{NF: rest[:i], Port: rest[i+1:]}, nil
	case strings.HasPrefix(s, "endpoint:"):
		ep := strings.TrimPrefix(s, "endpoint:")
		if ep == "" {
			return PortRef{}, fmt.Errorf("nffg: bad endpoint reference %q", s)
		}
		return PortRef{Endpoint: ep}, nil
	default:
		return PortRef{}, fmt.Errorf("nffg: unrecognized port reference %q", s)
	}
}

// RuleMatch is the traffic selector of one flow rule. Zero-valued fields are
// wildcards; PortIn is mandatory.
type RuleMatch struct {
	PortIn    PortRef
	EtherType uint16
	VLANID    uint16 // 0 = any
	IPProto   uint8
	IPSrc     string // CIDR, e.g. "10.0.0.0/24"
	IPDst     string
	L4Src     uint16
	L4Dst     uint16
}

// RuleActionType enumerates the verbs a flow rule may apply.
type RuleActionType string

// Rule action verbs.
const (
	ActOutput    RuleActionType = "output_to_port"
	ActPushVLAN  RuleActionType = "push_vlan"
	ActPopVLAN   RuleActionType = "pop_vlan"
	ActSetEthSrc RuleActionType = "set_eth_src"
	ActSetEthDst RuleActionType = "set_eth_dst"
)

// RuleAction is one action of a flow rule.
type RuleAction struct {
	Type RuleActionType
	// Output names the destination for ActOutput.
	Output PortRef
	// VLANID parameterizes ActPushVLAN.
	VLANID uint16
	// MAC parameterizes ActSetEthSrc/ActSetEthDst ("aa:bb:cc:dd:ee:ff").
	MAC string
}

// FlowRule is one big-switch steering rule of a graph.
type FlowRule struct {
	ID       string
	Priority int
	Match    RuleMatch
	Actions  []RuleAction
}

// FindNF returns the NF with the given id, or nil.
func (g *Graph) FindNF(id string) *NF {
	for i := range g.NFs {
		if g.NFs[i].ID == id {
			return &g.NFs[i]
		}
	}
	return nil
}

// FindEndpoint returns the endpoint with the given id, or nil.
func (g *Graph) FindEndpoint(id string) *Endpoint {
	for i := range g.Endpoints {
		if g.Endpoints[i].ID == id {
			return &g.Endpoints[i]
		}
	}
	return nil
}

// FindPort returns the port of an NF, or nil.
func (nf *NF) FindPort(id string) *NFPort {
	for i := range nf.Ports {
		if nf.Ports[i].ID == id {
			return &nf.Ports[i]
		}
	}
	return nil
}

// Freeze makes g a value and returns it: nobody modifies g or what it refers
// to any more, so an entry point takes it without a copy.
func (g *Graph) Freeze() *Graph {
	g.frozen = true
	return g
}

// Value returns g when it is frozen and a frozen copy otherwise: the one copy
// of a graph an in-process caller hands to an entry point.
func (g *Graph) Value() *Graph {
	if g.frozen {
		return g
	}
	return g.Clone().Freeze()
}

// WithReplicas returns a frozen graph equal to the value g but for the
// replica count of its NF nfID: only the NF list is new.
func (g *Graph) WithReplicas(nfID string, replicas int) *Graph {
	out := *g
	out.NFs = slices.Clone(g.NFs)
	if n := out.FindNF(nfID); n != nil {
		n.Replicas = replicas
	}
	return out.Freeze()
}

// Clone returns a deep copy of the graph, not frozen: the caller's to modify.
func (g *Graph) Clone() *Graph {
	out := &Graph{ID: g.ID, Name: g.Name, NFs: slices.Clone(g.NFs), Endpoints: slices.Clone(g.Endpoints), Rules: slices.Clone(g.Rules)}
	for i := range out.NFs {
		out.NFs[i].Ports, out.NFs[i].Config = slices.Clone(out.NFs[i].Ports), maps.Clone(out.NFs[i].Config)
	}
	for i := range out.Rules {
		out.Rules[i].Actions = slices.Clone(out.Rules[i].Actions)
	}
	return out
}
