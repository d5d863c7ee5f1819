package nffg

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Wire types mirroring the un-orchestrator's NF-FG JSON schema, the shapes
// encoding/json encoded and decoded the model through before the schema
// tables of json.go. They are the oracle of both directions: oracleJSON and
// oracleDecode below.

type jsonRoot struct {
	ForwardingGraph jsonGraph `json:"forwarding-graph"`
}

type jsonGraph struct {
	ID        string         `json:"id"`
	Name      string         `json:"name,omitempty"`
	VNFs      []jsonNF       `json:"VNFs,omitempty"`
	Endpoints []jsonEndpoint `json:"end-points,omitempty"`
	BigSwitch *jsonBigSwitch `json:"big-switch,omitempty"`
}

type jsonNF struct {
	ID           string            `json:"id"`
	Name         string            `json:"name"`
	Ports        []jsonNFPort      `json:"ports,omitempty"`
	Technology   string            `json:"technology-preference,omitempty"`
	Config       map[string]string `json:"configuration,omitempty"`
	Replicas     int               `json:"replicas,omitempty"`
	Availability float64           `json:"availability,omitempty"`
	Redundancy   string            `json:"redundancy,omitempty"`
	AntiAffinity string            `json:"anti_affinity,omitempty"`
}

type jsonNFPort struct {
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
}

type jsonEndpoint struct {
	ID        string           `json:"id"`
	Type      string           `json:"type"`
	Interface *jsonEPInterface `json:"interface,omitempty"`
	VLAN      *jsonEPVLAN      `json:"vlan,omitempty"`
	Internal  *jsonEPInternal  `json:"internal,omitempty"`
}

type jsonEPInterface struct {
	IfName string `json:"if-name"`
}

type jsonEPVLAN struct {
	VLANID uint16 `json:"vlan-id"`
	IfName string `json:"if-name"`
}

type jsonEPInternal struct {
	Group string `json:"internal-group"`
}

type jsonBigSwitch struct {
	FlowRules []jsonFlowRule `json:"flow-rules"`
}

type jsonFlowRule struct {
	ID       string       `json:"id"`
	Priority int          `json:"priority"`
	Match    jsonMatch    `json:"match"`
	Actions  []jsonAction `json:"actions"`
}

type jsonMatch struct {
	PortIn     string `json:"port_in"`
	EtherType  string `json:"ether_type,omitempty"` // hex "0x0800"
	VLANID     uint16 `json:"vlan_id,omitempty"`
	Protocol   uint8  `json:"protocol,omitempty"`
	SourceIP   string `json:"source_ip,omitempty"`
	DestIP     string `json:"dest_ip,omitempty"`
	SourcePort uint16 `json:"source_port,omitempty"`
	DestPort   uint16 `json:"dest_port,omitempty"`
}

type jsonAction struct {
	OutputToPort string `json:"output_to_port,omitempty"`
	PushVLAN     uint16 `json:"push_vlan,omitempty"`
	PopVLAN      bool   `json:"pop_vlan,omitempty"`
	SetEthSrc    string `json:"set_eth_src,omitempty"`
	SetEthDst    string `json:"set_eth_dst,omitempty"`
}

// oracleDecode is the decoder UnmarshalJSON replaced: encoding/json over the
// wire types, strict about unknown fields and trailing data, then converted
// into the model. What UnmarshalJSON accepts it must accept, to an equal
// graph.
func oracleDecode(data []byte) (*Graph, error) {
	g := new(Graph)
	var root jsonRoot
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&root); err != nil {
		return nil, fmt.Errorf("nffg: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("nffg: trailing data after the graph")
	}
	jg := root.ForwardingGraph
	*g = Graph{ID: jg.ID, Name: jg.Name}
	g.NFs = sized[NF](len(jg.VNFs))
	for i, jnf := range jg.VNFs {
		nf := NF{
			ID:                   jnf.ID,
			Name:                 jnf.Name,
			TechnologyPreference: Technology(jnf.Technology),
			Config:               jnf.Config,
			Replicas:             jnf.Replicas,
			Availability:         jnf.Availability,
			Redundancy:           RedundancyMode(jnf.Redundancy),
			AntiAffinity:         jnf.AntiAffinity,
		}
		nf.Ports = sized[NFPort](len(jnf.Ports))
		for j, p := range jnf.Ports {
			nf.Ports[j] = NFPort(p)
		}
		g.NFs[i] = nf
	}
	g.Endpoints = sized[Endpoint](len(jg.Endpoints))
	for i, jep := range jg.Endpoints {
		ep := Endpoint{ID: jep.ID, Type: EndpointType(jep.Type)}
		switch ep.Type {
		case EPInterface:
			if jep.Interface == nil {
				return nil, fmt.Errorf("nffg: endpoint %q: missing interface section", jep.ID)
			}
			ep.Interface = jep.Interface.IfName
		case EPVLAN:
			if jep.VLAN == nil {
				return nil, fmt.Errorf("nffg: endpoint %q: missing vlan section", jep.ID)
			}
			ep.Interface = jep.VLAN.IfName
			ep.VLANID = jep.VLAN.VLANID
		case EPInternal:
			if jep.Internal == nil {
				return nil, fmt.Errorf("nffg: endpoint %q: missing internal section", jep.ID)
			}
			ep.InternalGroup = jep.Internal.Group
		default:
			return nil, fmt.Errorf("nffg: endpoint %q: unknown type %q", jep.ID, jep.Type)
		}
		g.Endpoints[i] = ep
	}
	if jg.BigSwitch != nil {
		rules := jg.BigSwitch.FlowRules
		g.Rules = sized[FlowRule](len(rules))
		n := 0
		for _, jr := range rules {
			n += len(jr.Actions)
		}
		actions := make([]RuleAction, 0, n)
		for i, jr := range rules {
			r := FlowRule{ID: jr.ID, Priority: jr.Priority}
			portIn, err := ParsePortRef(jr.Match.PortIn)
			if err != nil {
				return nil, fmt.Errorf("nffg: rule %q: %w", jr.ID, err)
			}
			r.Match = RuleMatch{
				PortIn:  portIn,
				VLANID:  jr.Match.VLANID,
				IPProto: jr.Match.Protocol,
				IPSrc:   jr.Match.SourceIP,
				IPDst:   jr.Match.DestIP,
				L4Src:   jr.Match.SourcePort,
				L4Dst:   jr.Match.DestPort,
			}
			if jr.Match.EtherType != "" {
				et, err := parseEtherType(jr.Match.EtherType)
				if err != nil {
					return nil, fmt.Errorf("nffg: rule %q: %w", jr.ID, err)
				}
				r.Match.EtherType = et
			}
			first := len(actions)
			for ai, ja := range jr.Actions {
				if ja.keys() > 1 {
					return nil, fmt.Errorf("nffg: rule %q action %d: sets more than one action", jr.ID, ai)
				}
				var a RuleAction
				switch {
				case ja.OutputToPort != "":
					out, err := ParsePortRef(ja.OutputToPort)
					if err != nil {
						return nil, fmt.Errorf("nffg: rule %q action %d: %w", jr.ID, ai, err)
					}
					a = RuleAction{Type: ActOutput, Output: out}
				case ja.PushVLAN != 0:
					a = RuleAction{Type: ActPushVLAN, VLANID: ja.PushVLAN}
				case ja.PopVLAN:
					a = RuleAction{Type: ActPopVLAN}
				case ja.SetEthSrc != "":
					a = RuleAction{Type: ActSetEthSrc, MAC: ja.SetEthSrc}
				case ja.SetEthDst != "":
					a = RuleAction{Type: ActSetEthDst, MAC: ja.SetEthDst}
				default:
					return nil, fmt.Errorf("nffg: rule %q action %d: empty action", jr.ID, ai)
				}
				actions = append(actions, a)
			}
			r.Actions = appended(actions, first)
			g.Rules[i] = r
		}
	}
	return g, nil
}

// keys counts the action keys ja sets.
func (ja *jsonAction) keys() int {
	n := 0
	for _, set := range [...]bool{ja.OutputToPort != "", ja.PushVLAN != 0, ja.PopVLAN, ja.SetEthSrc != "", ja.SetEthDst != ""} {
		if set {
			n++
		}
	}
	return n
}

// appended returns what was appended to s since its length was from, or
// nil when nothing was. The result is capped, so appending to one rule's
// actions copies them instead of overwriting the next rule's.
func appended[T any](s []T, from int) []T {
	if len(s) == from {
		return nil
	}
	return s[from:len(s):len(s)]
}

// sized returns n zero values, or nil when n is 0: the decoder leaves an
// empty section nil.
func sized[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, n)
}
