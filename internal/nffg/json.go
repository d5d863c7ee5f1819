package nffg

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Wire types mirroring the un-orchestrator's NF-FG JSON schema. The exported
// Graph type is converted to and from these shapes so the Go model can stay
// idiomatic.

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

// MarshalJSON renders the graph in the un-orchestrator schema. Every wire
// slice is sized up front and the actions of all rules share one array; an
// empty section stays nil, so it is omitted (a rule's actions: null).
func (g *Graph) MarshalJSON() ([]byte, error) {
	jg := jsonGraph{ID: g.ID, Name: g.Name}
	jg.VNFs = sized[jsonNF](len(g.NFs))
	for i, nf := range g.NFs {
		jnf := jsonNF{
			ID:           nf.ID,
			Name:         nf.Name,
			Technology:   string(nf.TechnologyPreference),
			Config:       nf.Config,
			Replicas:     nf.Replicas,
			Availability: nf.Availability,
			Redundancy:   string(nf.Redundancy),
			AntiAffinity: nf.AntiAffinity,
		}
		jnf.Ports = sized[jsonNFPort](len(nf.Ports))
		for j, p := range nf.Ports {
			jnf.Ports[j] = jsonNFPort(p)
		}
		jg.VNFs[i] = jnf
	}
	jg.Endpoints = sized[jsonEndpoint](len(g.Endpoints))
	for i, ep := range g.Endpoints {
		jep := jsonEndpoint{ID: ep.ID, Type: string(ep.Type)}
		switch ep.Type {
		case EPInterface:
			jep.Interface = &jsonEPInterface{IfName: ep.Interface}
		case EPVLAN:
			jep.VLAN = &jsonEPVLAN{VLANID: ep.VLANID, IfName: ep.Interface}
		case EPInternal:
			jep.Internal = &jsonEPInternal{Group: ep.InternalGroup}
		}
		jg.Endpoints[i] = jep
	}
	if len(g.Rules) > 0 {
		bs := &jsonBigSwitch{FlowRules: make([]jsonFlowRule, len(g.Rules))}
		n := 0
		for _, r := range g.Rules {
			n += len(r.Actions)
		}
		actions := make([]jsonAction, 0, n)
		for i, r := range g.Rules {
			jr := jsonFlowRule{
				ID:       r.ID,
				Priority: r.Priority,
				Match: jsonMatch{
					PortIn:     r.Match.PortIn.String(),
					VLANID:     r.Match.VLANID,
					Protocol:   r.Match.IPProto,
					SourceIP:   r.Match.IPSrc,
					DestIP:     r.Match.IPDst,
					SourcePort: r.Match.L4Src,
					DestPort:   r.Match.L4Dst,
				},
			}
			if r.Match.EtherType != 0 {
				jr.Match.EtherType = fmt.Sprintf("%#04x", r.Match.EtherType)
			}
			first := len(actions)
			for _, a := range r.Actions {
				var ja jsonAction
				switch a.Type {
				case ActOutput:
					ja.OutputToPort = a.Output.String()
				case ActPushVLAN:
					ja.PushVLAN = a.VLANID
				case ActPopVLAN:
					ja.PopVLAN = true
				case ActSetEthSrc:
					ja.SetEthSrc = a.MAC
				case ActSetEthDst:
					ja.SetEthDst = a.MAC
				default:
					return nil, fmt.Errorf("nffg: unencodable action type %q", a.Type)
				}
				actions = append(actions, ja)
			}
			jr.Actions = appended(actions, first)
			bs.FlowRules[i] = jr
		}
		jg.BigSwitch = bs
	}
	return json.Marshal(jsonRoot{ForwardingGraph: jg})
}

// UnmarshalJSON parses the un-orchestrator schema, strictly: a field the
// schema does not know is an error, not silently dropped, so a misspelled
// "redundency" or an "anti-affinity" fails instead of deploying a graph
// without the protection it asked for. Every entry point (both REST tiers,
// nffgctl, the replicated deployment record) decodes through here. Like
// MarshalJSON it sizes every model slice up front, gives the actions of all
// rules one array, and leaves an empty section nil: nffg.Compute compares
// with reflect.DeepEqual, so a decoded record must equal the graph it
// encodes.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var root jsonRoot
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&root); err != nil {
		return fmt.Errorf("nffg: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("nffg: trailing data after the graph")
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
				return fmt.Errorf("nffg: endpoint %q: missing interface section", jep.ID)
			}
			ep.Interface = jep.Interface.IfName
		case EPVLAN:
			if jep.VLAN == nil {
				return fmt.Errorf("nffg: endpoint %q: missing vlan section", jep.ID)
			}
			ep.Interface = jep.VLAN.IfName
			ep.VLANID = jep.VLAN.VLANID
		case EPInternal:
			if jep.Internal == nil {
				return fmt.Errorf("nffg: endpoint %q: missing internal section", jep.ID)
			}
			ep.InternalGroup = jep.Internal.Group
		default:
			return fmt.Errorf("nffg: endpoint %q: unknown type %q", jep.ID, jep.Type)
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
				return fmt.Errorf("nffg: rule %q: %w", jr.ID, err)
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
				var et uint16
				if _, err := fmt.Sscanf(jr.Match.EtherType, "0x%04x", &et); err != nil {
					return fmt.Errorf("nffg: rule %q: bad ether_type %q", jr.ID, jr.Match.EtherType)
				}
				r.Match.EtherType = et
			}
			first := len(actions)
			for ai, ja := range jr.Actions {
				var a RuleAction
				switch {
				case ja.OutputToPort != "":
					out, err := ParsePortRef(ja.OutputToPort)
					if err != nil {
						return fmt.Errorf("nffg: rule %q action %d: %w", jr.ID, ai, err)
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
					return fmt.Errorf("nffg: rule %q action %d: empty action", jr.ID, ai)
				}
				actions = append(actions, a)
			}
			r.Actions = appended(actions, first)
			g.Rules[i] = r
		}
	}
	return nil
}

// sized returns n zero values, or nil when n is 0: an empty section stays
// nil through the codec.
func sized[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, n)
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
