package nffg

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

	"repro/internal/jsonw"
)

// Wire types mirroring the un-orchestrator's NF-FG JSON schema. They serve
// decoding only: UnmarshalJSON converts from these shapes so the Go model can
// stay idiomatic, and WriteJSON encodes the model directly, in one pass and
// without reflection. The encoded bytes must stay identical to what
// encoding/json writes over these types (field order, omitempty, sorted
// configuration keys, escaping): the global tier's replicated deployment
// record embeds them, replicas on either side of an upgrade replay each
// other's log, and equal graphs must be equal bytes on every replica.
// FuzzGraphJSON holds the encoder to that oracle.

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

// MarshalJSON renders the graph in the un-orchestrator schema into a buffer
// of exactly its length: WriteJSON runs once to measure and once to write.
func (g *Graph) MarshalJSON() ([]byte, error) {
	m := jsonw.Measuring()
	g.WriteJSON(&m)
	if err := m.Err(); err != nil {
		return nil, err
	}
	return g.AppendJSON(make([]byte, 0, m.Len()))
}

// AppendJSON appends the graph's JSON to b. On error it returns b as it was.
func (g *Graph) AppendJSON(b []byte) ([]byte, error) {
	w := jsonw.Appending(b)
	g.WriteJSON(&w)
	if err := w.Err(); err != nil {
		return b, err
	}
	return w.Bytes(), nil
}

// WriteJSON writes the graph to w in one pass, field by field in the wire
// types' order and with their omitempty rules; an encoder embedding a graph
// (the global tier's deployment record) sizes and writes it through here.
// An action type the schema has no key for fails w.
func (g *Graph) WriteJSON(w *jsonw.Writer) {
	w.Raw(`{"forwarding-graph":{"id":`)
	w.String(g.ID)
	if g.Name != "" {
		w.Raw(`,"name":`)
		w.String(g.Name)
	}
	if len(g.NFs) > 0 {
		w.Raw(`,"VNFs":[`)
		for i := range g.NFs {
			if i > 0 {
				w.Byte(',')
			}
			writeNF(w, &g.NFs[i])
		}
		w.Byte(']')
	}
	if len(g.Endpoints) > 0 {
		w.Raw(`,"end-points":[`)
		for i := range g.Endpoints {
			if i > 0 {
				w.Byte(',')
			}
			writeEndpoint(w, &g.Endpoints[i])
		}
		w.Byte(']')
	}
	if len(g.Rules) > 0 {
		w.Raw(`,"big-switch":{"flow-rules":[`)
		for i := range g.Rules {
			if i > 0 {
				w.Byte(',')
			}
			writeRule(w, &g.Rules[i])
		}
		w.Raw(`]}`)
	}
	w.Raw(`}}`)
}

func writeNF(w *jsonw.Writer, nf *NF) {
	w.Raw(`{"id":`)
	w.String(nf.ID)
	w.Raw(`,"name":`)
	w.String(nf.Name)
	if len(nf.Ports) > 0 {
		w.Raw(`,"ports":[`)
		for i, p := range nf.Ports {
			if i > 0 {
				w.Byte(',')
			}
			w.Raw(`{"id":`)
			w.String(p.ID)
			if p.Name != "" {
				w.Raw(`,"name":`)
				w.String(p.Name)
			}
			w.Byte('}')
		}
		w.Byte(']')
	}
	if nf.TechnologyPreference != "" {
		w.Raw(`,"technology-preference":`)
		w.String(string(nf.TechnologyPreference))
	}
	if len(nf.Config) > 0 {
		w.Raw(`,"configuration":`)
		w.StringMap(nf.Config)
	}
	if nf.Replicas != 0 {
		w.Raw(`,"replicas":`)
		w.Int(int64(nf.Replicas))
	}
	if nf.Availability != 0 {
		w.Raw(`,"availability":`)
		w.Float(nf.Availability)
	}
	if nf.Redundancy != "" {
		w.Raw(`,"redundancy":`)
		w.String(string(nf.Redundancy))
	}
	if nf.AntiAffinity != "" {
		w.Raw(`,"anti_affinity":`)
		w.String(nf.AntiAffinity)
	}
	w.Byte('}')
}

func writeEndpoint(w *jsonw.Writer, ep *Endpoint) {
	w.Raw(`{"id":`)
	w.String(ep.ID)
	w.Raw(`,"type":`)
	w.String(string(ep.Type))
	switch ep.Type {
	case EPInterface:
		w.Raw(`,"interface":{"if-name":`)
		w.String(ep.Interface)
		w.Byte('}')
	case EPVLAN:
		w.Raw(`,"vlan":{"vlan-id":`)
		w.Uint(uint64(ep.VLANID))
		w.Raw(`,"if-name":`)
		w.String(ep.Interface)
		w.Byte('}')
	case EPInternal:
		w.Raw(`,"internal":{"internal-group":`)
		w.String(ep.InternalGroup)
		w.Byte('}')
	}
	w.Byte('}')
}

func writeRule(w *jsonw.Writer, r *FlowRule) {
	w.Raw(`{"id":`)
	w.String(r.ID)
	w.Raw(`,"priority":`)
	w.Int(int64(r.Priority))
	w.Raw(`,"match":{"port_in":`)
	writePortRef(w, r.Match.PortIn)
	m := &r.Match
	if m.EtherType != 0 {
		w.Raw(`,"ether_type":"0x`)
		for shift := 12; shift >= 0; shift -= 4 {
			w.Byte(hexDigits[m.EtherType>>shift&0xF])
		}
		w.Byte('"')
	}
	if m.VLANID != 0 {
		w.Raw(`,"vlan_id":`)
		w.Uint(uint64(m.VLANID))
	}
	if m.IPProto != 0 {
		w.Raw(`,"protocol":`)
		w.Uint(uint64(m.IPProto))
	}
	if m.IPSrc != "" {
		w.Raw(`,"source_ip":`)
		w.String(m.IPSrc)
	}
	if m.IPDst != "" {
		w.Raw(`,"dest_ip":`)
		w.String(m.IPDst)
	}
	if m.L4Src != 0 {
		w.Raw(`,"source_port":`)
		w.Uint(uint64(m.L4Src))
	}
	if m.L4Dst != 0 {
		w.Raw(`,"dest_port":`)
		w.Uint(uint64(m.L4Dst))
	}
	w.Raw(`},"actions":`)
	if len(r.Actions) == 0 {
		w.Raw("null")
	} else {
		w.Byte('[')
		for i := range r.Actions {
			if i > 0 {
				w.Byte(',')
			}
			writeAction(w, &r.Actions[i])
		}
		w.Byte(']')
	}
	w.Byte('}')
}

const hexDigits = "0123456789abcdef"

// writeAction writes the one key of the action's type, or {} when its
// parameter is the zero value the wire type omits.
func writeAction(w *jsonw.Writer, a *RuleAction) {
	w.Byte('{')
	switch a.Type {
	case ActOutput:
		if a.Output.IsNF() || a.Output.IsEndpoint() {
			w.Raw(`"output_to_port":`)
			writePortRef(w, a.Output)
		}
	case ActPushVLAN:
		if a.VLANID != 0 {
			w.Raw(`"push_vlan":`)
			w.Uint(uint64(a.VLANID))
		}
	case ActPopVLAN:
		w.Raw(`"pop_vlan":true`)
	case ActSetEthSrc:
		if a.MAC != "" {
			w.Raw(`"set_eth_src":`)
			w.String(a.MAC)
		}
	case ActSetEthDst:
		if a.MAC != "" {
			w.Raw(`"set_eth_dst":`)
			w.String(a.MAC)
		}
	default:
		w.Fail(fmt.Errorf("nffg: unencodable action type %q", a.Type))
	}
	w.Byte('}')
}

// writePortRef writes r's textual form (PortRef.String) as a JSON string
// without building it: its parts escape separately, since the separators
// are ASCII.
func writePortRef(w *jsonw.Writer, r PortRef) {
	switch {
	case r.IsNF():
		w.Raw(`"vnf:`)
		w.Escaped(r.NF)
		w.Byte(':')
		w.Escaped(r.Port)
	case r.IsEndpoint():
		w.Raw(`"endpoint:`)
		w.Escaped(r.Endpoint)
	default:
		w.Byte('"')
	}
	w.Byte('"')
}

// UnmarshalJSON parses the un-orchestrator schema, strictly: a field the
// schema does not know is an error, not silently dropped, so a misspelled
// "redundency" or an "anti-affinity" fails instead of deploying a graph
// without the protection it asked for. Every entry point (both REST tiers,
// nffgctl, the replicated deployment record) decodes through here. It sizes
// every model slice up front, gives the actions of all rules one array, and
// leaves an empty section nil, so a decoded record is deeply equal to the
// graph it encodes (Compute and Equal compare field by field and take a nil
// and an empty Config, Ports or Actions as equal anyway).
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
				et, err := parseEtherType(jr.Match.EtherType)
				if err != nil {
					return fmt.Errorf("nffg: rule %q: %w", jr.ID, err)
				}
				r.Match.EtherType = et
			}
			first := len(actions)
			for ai, ja := range jr.Actions {
				if ja.keys() > 1 {
					return fmt.Errorf("nffg: rule %q action %d: sets more than one action", jr.ID, ai)
				}
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

// parseEtherType accepts exactly the form WriteJSON writes: "0x" and four
// hex digits.
func parseEtherType(s string) (uint16, error) {
	if len(s) != len("0x0800") || s[:2] != "0x" {
		return 0, fmt.Errorf("bad ether_type %q: want 0x and four hex digits", s)
	}
	v, err := strconv.ParseUint(s[2:], 16, 16)
	if err != nil {
		return 0, fmt.Errorf("bad ether_type %q: %w", s, errors.Unwrap(err))
	}
	return uint16(v), nil
}

// keys counts the action keys ja sets. One action object carries one verb:
// a second key would otherwise be dropped without a word.
func (ja *jsonAction) keys() int {
	n := 0
	for _, set := range [...]bool{ja.OutputToPort != "", ja.PushVLAN != 0, ja.PopVLAN, ja.SetEthSrc != "", ja.SetEthDst != ""} {
		if set {
			n++
		}
	}
	return n
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
