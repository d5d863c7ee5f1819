package nffg

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/jsonw"
)

// The NF-FG travels in the un-orchestrator's JSON schema, declared once
// below: one jsonw table per object of the schema, typed on the model, each
// member with its key in the wire types' order and with their omitempty
// rules. MarshalJSON and UnmarshalJSON both run from those tables, in one
// pass and without reflection. The encoded bytes must stay identical to
// what encoding/json writes over the schema's wire types (field order,
// omitempty, sorted configuration keys, escaping): the global tier's
// replicated deployment record embeds them, replicas on either side of an
// upgrade replay each other's log, and equal graphs must be equal bytes on
// every replica. The wire types survive as the test oracle of both
// directions (FuzzGraphJSON).

// MarshalJSON renders the graph in the un-orchestrator schema into a buffer
// of exactly its length. An action type the schema has no key for fails it.
func (g *Graph) MarshalJSON() ([]byte, error) { return jsonw.Encode(rootSchema, g) }

// WriteJSON writes g to w, or null when g is nil, as encoding/json writes a
// *Graph; ReadJSON reads one back. An encoder or decoder embedding graphs
// (the global tier's deployment record) goes through these.
func WriteJSON(w *jsonw.Writer, g *Graph) {
	if g == nil {
		w.Raw("null")
		return
	}
	jsonw.WriteObject(w, rootSchema, g)
}

// ReadJSON reads a graph from r by UnmarshalJSON, or a null as nil; a
// graph UnmarshalJSON refuses fails r.
func ReadJSON(r *jsonw.Reader) *Graph {
	raw := r.Raw()
	if raw == nil || string(raw) == "null" {
		return nil
	}
	g := new(Graph)
	if err := g.UnmarshalJSON(raw); err != nil {
		r.Fail(err)
	}
	return g
}

// UnmarshalJSON parses the un-orchestrator schema in one pass, filling the
// model as it reads, and strictly: a field the schema does not know is an
// error, not silently dropped, so a misspelled "redundency" or an
// "anti-affinity" fails instead of deploying a graph without the
// protection it asked for. Keys match exactly and appear once per object,
// where encoding/json, which decoded the schema before, matched them case
// insensitively and kept the last of a repeated key. Otherwise it accepts
// what encoding/json accepted over the wire types, null included, and
// refuses the rest with the same messages: a JSON error first, then
// trailing data, then the first endpoint fault, then the first rule fault.
// Every entry point (both REST tiers, nffgctl, the replicated deployment
// record) decodes through here. It sizes every model slice up front, gives
// the actions of all rules one array, and leaves an empty section nil, so
// a decoded record is deeply equal to the graph it encodes.
func (g *Graph) UnmarshalJSON(data []byte) error {
	*g = Graph{}
	d := &decoder{r: jsonw.Reading(data)}
	d.r.State = d
	jsonw.ReadObject(&d.r, rootSchema, g)
	switch {
	case d.r.Err() != nil:
		return fmt.Errorf("nffg: %w", d.r.Err())
	case !d.r.Done():
		return errors.New("nffg: trailing data after the graph")
	case d.endpointErr != nil:
		return d.endpointErr
	}
	return d.ruleErr
}

// decoder is the state of one graph decode, which the tables' readers reach
// as their Reader's State: what is read aside until an element is whole,
// and the faults that wait until the document has been read, so that a
// JSON error anywhere in it is the one reported.
type decoder struct {
	r                    jsonw.Reader
	endpointErr, ruleErr error
	// An endpoint's sections (sectionTypes' order) and which were there; a
	// rule's port_in and ether_type; the actions of the rules read so far,
	// the first fault among those of the rule being read, and the verbs
	// and output fault of the action being read.
	sections          [len(sectionTypes)]Endpoint
	has               [len(sectionTypes)]bool
	portIn, etherType string
	acts              []RuleAction
	ruleActs, actAt   int
	actErr            error
	verbs             int
	outErr            error
}

func state(r *jsonw.Reader) *decoder { return r.State.(*decoder) }

// sectionTypes are the endpoint types, each with the section of its own
// name, in the wire types' order.
var sectionTypes = [...]EndpointType{EPInterface, EPVLAN, EPInternal}

// The schema, one table per object.
var (
	rootSchema = []jsonw.Field[Graph]{{Key: "forwarding-graph",
		Read:  func(r *jsonw.Reader, g *Graph) { jsonw.ReadObject(r, graphSchema, g) },
		Write: func(w *jsonw.Writer, g *Graph) { jsonw.WriteObject(w, graphSchema, g) }}}
	graphSchema = []jsonw.Field[Graph]{
		{Key: "id", At: func(g *Graph) any { return &g.ID }},
		{Key: "name", Omit: true, At: func(g *Graph) any { return &g.Name }},
		{Key: "VNFs", Read: func(r *jsonw.Reader, g *Graph) { g.NFs = array(r, nfSchema, nil) },
			Write: func(w *jsonw.Writer, g *Graph) { jsonw.WriteArray(w, nfSchema, g.NFs) }},
		{Key: "end-points", Read: func(r *jsonw.Reader, g *Graph) { g.Endpoints = array(r, endpointSchema, endpoint) },
			Write: func(w *jsonw.Writer, g *Graph) { jsonw.WriteArray(w, endpointSchema, g.Endpoints) }},
		{Key: "big-switch", Read: func(r *jsonw.Reader, g *Graph) { jsonw.ReadObject(r, bigSwitchSchema, g) },
			Write: func(w *jsonw.Writer, g *Graph) {
				if len(g.Rules) > 0 {
					jsonw.WriteObject(w, bigSwitchSchema, g)
				}
			}},
	}
	bigSwitchSchema = []jsonw.Field[Graph]{{Key: "flow-rules",
		Read:  func(r *jsonw.Reader, g *Graph) { g.Rules = state(r).rules() },
		Write: func(w *jsonw.Writer, g *Graph) { jsonw.WriteArray(w, ruleSchema, g.Rules) }}}
	nfSchema = []jsonw.Field[NF]{
		{Key: "id", At: func(nf *NF) any { return &nf.ID }},
		{Key: "name", At: func(nf *NF) any { return &nf.Name }},
		{Key: "ports", Read: func(r *jsonw.Reader, nf *NF) { nf.Ports = array(r, portSchema, nil) },
			Write: func(w *jsonw.Writer, nf *NF) { jsonw.WriteArray(w, portSchema, nf.Ports) }},
		{Key: "technology-preference", Omit: true, At: func(nf *NF) any { return (*string)(&nf.TechnologyPreference) }},
		{Key: "configuration", Omit: true, At: func(nf *NF) any { return &nf.Config }},
		{Key: "replicas", Omit: true, At: func(nf *NF) any { return &nf.Replicas }},
		{Key: "availability", Omit: true, At: func(nf *NF) any { return &nf.Availability }},
		{Key: "redundancy", Omit: true, At: func(nf *NF) any { return (*string)(&nf.Redundancy) }},
		{Key: "anti_affinity", Omit: true, At: func(nf *NF) any { return &nf.AntiAffinity }},
	}
	portSchema = []jsonw.Field[NFPort]{
		{Key: "id", At: func(p *NFPort) any { return &p.ID }},
		{Key: "name", Omit: true, At: func(p *NFPort) any { return &p.Name }},
	}
	endpointSchema = []jsonw.Field[Endpoint]{
		{Key: "id", At: func(ep *Endpoint) any { return &ep.ID }},
		{Key: "type", At: func(ep *Endpoint) any { return (*string)(&ep.Type) }},
		section(0, []jsonw.Field[Endpoint]{ifName}),
		section(1, []jsonw.Field[Endpoint]{{Key: "vlan-id", At: func(ep *Endpoint) any { return &ep.VLANID }}, ifName}),
		section(2, []jsonw.Field[Endpoint]{{Key: "internal-group", At: func(ep *Endpoint) any { return &ep.InternalGroup }}}),
	}
	ifName     = jsonw.Field[Endpoint]{Key: "if-name", At: func(ep *Endpoint) any { return &ep.Interface }}
	ruleSchema = []jsonw.Field[FlowRule]{
		{Key: "id", At: func(fr *FlowRule) any { return &fr.ID }},
		{Key: "priority", At: func(fr *FlowRule) any { return &fr.Priority }},
		{Key: "match", Read: func(r *jsonw.Reader, fr *FlowRule) { jsonw.ReadObject(r, matchSchema, &fr.Match) },
			Write: func(w *jsonw.Writer, fr *FlowRule) { jsonw.WriteObject(w, matchSchema, &fr.Match) }},
		{Key: "actions", Read: func(r *jsonw.Reader, _ *FlowRule) { state(r).actions() }, Write: writeActions},
	}
	matchSchema = []jsonw.Field[RuleMatch]{
		{Key: "port_in", Read: func(r *jsonw.Reader, _ *RuleMatch) { state(r).portIn = r.Str() },
			Write: func(w *jsonw.Writer, m *RuleMatch) { writePortRef(w, m.PortIn) }},
		{Key: "ether_type", Read: func(r *jsonw.Reader, _ *RuleMatch) { state(r).etherType = r.Str() },
			Write: func(w *jsonw.Writer, m *RuleMatch) {
				if m.EtherType != 0 {
					w.Raw(`"0x`)
					for shift := 12; shift >= 0; shift -= 4 {
						w.Byte(hexDigits[m.EtherType>>shift&0xF])
					}
					w.Byte('"')
				}
			}},
		{Key: "vlan_id", Omit: true, At: func(m *RuleMatch) any { return &m.VLANID }},
		{Key: "protocol", Omit: true, At: func(m *RuleMatch) any { return &m.IPProto }},
		{Key: "source_ip", Omit: true, At: func(m *RuleMatch) any { return &m.IPSrc }},
		{Key: "dest_ip", Omit: true, At: func(m *RuleMatch) any { return &m.IPDst }},
		{Key: "source_port", Omit: true, At: func(m *RuleMatch) any { return &m.L4Src }},
		{Key: "dest_port", Omit: true, At: func(m *RuleMatch) any { return &m.L4Dst }},
	}
	// An action is an object with the one key of its verb, the verb's
	// name; a parameter that is the zero value is not written, and not
	// read as setting its verb.
	actionSchema = []jsonw.Field[RuleAction]{
		{Key: string(ActOutput), Read: func(r *jsonw.Reader, a *RuleAction) {
			if s := r.Str(); s != "" {
				a.Output, state(r).outErr = ParsePortRef(s)
				verb(r, a, ActOutput)
			}
		}, Write: func(w *jsonw.Writer, a *RuleAction) {
			if a.Type == ActOutput && (a.Output.IsNF() || a.Output.IsEndpoint()) {
				writePortRef(w, a.Output)
			}
		}},
		{Key: string(ActPushVLAN), Read: func(r *jsonw.Reader, a *RuleAction) {
			if a.VLANID = uint16(r.Uint(16)); a.VLANID != 0 {
				verb(r, a, ActPushVLAN)
			}
		}, Write: func(w *jsonw.Writer, a *RuleAction) {
			if a.Type == ActPushVLAN && a.VLANID != 0 {
				w.Uint(uint64(a.VLANID))
			}
		}},
		{Key: string(ActPopVLAN), Read: func(r *jsonw.Reader, a *RuleAction) {
			if r.Bool() {
				verb(r, a, ActPopVLAN)
			}
		}, Write: func(w *jsonw.Writer, a *RuleAction) {
			if a.Type == ActPopVLAN {
				w.Raw("true")
			}
		}},
		macVerb(ActSetEthSrc),
		macVerb(ActSetEthDst),
	}
)

const hexDigits = "0123456789abcdef"

// section is the field of the endpoint section of sectionTypes[i], by its
// fields: written for an endpoint of that type, and read aside until the
// endpoint is whole (endpoint).
func section(i int, fields []jsonw.Field[Endpoint]) jsonw.Field[Endpoint] {
	t := sectionTypes[i]
	return jsonw.Field[Endpoint]{Key: string(t),
		Read: func(r *jsonw.Reader, _ *Endpoint) {
			d := state(r)
			d.has[i] = jsonw.ReadObject(r, fields, &d.sections[i])
		},
		Write: func(w *jsonw.Writer, ep *Endpoint) {
			if ep.Type == t {
				jsonw.WriteObject(w, fields, ep)
			}
		}}
}

// macVerb is the field of a verb whose parameter is a MAC address.
func macVerb(t RuleActionType) jsonw.Field[RuleAction] {
	return jsonw.Field[RuleAction]{Key: string(t),
		Read: func(r *jsonw.Reader, a *RuleAction) {
			if s := r.Str(); s != "" {
				a.MAC = s
				verb(r, a, t)
			}
		},
		Write: func(w *jsonw.Writer, a *RuleAction) {
			if a.Type == t && a.MAC != "" {
				w.String(a.MAC)
			}
		}}
}

// verb notes that the action being read sets t.
func verb(r *jsonw.Reader, a *RuleAction, t RuleActionType) {
	a.Type = t
	state(r).verbs++
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

// writeActions writes a rule's actions, null when it has none, as the wire
// type's nil slice. An action type the schema has no key for fails w.
func writeActions(w *jsonw.Writer, fr *FlowRule) {
	if len(fr.Actions) == 0 {
		w.Raw("null")
		return
	}
	for _, a := range fr.Actions {
		switch a.Type {
		case ActOutput, ActPushVLAN, ActPopVLAN, ActSetEthSrc, ActSetEthDst:
		default:
			w.Fail(fmt.Errorf("nffg: unencodable action type %q", a.Type))
		}
	}
	jsonw.WriteArray(w, actionSchema, fr.Actions)
}

// array reads an array of objects as jsonw.ReadArray does, except that []
// is nil, like null: an empty section stays nil through the codec.
func array[E any](r *jsonw.Reader, fields []jsonw.Field[E], done func(*jsonw.Reader, *E)) []E {
	if s := jsonw.ReadArray(r, fields, done); len(s) > 0 {
		return s
	}
	return nil
}

// endpoint checks the endpoint just read and takes its section: the one
// its type names must be there.
func endpoint(r *jsonw.Reader, ep *Endpoint) {
	d, known := state(r), false
	for i, t := range sectionTypes {
		if t != ep.Type {
			continue
		}
		known = true
		s := &d.sections[i]
		ep.Interface, ep.VLANID, ep.InternalGroup = s.Interface, s.VLANID, s.InternalGroup
		if !d.has[i] {
			first(&d.endpointErr, fmt.Errorf("nffg: endpoint %q: missing %s section", ep.ID, t))
		}
	}
	if !known {
		first(&d.endpointErr, fmt.Errorf("nffg: endpoint %q: unknown type %q", ep.ID, ep.Type))
	}
	d.sections, d.has = [len(sectionTypes)]Endpoint{}, [len(sectionTypes)]bool{}
}

// first records err in *fault unless a fault is already recorded there.
func first(fault *error, err error) {
	if *fault == nil {
		*fault = err
	}
}

// rules reads the flow rules into a slice sized by their count, and gives
// their actions one array, sized for one action per rule and copied to its
// final size only if that was wrong; until then each rule's Actions only
// says how many are its.
func (d *decoder) rules() []FlowRule {
	d.acts, d.ruleActs = make([]RuleAction, 0, d.r.Count()), 0
	rules := array(&d.r, ruleSchema, rule)
	all := d.acts
	if len(all) != cap(all) {
		all = append([]RuleAction(nil), all...)
	}
	for i := range rules {
		n := len(rules[i].Actions)
		rules[i].Actions = nil
		if n > 0 {
			rules[i].Actions = all[:n:n]
		}
		all = all[n:]
	}
	return rules
}

// rule checks the rule just read. A rule's faults name its id, so they are
// checked once it is whole: port_in, then ether_type, then its first
// faulty action.
func rule(r *jsonw.Reader, fr *FlowRule) {
	d, err := state(r), error(nil)
	fr.Actions, d.ruleActs = d.acts[d.ruleActs:], len(d.acts)
	if fr.Match.PortIn, err = ParsePortRef(d.portIn); err == nil && d.etherType != "" {
		fr.Match.EtherType, err = parseEtherType(d.etherType)
	}
	if err != nil {
		first(&d.ruleErr, fmt.Errorf("nffg: rule %q: %w", fr.ID, err))
	} else if d.actErr != nil {
		first(&d.ruleErr, fmt.Errorf("nffg: rule %q action %d: %w", fr.ID, d.actAt, d.actErr))
	}
	d.portIn, d.etherType, d.actErr = "", "", nil
}

// actions reads a rule's actions onto d.acts, noting its first fault. An
// action carries one verb: a second key would otherwise be dropped without
// a word.
func (d *decoder) actions() {
	if !d.r.Array() {
		return
	}
	for i := 0; d.r.Next(); i++ {
		d.acts = append(d.acts, RuleAction{})
		d.verbs, d.outErr = 0, nil
		jsonw.ReadObject(&d.r, actionSchema, &d.acts[len(d.acts)-1])
		err := d.outErr
		switch {
		case d.verbs > 1:
			err = errors.New("sets more than one action")
		case d.verbs == 0:
			err = errors.New("empty action")
		}
		if d.actErr == nil && err != nil {
			d.actErr, d.actAt = err, i
		}
	}
}

// parseEtherType accepts exactly the form the ether_type field writes:
// "0x" and four hex digits.
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
