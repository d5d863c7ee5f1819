package nffg

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/jsonw"
)

// The NF-FG travels in the un-orchestrator's JSON schema. WriteJSON
// encodes the model and UnmarshalJSON decodes it directly, each in one pass
// and without reflection. The encoded bytes must stay identical to what
// encoding/json writes over the schema's wire types (field order,
// omitempty, sorted configuration keys, escaping): the global tier's
// replicated deployment record embeds them, replicas on either side of an
// upgrade replay each other's log, and equal graphs must be equal bytes on
// every replica. The wire types survive as the test oracle of both
// directions (FuzzGraphJSON).

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
	d := &decoder{r: jsonw.Reading(data), g: g}
	jsonw.ReadObject(&d.r, rootSchema, d)
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

// decoder is the state of one graph decode: the element each schema table
// fills, the fields read for checks once an element is whole, and the
// faults that wait until the document has been read, so that a JSON error
// anywhere in it is the one reported.
type decoder struct {
	r                    jsonw.Reader
	g                    *Graph
	nf                   *NF
	port                 *NFPort
	ep                   *Endpoint
	rule                 *FlowRule
	endpointErr, ruleErr error
	// An endpoint's sections, a rule's port_in and ether_type, and an
	// action's keys, as read; the actions of the rules read so far, and
	// the first fault among those of the rule being read.
	ifName, vlanIf, group, portIn, etherType, out, src, dst string
	vlanID, push                                            uint16
	hasIf, hasVLAN, hasInternal, pop                        bool
	acts                                                    []RuleAction
	ruleActs, actAt                                         int
	actErr                                                  error
}

// The schema, one table per object, each key with how its value is read,
// in the wire types' order.
var (
	rootSchema = []jsonw.Field[decoder]{
		{Key: "forwarding-graph", Read: func(r *jsonw.Reader, d *decoder) { jsonw.ReadObject(r, graphSchema, d) }},
	}
	graphSchema = []jsonw.Field[decoder]{
		{Key: "id", Read: func(r *jsonw.Reader, d *decoder) { d.g.ID = r.Str() }},
		{Key: "name", Read: func(r *jsonw.Reader, d *decoder) { d.g.Name = r.Str() }},
		{Key: "VNFs", Read: func(r *jsonw.Reader, d *decoder) { d.g.NFs = array(d, &d.nf, nfSchema, nil) }},
		{Key: "end-points", Read: func(r *jsonw.Reader, d *decoder) {
			d.g.Endpoints = array(d, &d.ep, endpointSchema, (*decoder).endpoint)
		}},
		{Key: "big-switch", Read: func(r *jsonw.Reader, d *decoder) { jsonw.ReadObject(r, bigSwitchSchema, d) }},
	}
	nfSchema = []jsonw.Field[decoder]{
		{Key: "id", Read: func(r *jsonw.Reader, d *decoder) { d.nf.ID = r.Str() }},
		{Key: "name", Read: func(r *jsonw.Reader, d *decoder) { d.nf.Name = r.Str() }},
		{Key: "ports", Read: func(r *jsonw.Reader, d *decoder) { d.nf.Ports = array(d, &d.port, portSchema, nil) }},
		{Key: "technology-preference", Read: func(r *jsonw.Reader, d *decoder) { d.nf.TechnologyPreference = Technology(r.Str()) }},
		{Key: "configuration", Read: func(r *jsonw.Reader, d *decoder) { d.nf.Config = config(r) }},
		{Key: "replicas", Read: func(r *jsonw.Reader, d *decoder) { d.nf.Replicas = int(r.Int(strconv.IntSize)) }},
		{Key: "availability", Read: func(r *jsonw.Reader, d *decoder) { d.nf.Availability = r.Float() }},
		{Key: "redundancy", Read: func(r *jsonw.Reader, d *decoder) { d.nf.Redundancy = RedundancyMode(r.Str()) }},
		{Key: "anti_affinity", Read: func(r *jsonw.Reader, d *decoder) { d.nf.AntiAffinity = r.Str() }},
	}
	portSchema = []jsonw.Field[decoder]{
		{Key: "id", Read: func(r *jsonw.Reader, d *decoder) { d.port.ID = r.Str() }},
		{Key: "name", Read: func(r *jsonw.Reader, d *decoder) { d.port.Name = r.Str() }},
	}
	endpointSchema = []jsonw.Field[decoder]{
		{Key: "id", Read: func(r *jsonw.Reader, d *decoder) { d.ep.ID = r.Str() }},
		{Key: "type", Read: func(r *jsonw.Reader, d *decoder) { d.ep.Type = EndpointType(r.Str()) }},
		{Key: "interface", Read: func(r *jsonw.Reader, d *decoder) { d.hasIf = jsonw.ReadObject(r, interfaceSchema, d) }},
		{Key: "vlan", Read: func(r *jsonw.Reader, d *decoder) { d.hasVLAN = jsonw.ReadObject(r, vlanSchema, d) }},
		{Key: "internal", Read: func(r *jsonw.Reader, d *decoder) { d.hasInternal = jsonw.ReadObject(r, internalSchema, d) }},
	}
	interfaceSchema = []jsonw.Field[decoder]{{Key: "if-name", Read: func(r *jsonw.Reader, d *decoder) { d.ifName = r.Str() }}}
	vlanSchema      = []jsonw.Field[decoder]{
		{Key: "vlan-id", Read: func(r *jsonw.Reader, d *decoder) { d.vlanID = uint16(r.Uint(16)) }},
		{Key: "if-name", Read: func(r *jsonw.Reader, d *decoder) { d.vlanIf = r.Str() }},
	}
	internalSchema  = []jsonw.Field[decoder]{{Key: "internal-group", Read: func(r *jsonw.Reader, d *decoder) { d.group = r.Str() }}}
	bigSwitchSchema = []jsonw.Field[decoder]{{Key: "flow-rules", Read: func(r *jsonw.Reader, d *decoder) { d.g.Rules = d.rules() }}}
	ruleSchema      = []jsonw.Field[decoder]{
		{Key: "id", Read: func(r *jsonw.Reader, d *decoder) { d.rule.ID = r.Str() }},
		{Key: "priority", Read: func(r *jsonw.Reader, d *decoder) { d.rule.Priority = int(r.Int(strconv.IntSize)) }},
		{Key: "match", Read: func(r *jsonw.Reader, d *decoder) { jsonw.ReadObject(r, matchSchema, d) }},
		{Key: "actions", Read: func(r *jsonw.Reader, d *decoder) { d.actions() }},
	}
	matchSchema = []jsonw.Field[decoder]{
		{Key: "port_in", Read: func(r *jsonw.Reader, d *decoder) { d.portIn = r.Str() }},
		{Key: "ether_type", Read: func(r *jsonw.Reader, d *decoder) { d.etherType = r.Str() }},
		{Key: "vlan_id", Read: func(r *jsonw.Reader, d *decoder) { d.rule.Match.VLANID = uint16(r.Uint(16)) }},
		{Key: "protocol", Read: func(r *jsonw.Reader, d *decoder) { d.rule.Match.IPProto = uint8(r.Uint(8)) }},
		{Key: "source_ip", Read: func(r *jsonw.Reader, d *decoder) { d.rule.Match.IPSrc = r.Str() }},
		{Key: "dest_ip", Read: func(r *jsonw.Reader, d *decoder) { d.rule.Match.IPDst = r.Str() }},
		{Key: "source_port", Read: func(r *jsonw.Reader, d *decoder) { d.rule.Match.L4Src = uint16(r.Uint(16)) }},
		{Key: "dest_port", Read: func(r *jsonw.Reader, d *decoder) { d.rule.Match.L4Dst = uint16(r.Uint(16)) }},
	}
	actionSchema = []jsonw.Field[decoder]{
		{Key: "output_to_port", Read: func(r *jsonw.Reader, d *decoder) { d.out = r.Str() }},
		{Key: "push_vlan", Read: func(r *jsonw.Reader, d *decoder) { d.push = uint16(r.Uint(16)) }},
		{Key: "pop_vlan", Read: func(r *jsonw.Reader, d *decoder) { d.pop = r.Bool() }},
		{Key: "set_eth_src", Read: func(r *jsonw.Reader, d *decoder) { d.src = r.Str() }},
		{Key: "set_eth_dst", Read: func(r *jsonw.Reader, d *decoder) { d.dst = r.Str() }},
	}
)

// array reads an array of schema objects into a slice sized by its count,
// pointing *cur at each element while it is read and calling done once it
// is whole; null and [] are nil.
func array[T any](d *decoder, cur **T, schema []jsonw.Field[decoder], done func(*decoder)) []T {
	s := sized[T](d.r.Count())
	if !d.r.Array() {
		return nil
	}
	for i := 0; d.r.Next(); i++ {
		if i == len(s) {
			d.r.Fail(errors.New("malformed array")) // miscounted: malformed JSON
			return nil
		}
		*cur = &s[i]
		jsonw.ReadObject(&d.r, schema, d)
		if done != nil {
			done(d)
		}
	}
	return s
}

// config reads an NF's configuration: null is nil, {} an empty map.
func config(r *jsonw.Reader) map[string]string {
	n := r.Count()
	if !r.Object() {
		return nil
	}
	m := make(map[string]string, n)
	for key, ok := r.Key(); ok; key, ok = r.Key() {
		if _, dup := m[string(key)]; dup {
			r.Fail(fmt.Errorf("json: repeated configuration key %q", key))
			return nil
		}
		k := string(key)
		m[k] = r.Str()
	}
	return m
}

// endpoint checks the endpoint just read: the section its type names must
// be there.
func (d *decoder) endpoint() {
	ep, missing := d.ep, ""
	switch ep.Type {
	case EPInterface:
		if ep.Interface = d.ifName; !d.hasIf {
			missing = "interface"
		}
	case EPVLAN:
		if ep.Interface, ep.VLANID = d.vlanIf, d.vlanID; !d.hasVLAN {
			missing = "vlan"
		}
	case EPInternal:
		if ep.InternalGroup = d.group; !d.hasInternal {
			missing = "internal"
		}
	default:
		first(&d.endpointErr, fmt.Errorf("nffg: endpoint %q: unknown type %q", ep.ID, ep.Type))
	}
	if missing != "" {
		first(&d.endpointErr, fmt.Errorf("nffg: endpoint %q: missing %s section", ep.ID, missing))
	}
	d.ifName, d.vlanIf, d.group, d.vlanID, d.hasIf, d.hasVLAN, d.hasInternal = "", "", "", 0, false, false, false
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
// says how many are its. A rule's faults name its id, so they are checked
// once it is whole: port_in, then ether_type, then its first faulty action.
func (d *decoder) rules() []FlowRule {
	d.acts, d.ruleActs = make([]RuleAction, 0, d.r.Count()), 0
	rules := array(d, &d.rule, ruleSchema, func(d *decoder) {
		fr, err := d.rule, error(nil)
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
	})
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

// actions reads a rule's actions onto d.acts, noting its first fault. An
// action carries one verb: a second key would otherwise be dropped without
// a word. A key set to its zero value ("push_vlan": 0) sets nothing.
func (d *decoder) actions() {
	if !d.r.Array() {
		return
	}
	for i := 0; d.r.Next(); i++ {
		jsonw.ReadObject(&d.r, actionSchema, d)
		set := 0
		for _, on := range [...]bool{d.out != "", d.push != 0, d.pop, d.src != "", d.dst != ""} {
			if on {
				set++
			}
		}
		a, err := RuleAction{}, error(nil)
		switch {
		case set > 1:
			err = errors.New("sets more than one action")
		case d.out != "":
			a.Type = ActOutput
			a.Output, err = ParsePortRef(d.out)
		case d.push != 0:
			a = RuleAction{Type: ActPushVLAN, VLANID: d.push}
		case d.pop:
			a = RuleAction{Type: ActPopVLAN}
		case d.src != "":
			a = RuleAction{Type: ActSetEthSrc, MAC: d.src}
		case d.dst != "":
			a = RuleAction{Type: ActSetEthDst, MAC: d.dst}
		default:
			err = errors.New("empty action")
		}
		if d.actErr == nil && err != nil {
			d.actErr, d.actAt = err, i
		} else if d.actErr == nil {
			d.acts = append(d.acts, a)
		}
		d.out, d.src, d.dst, d.push, d.pop = "", "", "", 0, false
	}
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

// sized returns n zero values, or nil when n is 0: an empty section stays
// nil through the codec.
func sized[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, n)
}
