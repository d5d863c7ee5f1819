package nffg

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// FuzzGraphJSON feeds arbitrary bytes to the strict NF-FG decoder, the one
// every REST tier and the deployment record go through. Decoding and
// Validate must never panic. Whatever the decoder accepts, the reflective
// decoder it replaced (oracleDecode) accepts too, to an equal graph; it
// may refuse more (a case-folded or repeated key). A document that decodes
// must re-encode through MarshalJSON to exactly the bytes encoding/json
// writes over the wire types (oracleJSON), and those bytes must decode to
// an equal graph. Seeds are the package's test graphs, plus documents
// strict decoding rejects. Seeds run under plain `go test`; `make fuzz`
// fuzzes for real.
func FuzzGraphJSON(f *testing.F) {
	for _, seed := range graphJSONSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var g Graph
		if err := g.UnmarshalJSON(data); err != nil {
			return
		}
		if want, err := oracleDecode(data); err != nil || !reflect.DeepEqual(&g, want) {
			t.Fatalf("decoder accepts %q; encoding/json: %v\n got %+v\nwant %+v", data, err, g, want)
		}
		_ = g.Validate()
		enc, err := g.MarshalJSON()
		if err != nil {
			t.Fatalf("decoded graph does not re-encode: %v\n%+v", err, g)
		}
		if want, err := oracleJSON(&g); err != nil || !bytes.Equal(enc, want) {
			t.Fatalf("MarshalJSON differs from encoding/json (err %v):\n got %s\nwant %s", err, enc, want)
		}
		if len(enc) != cap(enc) {
			t.Fatalf("MarshalJSON left %d bytes of spare capacity", cap(enc)-len(enc))
		}
		var again Graph
		if err := again.UnmarshalJSON(enc); err != nil {
			t.Fatalf("re-encoded graph does not decode: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(normalized(&g), normalized(&again)) {
			t.Fatalf("round trip changed the graph:\n got %+v\nwant %+v\nvia %s", again, g, enc)
		}
	})
}

// graphJSONSeeds are FuzzGraphJSON's seed documents.
func graphJSONSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	for _, g := range []*Graph{
		sampleGraph(),
		availGraph(0.999, RedundancyActiveStandby, 1, "cpe-ha"),
		availGraph(0.9999, RedundancyActiveActive, 3, "fw-spread"),
	} {
		data, err := json.Marshal(g)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	return append(seeds,
		[]byte(literalGraphJSON),
		[]byte(strings.Replace(literalGraphJSON, `"name": "firewall",`, `"name": "firewall", "redundency": "active-standby",`, 1)),
		[]byte(`{"forwarding-graph": {"id": "x", "end-points": [{"id": "e", "type": "vlan"}]}}`),
		[]byte(strings.Replace(literalGraphJSON, `"0x0800"`, `"0x08001"`, 1)),
		[]byte(strings.Replace(literalGraphJSON, `{"push_vlan": 42}`, `{"output_to_port": "endpoint:out", "push_vlan": 42}`, 1)),
		[]byte(`{"forwarding-graph": {"id": "<\u2028&>", "name": "\u00e9\ufffd", "VNFs": [{"id": "f", "name": "n",
			"configuration": {"z": "1", "a": "<x>", "m": ""}, "availability": 1e-7, "replicas": -2}]}}`),
		[]byte(`{"forwarding-graph": {"id": "n", "VNFs": [null, {"id": null, "ports": [], "configuration": null}], "end-points": null,
			"big-switch": {"flow-rules": [{"id": "r", "match": {"port_in": "endpoint:a", "ether_type": ""}, "actions": [{"push_vlan": 0, "pop_vlan": true}]}]}}}`),
		[]byte(`{"forwarding-graph": {"ID": "case"}}`),
		[]byte(`{"forwarding-graph": {"id": "a", "id": "b"}}`),
		[]byte(`{"forwarding-graph": {"id": "\u0067\ud83d\ude00", "VNFs": [{"id": "f", "replicas": 1e2}]}}`),
		[]byte(`null`))
}

// oracleJSON is the encoder the schema tables replaced: the graph converted
// into the wire types and handed to encoding/json. MarshalJSON must match
// it byte for byte.
func oracleJSON(g *Graph) ([]byte, error) {
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
				jr.Actions = append(jr.Actions, ja)
			}
			bs.FlowRules[i] = jr
		}
		jg.BigSwitch = bs
	}
	return json.Marshal(jsonRoot{ForwardingGraph: jg})
}

// TestWriteJSONMatchesOracle holds the encoder to oracleJSON on graphs no
// document decodes to: values the decoder rejects or never produces (an
// action whose parameter is zero, an unknown endpoint type, a NaN
// availability, an unknown action), strings in every escape class, and
// floats on both sides of encoding/json's exponent cutoffs. Both encoders
// fail on the same graphs.
func TestWriteJSONMatchesOracle(t *testing.T) {
	odd := "<a&b>\"q\"\\\n\x00\x7f\u2028\u2029\xff\xe2\x80é🙂"
	cases := map[string]*Graph{
		"sample":  sampleGraph(),
		"escapes": {ID: odd, Name: odd, NFs: []NF{{ID: odd, Name: odd, Ports: []NFPort{{ID: odd, Name: odd}}, Config: map[string]string{odd: odd, "": "", "b": "<"}, AntiAffinity: odd}}, Endpoints: []Endpoint{{ID: odd, Type: EPInternal, InternalGroup: odd}}, Rules: []FlowRule{{ID: odd, Match: RuleMatch{PortIn: NFPortRef(odd, odd), IPSrc: odd}, Actions: []RuleAction{{Type: ActOutput, Output: EndpointRef(odd)}, {Type: ActSetEthDst, MAC: odd}}}}},
		"zero parameters": {ID: "z", Rules: []FlowRule{{ID: "r", Priority: -5, Match: RuleMatch{EtherType: 0xffff, VLANID: 4095, IPProto: 255, L4Src: 1, L4Dst: 65535},
			Actions: []RuleAction{{Type: ActOutput}, {Type: ActOutput, Output: PortRef{Port: "p"}}, {Type: ActPushVLAN}, {Type: ActPopVLAN}, {Type: ActSetEthSrc}, {Type: ActSetEthDst}}},
			{ID: "empty actions", Match: RuleMatch{EtherType: 0x1}, Actions: []RuleAction{}}}},
		"unknown endpoint type": {ID: "e", Endpoints: []Endpoint{{ID: "x", Type: "bogus", Interface: "eth0"}, {ID: "v", Type: EPVLAN}}},
		"empty config":          {ID: "c", NFs: []NF{{ID: "f", Config: map[string]string{}, Replicas: -1, Redundancy: RedundancyActiveActive, TechnologyPreference: TechDocker}}},
		"nan availability":      {ID: "n", NFs: []NF{{ID: "f", Availability: math.NaN()}}},
		"inf availability":      {ID: "i", NFs: []NF{{ID: "f", Availability: math.Inf(-1)}}},
		"unknown action":        {ID: "u", Rules: []FlowRule{{ID: "r", Actions: []RuleAction{{Type: "goto_table"}}}}},
	}
	for i, v := range []float64{0.999, 1e-6, 9.999e-7, 1e-7, 1e20, 1e21, 123456789.5, -0.25, math.SmallestNonzeroFloat64, math.MaxFloat64} {
		cases[fmt.Sprint("availability ", i)] = &Graph{ID: "a", NFs: []NF{{ID: "f", Availability: v}}}
	}
	for name, g := range cases {
		want, wantErr := oracleJSON(g)
		got, err := g.MarshalJSON()
		if (err != nil) != (wantErr != nil) {
			t.Errorf("%s: MarshalJSON err %v, encoding/json err %v", name, err, wantErr)
			continue
		}
		if wantErr == nil && (!bytes.Equal(got, want) || len(got) != cap(got)) {
			t.Errorf("%s: MarshalJSON (len %d, cap %d)\n got %s\nwant %s", name, len(got), cap(got), got, want)
		}
	}
}

// TestJSONRoundTripKeepsNil: the codec sizes its slices up front, but a
// section that is absent or empty on the wire decodes to nil, never to an
// empty slice, and re-encoding a decoded graph gives back a graph that
// reflect.DeepEqual finds identical. nffg.Compute compares NFs and rules
// with DeepEqual, and an update keeps an unchanged piece only when Compute
// comes back empty: a nil turned into an empty slice on the way through the
// replicated record would redeploy it.
func TestJSONRoundTripKeepsNil(t *testing.T) {
	lan := []Endpoint{{ID: "lan", Type: EPInterface, Interface: "eth0"}}
	hairpin := RuleMatch{PortIn: EndpointRef("lan")}
	for name, g := range map[string]*Graph{
		"nf without ports or config": {ID: "bare", NFs: []NF{{ID: "fw", Name: "firewall"}}, Endpoints: lan,
			Rules: []FlowRule{{ID: "r1", Match: hairpin, Actions: []RuleAction{{Type: ActOutput, Output: EndpointRef("lan")}}}}},
		"no rules or endpoints": {ID: "nf-only", NFs: []NF{{ID: "fw", Name: "firewall",
			Ports: []NFPort{{ID: "0"}}, Config: map[string]string{"default": "accept"}}}},
		"rule without actions": {ID: "no-actions", Endpoints: lan, Rules: []FlowRule{{ID: "r1", Match: hairpin}}},
		"empty graph":          {ID: "empty"},
		"sample":               sampleGraph(),
	} {
		data, err := json.Marshal(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got Graph
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("%s: %v\n%s", name, err, data)
		}
		if !reflect.DeepEqual(g, &got) {
			t.Errorf("%s: round trip changed the graph:\n got %#v\nwant %#v\nvia %s", name, got, *g, data)
		}
		if d := Compute(g, &got); !d.Empty() {
			t.Errorf("%s: round trip is a change to Compute: %+v", name, d)
		}
	}
	for i, seed := range graphJSONSeeds(t) {
		var g Graph
		if err := g.UnmarshalJSON(seed); err != nil {
			continue // the seeds strict decoding rejects
		}
		enc, err := g.MarshalJSON()
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		var again Graph
		if err := again.UnmarshalJSON(enc); err != nil {
			t.Fatalf("seed %d: %v\n%s", i, err, enc)
		}
		if !reflect.DeepEqual(g, again) {
			t.Errorf("seed %d: round trip changed the graph:\n got %#v\nwant %#v", i, again, g)
		}
	}
}

// normalized returns a copy of g in which an empty NF configuration is nil:
// MarshalJSON omits both, so they are the same graph.
func normalized(g *Graph) *Graph {
	c := *g
	c.NFs = append([]NF(nil), g.NFs...)
	for i := range c.NFs {
		if len(c.NFs[i].Config) == 0 {
			c.NFs[i].Config = nil
		}
	}
	return &c
}
