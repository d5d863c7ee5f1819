package nffg

import (
	"encoding/json"
	"strings"
	"testing"
)

// sampleGraph builds the paper's motivating service: an IPsec endpoint on
// the CPE between the LAN interface and the WAN interface.
func sampleGraph() *Graph {
	return &Graph{
		ID:   "graph-1",
		Name: "ipsec-cpe",
		NFs: []NF{{
			ID:   "ipsec",
			Name: "ipsec",
			Ports: []NFPort{
				{ID: "0", Name: "plain"},
				{ID: "1", Name: "encrypted"},
			},
			TechnologyPreference: TechNative,
			Config:               map[string]string{"remote": "203.0.113.9"},
		}},
		Endpoints: []Endpoint{
			{ID: "lan", Type: EPInterface, Interface: "eth0"},
			{ID: "wan", Type: EPVLAN, Interface: "eth1", VLANID: 100},
		},
		Rules: []FlowRule{
			{
				ID: "r1", Priority: 10,
				Match:   RuleMatch{PortIn: EndpointRef("lan")},
				Actions: []RuleAction{{Type: ActOutput, Output: NFPortRef("ipsec", "0")}},
			},
			{
				ID: "r2", Priority: 10,
				Match:   RuleMatch{PortIn: NFPortRef("ipsec", "1")},
				Actions: []RuleAction{{Type: ActOutput, Output: EndpointRef("wan")}},
			},
			{
				ID: "r3", Priority: 10,
				Match:   RuleMatch{PortIn: EndpointRef("wan")},
				Actions: []RuleAction{{Type: ActOutput, Output: NFPortRef("ipsec", "1")}},
			},
			{
				ID: "r4", Priority: 10,
				Match:   RuleMatch{PortIn: NFPortRef("ipsec", "0")},
				Actions: []RuleAction{{Type: ActOutput, Output: EndpointRef("lan")}},
			},
		},
	}
}

func TestValidateSample(t *testing.T) {
	if err := sampleGraph().Validate(); err != nil {
		t.Fatalf("sample graph invalid: %v", err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := sampleGraph()
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"forwarding-graph", "VNFs", "end-points", "big-switch",
		"flow-rules", "port_in", "output_to_port", "vnf:ipsec:0", "endpoint:lan",
		"technology-preference"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("JSON missing %q:\n%s", want, data)
		}
	}
	var got Graph
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if d := Compute(g, &got); !d.Empty() {
		t.Errorf("round trip changed the graph: %+v", d)
	}
}

// literalGraphJSON is a literal document in the un-orchestrator shape.
const literalGraphJSON = `{
  "forwarding-graph": {
    "id": "g7",
    "name": "firewall chain",
    "VNFs": [
      {"id": "fw", "name": "firewall", "ports": [{"id": "0"}, {"id": "1"}]}
    ],
    "end-points": [
      {"id": "in",  "type": "interface", "interface": {"if-name": "eth0"}},
      {"id": "out", "type": "vlan", "vlan": {"vlan-id": 42, "if-name": "eth1"}},
      {"id": "next", "type": "internal", "internal": {"internal-group": "gA"}}
    ],
    "big-switch": {"flow-rules": [
      {"id": "r1", "priority": 100,
       "match": {"port_in": "endpoint:in", "ether_type": "0x0800", "dest_port": 80},
       "actions": [{"output_to_port": "vnf:fw:0"}]},
      {"id": "r2", "priority": 1,
       "match": {"port_in": "vnf:fw:1"},
       "actions": [{"push_vlan": 42}, {"output_to_port": "endpoint:out"}]}
    ]}
  }
}`

func TestJSONUnmarshalLiteral(t *testing.T) {
	var g Graph
	if err := json.Unmarshal([]byte(literalGraphJSON), &g); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.ID != "g7" || len(g.NFs) != 1 || len(g.Endpoints) != 3 || len(g.Rules) != 2 {
		t.Errorf("parsed graph = %+v", g)
	}
	if g.Rules[0].Match.EtherType != 0x0800 {
		t.Errorf("ether_type = %#x", g.Rules[0].Match.EtherType)
	}
	if g.Rules[0].Match.L4Dst != 80 {
		t.Errorf("dest_port = %d", g.Rules[0].Match.L4Dst)
	}
	if g.Rules[1].Actions[0].Type != ActPushVLAN || g.Rules[1].Actions[0].VLANID != 42 {
		t.Errorf("actions = %+v", g.Rules[1].Actions)
	}
	if g.Endpoints[2].InternalGroup != "gA" {
		t.Errorf("internal endpoint = %+v", g.Endpoints[2])
	}
}

// TestJSONRejectsUnknownFields: decoding is strict, so a field the schema
// does not know, at any depth, fails naming the field, as does anything
// after the graph, an ether_type not in the form the encoder writes, and an
// action object setting two verbs (which would otherwise keep one and drop
// the other without a word).
func TestJSONRejectsUnknownFields(t *testing.T) {
	etherType := func(v string) string {
		return strings.Replace(literalGraphJSON, `"ether_type": "0x0800"`, `"ether_type": "`+v+`"`, 1)
	}
	for name, tc := range map[string]struct{ doc, want string }{
		"redundency": {strings.Replace(literalGraphJSON, `"name": "firewall",`,
			`"name": "firewall", "redundency": "active-standby",`, 1), `unknown field "redundency"`},
		"anti-affinity": {strings.Replace(literalGraphJSON, `"name": "firewall",`,
			`"name": "firewall", "anti-affinity": "g",`, 1), `unknown field "anti-affinity"`},
		"big_switch": {strings.Replace(literalGraphJSON, `"id": "g7",`, `"id": "g7", "big_switch": {},`, 1), `unknown field "big_switch"`},
		"dst_port":   {strings.Replace(literalGraphJSON, `"dest_port": 80`, `"dst_port": 80`, 1), `unknown field "dst_port"`},
		// encoding/json itself rejects a second value; the decoder must too
		// when it is handed the graph's bytes directly.
		"trailing":                {literalGraphJSON + `{}`, "trailing data"},
		"ether_type, five digits": {etherType("0x08001"), `rule "r1": bad ether_type "0x08001"`},
		"ether_type, three":       {etherType("0x800"), `rule "r1": bad ether_type "0x800"`},
		"ether_type, 0X":          {etherType("0X0800"), `rule "r1": bad ether_type "0X0800"`},
		"ether_type, sign":        {etherType("0x+800"), `rule "r1": bad ether_type "0x+800"`},
		"ether_type, not hex":     {etherType("0x08g0"), `rule "r1": bad ether_type "0x08g0"`},
		"ether_type, decimal":     {etherType("2048"), `rule "r1": bad ether_type "2048"`},
		"two action keys": {strings.Replace(literalGraphJSON, `{"push_vlan": 42}`,
			`{"output_to_port": "endpoint:out", "push_vlan": 42}`, 1), `rule "r2" action 0: sets more than one action`},
		// Stricter than encoding/json, which matched keys case-insensitively
		// and kept the last of a repeated one.
		"case-folded key": {strings.Replace(literalGraphJSON, `"id": "g7",`, `"ID": "g7",`, 1), `unknown field "ID"`},
		"repeated key":    {strings.Replace(literalGraphJSON, `"id": "g7",`, `"id": "g7", "id": "g8",`, 1), `repeated field "id"`},
		"repeated configuration key": {strings.Replace(literalGraphJSON, `"name": "firewall",`,
			`"name": "firewall", "configuration": {"default": "accept", "default": "drop"},`, 1), `repeated configuration key "default"`},
	} {
		var g Graph
		if err := g.UnmarshalJSON([]byte(tc.doc)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want a rejection containing %q", name, err, tc.want)
		}
	}
}

// TestJSONFaultsMatchOracle: a document with one schema fault is refused
// with the message the reflective decoder gave it, and every document that
// decoder refuses is refused.
func TestJSONFaultsMatchOracle(t *testing.T) {
	for name, doc := range map[string]string{
		"no vlan section":      `{"forwarding-graph": {"id": "x", "end-points": [{"id": "e", "type": "vlan", "interface": {"if-name": "eth0"}}]}}`,
		"no interface section": `{"forwarding-graph": {"id": "x", "end-points": [{"type": "interface", "id": "e", "interface": null}]}}`,
		"no internal section":  `{"forwarding-graph": {"id": "x", "end-points": [{"id": "e", "type": "internal"}]}}`,
		"unknown endpoint":     `{"forwarding-graph": {"id": "x", "end-points": [{"id": "e", "type": "bogus"}]}}`,
		"null endpoint":        `{"forwarding-graph": {"id": "x", "end-points": [null]}}`,
		"endpoint before rule": `{"forwarding-graph": {"id": "x", "big-switch": {"flow-rules": [{"id": "r"}]}, "end-points": [{"id": "e"}]}}`,
		"bad port_in":          `{"forwarding-graph": {"id": "x", "big-switch": {"flow-rules": [{"match": {"port_in": "vnf:a"}, "id": "r"}]}}}`,
		"missing port_in":      `{"forwarding-graph": {"id": "x", "big-switch": {"flow-rules": [{"id": "r", "match": null}]}}}`,
		"ether_type":           `{"forwarding-graph": {"id": "x", "big-switch": {"flow-rules": [{"id": "r", "match": {"port_in": "endpoint:a", "ether_type": "0x8"}}]}}}`,
		"empty action":         `{"forwarding-graph": {"id": "x", "big-switch": {"flow-rules": [{"actions": [{"pop_vlan": true}, {"push_vlan": 0}], "id": "r", "match": {"port_in": "endpoint:a"}}]}}}`,
		"bad output":           `{"forwarding-graph": {"id": "x", "big-switch": {"flow-rules": [{"id": "r", "match": {"port_in": "endpoint:a"}, "actions": [{"output_to_port": "x"}]}]}}}`,
		"second rule":          `{"forwarding-graph": {"id": "x", "big-switch": {"flow-rules": [{"id": "r", "match": {"port_in": "endpoint:a"}}, {"id": "s"}]}}}`,
		"unknown field":        `{"forwarding-graph": {"id": "x", "VNFs": [{"id": "f", "ports": [{"id": "0", "label": "p"}]}]}}`,
		"trailing data":        `{"forwarding-graph": {"id": "x"}} {}`,
		"syntax before fault":  `{"forwarding-graph": {"id": "x", "end-points": [{"id": "e"}], "name": }}`,
	} {
		var g Graph
		err := g.UnmarshalJSON([]byte(doc))
		_, want := oracleDecode([]byte(doc))
		if err == nil || want == nil {
			t.Errorf("%s: err %v, reflective decoder %v; want both to refuse", name, err, want)
		} else if name != "syntax before fault" && err.Error() != want.Error() {
			t.Errorf("%s: err %q, reflective decoder %q", name, err, want)
		}
	}
}

func TestPortRefParse(t *testing.T) {
	cases := []struct {
		in   string
		want PortRef
		ok   bool
	}{
		{"vnf:nf1:0", PortRef{NF: "nf1", Port: "0"}, true},
		{"vnf:nf:with:colons:p9", PortRef{NF: "nf:with:colons", Port: "p9"}, true},
		{"endpoint:ep1", PortRef{Endpoint: "ep1"}, true},
		{"vnf:", PortRef{}, false},
		{"vnf:x", PortRef{}, false},
		{"vnf:x:", PortRef{}, false},
		{"endpoint:", PortRef{}, false},
		{"garbage", PortRef{}, false},
	}
	for _, c := range cases {
		got, err := ParsePortRef(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParsePortRef(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParsePortRef(%q) = %+v, want %+v", c.in, got, c.want)
		}
		if c.ok {
			back, err := ParsePortRef(got.String())
			if err != nil || back != got {
				t.Errorf("String round trip broken for %q", c.in)
			}
		}
	}
}

func TestValidateRejections(t *testing.T) {
	break_ := func(f func(*Graph)) *Graph {
		g := sampleGraph()
		f(g)
		return g
	}
	cases := map[string]*Graph{
		"empty graph id":     break_(func(g *Graph) { g.ID = "" }),
		"duplicate NF":       break_(func(g *Graph) { g.NFs = append(g.NFs, g.NFs[0]) }),
		"NF without name":    break_(func(g *Graph) { g.NFs[0].Name = "" }),
		"NF without ports":   break_(func(g *Graph) { g.NFs[0].Ports = nil }),
		"dup NF port":        break_(func(g *Graph) { g.NFs[0].Ports = append(g.NFs[0].Ports, g.NFs[0].Ports[0]) }),
		"bad technology":     break_(func(g *Graph) { g.NFs[0].TechnologyPreference = "mainframe" }),
		"dup endpoint":       break_(func(g *Graph) { g.Endpoints = append(g.Endpoints, g.Endpoints[0]) }),
		"vlan ep no id":      break_(func(g *Graph) { g.Endpoints[1].VLANID = 0 }),
		"vlan ep big id":     break_(func(g *Graph) { g.Endpoints[1].VLANID = 4095 }),
		"iface ep no name":   break_(func(g *Graph) { g.Endpoints[0].Interface = "" }),
		"dup rule":           break_(func(g *Graph) { g.Rules = append(g.Rules, g.Rules[0]) }),
		"rule no port_in":    break_(func(g *Graph) { g.Rules[0].Match.PortIn = PortRef{} }),
		"rule bad nf ref":    break_(func(g *Graph) { g.Rules[0].Actions[0].Output = NFPortRef("ghost", "0") }),
		"rule bad port ref":  break_(func(g *Graph) { g.Rules[0].Actions[0].Output = NFPortRef("ipsec", "99") }),
		"rule bad ep ref":    break_(func(g *Graph) { g.Rules[0].Match.PortIn = EndpointRef("ghost") }),
		"rule no actions":    break_(func(g *Graph) { g.Rules[0].Actions = nil }),
		"rule no output":     break_(func(g *Graph) { g.Rules[0].Actions = []RuleAction{{Type: ActPopVLAN}} }),
		"rule bad cidr":      break_(func(g *Graph) { g.Rules[0].Match.IPSrc = "10.0.0.0" }),
		"rule bad cidr bits": break_(func(g *Graph) { g.Rules[0].Match.IPSrc = "10.0.0.0/40" }),
		"rule bad mac": break_(func(g *Graph) {
			g.Rules[0].Actions = append(g.Rules[0].Actions, RuleAction{Type: ActSetEthSrc, MAC: "xx"})
		}),
		"rule big priority": break_(func(g *Graph) { g.Rules[0].Priority = 70000 }),
		"push vlan 0":       break_(func(g *Graph) { g.Rules[0].Actions = append(g.Rules[0].Actions, RuleAction{Type: ActPushVLAN}) }),
	}
	for name, g := range cases {
		if err := g.Validate(); err == nil {
			t.Errorf("%s: validation passed, want error", name)
		}
	}
}

func TestValidateCollectsAllViolations(t *testing.T) {
	// Three independent defects; one pass must report every one of them.
	g := sampleGraph()
	g.NFs[0].Name = ""
	g.Rules[0].Match.PortIn = EndpointRef("ghost")
	g.Rules[1].Priority = 70000
	err := g.Validate()
	if err == nil {
		t.Fatal("validation passed")
	}
	vs := Violations(err)
	if len(vs) != 3 {
		t.Fatalf("Violations = %d (%q), want 3", len(vs), vs)
	}
	joined := strings.Join(vs, "\n")
	for _, want := range []string{"name", "ghost", "priority"} {
		if !strings.Contains(joined, want) {
			t.Errorf("violations %q miss %q", vs, want)
		}
	}
}

func TestDiff(t *testing.T) {
	old := sampleGraph()
	upd := sampleGraph()
	// Add an NF, change the ipsec config, drop a rule, add a rule,
	// modify a rule.
	upd.NFs = append(upd.NFs, NF{ID: "fw", Name: "firewall", Ports: []NFPort{{ID: "0"}}})
	upd.NFs[0].Config["remote"] = "198.51.100.1"
	upd.Rules = upd.Rules[:3]
	upd.Rules[2].Priority = 99
	upd.Rules = append(upd.Rules, FlowRule{
		ID: "r5", Priority: 1,
		Match:   RuleMatch{PortIn: EndpointRef("lan")},
		Actions: []RuleAction{{Type: ActOutput, Output: EndpointRef("wan")}},
	})
	d := Compute(old, upd)
	if len(d.AddedNFs) != 1 || d.AddedNFs[0].ID != "fw" {
		t.Errorf("AddedNFs = %+v", d.AddedNFs)
	}
	if len(d.ChangedNFs) != 1 || d.ChangedNFs[0].ID != "ipsec" {
		t.Errorf("ChangedNFs = %+v", d.ChangedNFs)
	}
	if len(d.RemovedNFs) != 0 {
		t.Errorf("RemovedNFs = %+v", d.RemovedNFs)
	}
	// r4 removed; r3 modified (removed+added); r5 added.
	if len(d.RemovedRules) != 2 {
		t.Errorf("RemovedRules = %+v", d.RemovedRules)
	}
	if len(d.AddedRules) != 2 {
		t.Errorf("AddedRules = %+v", d.AddedRules)
	}
	if !Compute(old, old).Empty() {
		t.Error("self-diff not empty")
	}
}

func TestDiffEndpoints(t *testing.T) {
	old := sampleGraph()
	upd := sampleGraph()
	upd.Endpoints[1].VLANID = 200 // changed -> remove+add
	upd.Endpoints = append(upd.Endpoints, Endpoint{ID: "x", Type: EPInternal, InternalGroup: "g"})
	d := Compute(old, upd)
	if len(d.AddedEPs) != 2 || len(d.RemovedEPs) != 1 {
		t.Errorf("EP diff = added %+v removed %+v", d.AddedEPs, d.RemovedEPs)
	}
}

func TestClone(t *testing.T) {
	g := sampleGraph()
	c := g.Clone()
	c.NFs[0].Config["remote"] = "changed"
	c.NFs[0].Ports[0].Name = "changed"
	c.Rules[0].Actions[0].Output = EndpointRef("wan")
	c.Endpoints[0].Interface = "changed"
	if g.NFs[0].Config["remote"] == "changed" ||
		g.NFs[0].Ports[0].Name == "changed" ||
		g.Rules[0].Actions[0].Output.Endpoint == "wan" ||
		g.Endpoints[0].Interface == "changed" {
		t.Error("Clone shares memory with original")
	}
	if d := Compute(g, g.Clone()); !d.Empty() {
		t.Errorf("clone differs: %+v", d)
	}
}

func TestTechnologyValid(t *testing.T) {
	for _, tech := range []Technology{TechAny, TechVM, TechDocker, TechDPDK, TechNative} {
		if !tech.Valid() {
			t.Errorf("%q should be valid", tech)
		}
	}
	if Technology("bare-metal").Valid() {
		t.Error("unknown technology accepted")
	}
}
