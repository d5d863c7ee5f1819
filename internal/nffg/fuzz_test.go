package nffg

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzGraphJSON feeds arbitrary bytes to the strict NF-FG decoder, the one
// every REST tier and the deployment record go through. Decoding and
// Validate must never panic, and a document that decodes must re-encode
// through MarshalJSON to bytes that decode to an equal graph. Seeds are the
// package's test graphs, plus the misspellings strict decoding rejects.
// Seeds run under plain `go test`; `make fuzz` fuzzes for real.
func FuzzGraphJSON(f *testing.F) {
	for _, seed := range graphJSONSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var g Graph
		if err := g.UnmarshalJSON(data); err != nil {
			return
		}
		_ = g.Validate()
		enc, err := g.MarshalJSON()
		if err != nil {
			t.Fatalf("decoded graph does not re-encode: %v\n%+v", err, g)
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
		[]byte(`{"forwarding-graph": {"id": "x", "end-points": [{"id": "e", "type": "vlan"}]}}`))
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
