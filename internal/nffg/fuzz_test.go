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
	for _, g := range []*Graph{
		sampleGraph(),
		availGraph(0.999, RedundancyActiveStandby, 1, "cpe-ha"),
		availGraph(0.9999, RedundancyActiveActive, 3, "fw-spread"),
	} {
		data, err := json.Marshal(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(literalGraphJSON))
	f.Add([]byte(strings.Replace(literalGraphJSON, `"name": "firewall",`, `"name": "firewall", "redundency": "active-standby",`, 1)))
	f.Add([]byte(`{"forwarding-graph": {"id": "x", "end-points": [{"id": "e", "type": "vlan"}]}}`))
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
