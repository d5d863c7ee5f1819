package global

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/nffg"
)

// chainRecord is the deployment deploy-churn records: a six-NF chain, the
// first NF configured, placed two NFs a node on a line of three nodes and
// split there, with the two stitches the split allocates.
func chainRecord(tb testing.TB) *deployment {
	tb.Helper()
	templates := []string{"firewall", "monitor", "bridge"}
	g := &nffg.Graph{ID: "svc", Endpoints: []nffg.Endpoint{
		{ID: "lan", Type: nffg.EPInterface, Interface: "lan"},
		{ID: "wan", Type: nffg.EPInterface, Interface: "wan"},
	}}
	pl := Placement{NFNode: map[string]string{}, EPNode: map[string]string{"lan": "n1", "wan": "n3"}}
	prev := nffg.EndpointRef("lan")
	for i := 0; i <= 6; i++ {
		out := nffg.EndpointRef("wan")
		if i < 6 {
			id := fmt.Sprintf("nf%d", i)
			g.NFs = append(g.NFs, nffg.NF{ID: id, Name: templates[i%len(templates)], Ports: []nffg.NFPort{{ID: "0"}, {ID: "1"}}})
			pl.NFNode[id] = fmt.Sprintf("n%d", i/2+1)
			out = nffg.NFPortRef(id, "0")
		}
		g.Rules = append(g.Rules, nffg.FlowRule{
			ID: fmt.Sprintf("r%d", i), Priority: 10,
			Match:   nffg.RuleMatch{PortIn: prev},
			Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: out}},
		})
		prev = nffg.NFPortRef(fmt.Sprintf("nf%d", i), "1")
	}
	g.NFs[0].Config = map[string]string{"rules": "drop proto=tcp dport=82", "default": "accept"}
	links := []Link{{A: "n1", AIf: "x12", B: "n2", BIf: "x12"}, {A: "n2", AIf: "x23", B: "n3", BIf: "x23"}}
	subs, stitches, err := splitGraph(g, pl, links, newVLANAlloc(), nil)
	if err != nil {
		tb.Fatal(err)
	}
	if len(subs) != 3 || len(stitches) != 2 {
		tb.Fatalf("split into %d subgraphs and %d stitches, want 3 and 2", len(subs), len(stitches))
	}
	return &deployment{Desired: g, Subs: subs, Stitches: stitches, Placement: pl}
}

// TestRecordEncodeMatchesMarshal holds encodeRecord to json.Marshal of the
// deployment, field order, omitempty and map order included, on records
// the fuzz target's decoder never yields: nil maps, empty and pathless
// stitches, a nil desired graph and nil subgraphs, and strings in every
// escape class. Each record is exactly as long as its capacity.
func TestRecordEncodeMatchesMarshal(t *testing.T) {
	odd := "<n&1>\"\\ \xff"
	for name, dep := range map[string]*deployment{
		"pinned":      testDeployment(),
		"chain split": chainRecord(t),
		"zero":        {},
		"nil graphs":  {Subs: map[string]*nffg.Graph{"n2": nil, "n1": {ID: "x"}}},
		"empty maps":  {Desired: &nffg.Graph{ID: "g"}, Subs: map[string]*nffg.Graph{}, Placement: Placement{NFNode: map[string]string{}}},
		"escapes": {Desired: &nffg.Graph{ID: odd}, Subs: map[string]*nffg.Graph{odd: {ID: odd}, "": {}},
			Stitches:  []stitch{{EP: odd, Src: odd, Dst: odd, Path: []string{odd, ""}, Hops: []stitchHop{{Link: Link{A: odd, AIf: odd, B: odd, BIf: odd}, VLAN: 4095}, {}}}, {}},
			Placement: Placement{NFNode: map[string]string{odd: odd}, EPNode: map[string]string{"b": "", "a": odd}}, StandbyNode: odd},
	} {
		got, err := encodeRecord(dep)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := json.Marshal(dep)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) || len(got) != cap(got) {
			t.Errorf("%s: encodeRecord (len %d, cap %d)\n got %s\nwant %s", name, len(got), cap(got), got, want)
		}
	}
	bad := chainRecord(t)
	bad.Subs["n2"].Rules[0].Actions[0].Type = "goto_table"
	if data, err := encodeRecord(bad); err == nil {
		t.Errorf("a record with an unencodable action encoded to %s", data)
	}
}

// FuzzDeploymentRecord feeds arbitrary bytes to the decode the promotion
// replay runs on every graph record. Nothing may panic, and a record that
// decodes must re-encode through encodeRecord to exactly what json.Marshal
// writes for it. Seeds run under plain `go test`; `make fuzz` fuzzes for
// real.
func FuzzDeploymentRecord(f *testing.F) {
	for _, dep := range []*deployment{testDeployment(), chainRecord(f)} {
		data, err := json.Marshal(dep)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(recordAtPR16))
	f.Add([]byte(`{"desired":{"forwarding-graph":{"id":"g"}},"subs":null,"placement":{"NFNode":null,"EPNode":{}}}`))
	f.Add([]byte(`{"desired":{"forwarding-graph":{"id":"< >"}},"subs":{"n1":null},"stitches":[{"ep":"","src":"","dst":"","hops":[{"link":{"a-node":"a","a-if":"","b-node":"b","b-if":""},"vlan":7}]}],"standby-node":"é"}`))
	f.Add([]byte(`{"desired":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dep, err := decodeRecord("g", data)
		if err != nil {
			return
		}
		got, err := encodeRecord(dep)
		want, wantErr := json.Marshal(dep)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("encodeRecord err %v, json.Marshal err %v", err, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encodeRecord differs from json.Marshal:\n got %s\nwant %s", got, want)
		}
	})
}
