package global

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/jsonw"
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
// replay and the follower run on every graph record. Nothing may panic.
// Whatever decodeRecord accepts, json.Unmarshal accepts too, to an equal
// deployment once decodeRecord's nil Subs is made empty; decodeRecord may
// refuse more (a case-folded, repeated or unknown key, a null subgraph). A
// record that decodes must re-encode through encodeRecord to exactly what
// json.Marshal writes for it. Seeds run under plain `go test`; `make fuzz`
// fuzzes for real.
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
	f.Add([]byte(strings.Replace(recordAtPR16, `"desired"`, `"Desired"`, 1)))
	f.Add([]byte(strings.Replace(recordAtPR16, `"standby-node":"n3"`, `"standby-node":"n3","standby-node":"n4"`, 1)))
	f.Add([]byte(strings.Replace(recordAtPR16, `"standby-node"`, `"standby"`, 1)))
	f.Add([]byte(strings.Replace(recordAtPR16, `"subs":{"n1":`, `"subs":{"n0":null,"n1":`, 1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		dep, err := decodeRecord("g", data)
		if err != nil {
			return
		}
		var oracle deployment
		if err := json.Unmarshal(data, &oracle); err != nil {
			t.Fatalf("decodeRecord accepts what encoding/json refuses (%v): %q", err, data)
		}
		if oracle.Subs == nil {
			oracle.Subs = map[string]*nffg.Graph{}
		}
		if !reflect.DeepEqual(dep, &oracle) {
			t.Fatalf("%q decodes to\n%+v\nencoding/json\n%+v", data, dep, oracle)
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

// TestRecordDecodeIsStrict: a record is read strictly, as the NF-FG is
// since it left encoding/json: a key in another case, a repeated or an
// unknown key, and a null subgraph are each refused, where json.Unmarshal
// took the first three and a promoted replica then panicked on the last.
// The record they are cut from decodes.
func TestRecordDecodeIsStrict(t *testing.T) {
	if _, err := decodeRecord("g1", []byte(recordAtPR16)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ old, new, want string }{
		{`"desired"`, `"Desired"`, `unknown field "Desired"`},
		{`"standby-node":"n3"`, `"standby-node":"n3","standby-node":"n4"`, `repeated field "standby-node"`},
		{`"standby-node"`, `"standby"`, `unknown field "standby"`},
		{`"subs":{"n1":`, `"subs":{"n0":null,"n1":`, `graph record "g1" has a null subgraph for node "n0"`},
	} {
		doc := strings.Replace(recordAtPR16, tc.old, tc.new, 1)
		if _, err := decodeRecord("g1", []byte(doc)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want one containing %q", tc.new, err, tc.want)
		}
	}
}

// TestNullSubgraphRecordIsNotAdopted: a replicated graph record whose
// subgraph is null is input from a peer, not a deployment. Neither the
// promotion replay nor a follower's refresh adopts it: the replay returns
// the error, the refresh logs it, and the graph is not there to scale.
func TestNullSubgraphRecordIsNotAdopted(t *testing.T) {
	dep := testDeployment()
	dep.Subs["n1"] = nil
	data, err := encodeRecord(dep)
	if err != nil {
		t.Fatal(err)
	}
	store := cluster.NewIntentStore()
	store.Apply(cluster.Op{Seq: 1, Term: 1, Kind: cluster.OpDeploy, Key: "g1", Data: data})
	const want = `null subgraph for node "n1"`

	promoted := New(Config{Logf: t.Logf})
	if err := promoted.RestoreIntent(store); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("RestoreIntent: %v, want an error containing %q", err, want)
	}
	if _, ok := promoted.Graph("g1"); ok {
		t.Error("the promotion replay adopted the graph")
	}
	if err := promoted.Scale("g1", "nf0", 2); err == nil {
		t.Error("Scale of the refused graph succeeded")
	}

	var logged []string
	follower := New(Config{Logf: func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }})
	follower.SetLeaderGate(func() bool { return false })
	follower.SetIntentSource(store)
	follower.ReconcileOnce()
	if !strings.Contains(strings.Join(logged, "\n"), want) {
		t.Errorf("the follower's refresh logged %q, want an error containing %q", logged, want)
	}
	if _, ok := follower.Graph("g1"); ok {
		t.Error("the follower's refresh adopted the graph")
	}
}

// TestLinkRecordMatchesEncodingJSON: a replicated link record is written by
// linkSchema byte for byte as encoding/json writes a Link (whose tags the
// REST listing still uses), reads back equal, and is read strictly.
func TestLinkRecordMatchesEncodingJSON(t *testing.T) {
	for _, l := range []Link{
		{A: "n1", AIf: "trunk", B: "n2", BIf: "trunk"},
		{A: "edge-α", AIf: "eth<0>", B: `"quoted"`, BIf: ""},
		{},
	} {
		got, err := jsonw.Encode(linkSchema, &l)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("linkSchema writes %s, encoding/json %s", got, want)
		}
		if back, err := decodeLink("k", got); err != nil || back != l {
			t.Errorf("%s reads back as %+v, %v", got, back, err)
		}
	}
	for _, tc := range []struct{ doc, want string }{
		{`{"a-node":"n1","a-if":"x","b-node":"n2","b-if":"y","mtu":1500}`, `unknown field "mtu"`},
		{`{"a-node":"n1","a-node":"n3","a-if":"x","b-node":"n2","b-if":"y"}`, `repeated field "a-node"`},
	} {
		if _, err := decodeLink("k", []byte(tc.doc)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want one containing %q", tc.doc, err, tc.want)
		}
	}
}
