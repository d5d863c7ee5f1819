package global

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/nffg"
)

// testDeployment builds a deployment with every piece of bookkeeping the
// intent record must carry: a multi-node partition, stitches with
// allocated VLANs, placement and an armed standby.
func testDeployment() *deployment {
	g := &nffg.Graph{
		ID:   "g1",
		Name: "chain",
		NFs: []nffg.NF{
			{ID: "nf0", Name: "firewall", Ports: []nffg.NFPort{{ID: "0"}, {ID: "1"}}, Replicas: 2},
			{ID: "nf1", Name: "monitor", Ports: []nffg.NFPort{{ID: "0"}, {ID: "1"}}},
		},
		Endpoints: []nffg.Endpoint{
			{ID: "lan", Type: nffg.EPInterface, Interface: "eth0"},
			{ID: "wan", Type: nffg.EPInterface, Interface: "eth1"},
		},
	}
	link := Link{A: "n1", AIf: "eth1", B: "n2", BIf: "eth0"}
	return &deployment{
		Desired: g,
		Subs: map[string]*nffg.Graph{
			"n1": {ID: "g1", NFs: []nffg.NF{g.NFs[0]}},
			"n2": {ID: "g1", NFs: []nffg.NF{g.NFs[1]}},
		},
		Stitches: []stitch{{
			EP:   "x-g1-0",
			Src:  "n1",
			Dst:  "n2",
			Path: []string{"n1", "n2"},
			Hops: []stitchHop{{Link: link, VLAN: 3000}},
		}},
		Placement: Placement{
			NFNode: map[string]string{"nf0": "n1", "nf1": "n2"},
			EPNode: map[string]string{"lan": "n1", "wan": "n2"},
		},
		StandbyNode: "n3",
	}
}

// recordAtPR16 is what the record mirror of PR 16 marshalled
// testDeployment to. The deployment is its own record now and must still
// produce exactly these bytes, so replicas on either side of the change
// replay each other's log.
const recordAtPR16 = `{"desired":{"forwarding-graph":{"id":"g1","name":"chain","VNFs":[{"id":"nf0","name":"firewall","ports":[{"id":"0"},{"id":"1"}],"replicas":2},{"id":"nf1","name":"monitor","ports":[{"id":"0"},{"id":"1"}]}],"end-points":[{"id":"lan","type":"interface","interface":{"if-name":"eth0"}},{"id":"wan","type":"interface","interface":{"if-name":"eth1"}}]}},"subs":{"n1":{"forwarding-graph":{"id":"g1","VNFs":[{"id":"nf0","name":"firewall","ports":[{"id":"0"},{"id":"1"}],"replicas":2}]}},"n2":{"forwarding-graph":{"id":"g1","VNFs":[{"id":"nf1","name":"monitor","ports":[{"id":"0"},{"id":"1"}]}]}}},"stitches":[{"ep":"x-g1-0","src":"n1","dst":"n2","path":["n1","n2"],"hops":[{"link":{"a-node":"n1","a-if":"eth1","b-node":"n2","b-if":"eth0"},"vlan":3000}]}],"placement":{"NFNode":{"nf0":"n1","nf1":"n2"},"EPNode":{"lan":"n1","wan":"n2"}},"standby-node":"n3"}`

// The promotion replay must be byte-faithful: marshal -> restore ->
// re-marshal yields identical bytes, so a promoted leader's desired state
// is provably the old leader's.
func TestDeploymentRecordRoundTripByteIdentical(t *testing.T) {
	b1, err := json.Marshal(testDeployment())
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != recordAtPR16 {
		t.Fatalf("record bytes changed:\n  was %s\n  now %s", recordAtPR16, b1)
	}
	restored := new(deployment)
	if err := json.Unmarshal(b1, restored); err != nil {
		t.Fatal(err)
	}
	alloc := newVLANAlloc()
	reserveStitchVLANs(alloc, restored.Stitches)
	b2, err := json.Marshal(restored)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("replayed record differs:\n  old %s\n  new %s", b1, b2)
	}
	if restored.StandbyNode != "n3" {
		t.Fatalf("standby lost: %q", restored.StandbyNode)
	}
	if n := restored.Desired.FindNF("nf0"); n == nil || n.Replicas != 2 {
		t.Fatalf("replica count lost: %+v", n)
	}
	// The stitch VLAN must be reserved so post-promotion deploys cannot
	// collide with a live stitch.
	link := Link{A: "n1", AIf: "eth1", B: "n2", BIf: "eth0"}
	if !alloc.inUse[link.key()][3000] {
		t.Fatal("stitch VLAN 3000 not reserved on restore")
	}
	if v, err := alloc.alloc(link); err != nil {
		t.Fatal(err)
	} else if v == 3000 {
		t.Fatal("allocator handed out a reserved VLAN")
	}
}

// A second marshal of the same live deployment must also be stable: equal
// state is equal bytes on every replica.
func TestDeploymentRecordMarshalStable(t *testing.T) {
	dep := testDeployment()
	b1, err := json.Marshal(dep)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(dep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("the deployment record is not deterministic")
	}
}
