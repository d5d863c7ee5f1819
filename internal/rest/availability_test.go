package rest_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/global"
	"repro/internal/netdev"
	"repro/internal/pkt"
	"repro/internal/rest"
)

// haNATGraphJSON is natGraphJSON's availability-aware sibling: one NAT
// carrying a three-nines target backed by active-standby redundancy.
const haNATGraphJSON = `{
  "forwarding-graph": {
    "id": "g-ha",
    "VNFs": [
      {"id": "nat", "name": "nat",
       "ports": [{"id": "0"}, {"id": "1"}],
       "technology-preference": "docker",
       "availability": 0.999,
       "redundancy": "active-standby",
       "configuration": {"external_ip": "198.51.100.1"}}
    ],
    "end-points": [
      {"id": "lan", "type": "interface", "interface": {"if-name": "eth0"}},
      {"id": "wan", "type": "interface", "interface": {"if-name": "eth1"}}
    ],
    "big-switch": {"flow-rules": [
      {"id": "r1", "priority": 10, "match": {"port_in": "endpoint:lan"},
       "actions": [{"output_to_port": "vnf:nat:0"}]},
      {"id": "r2", "priority": 10, "match": {"port_in": "vnf:nat:1"},
       "actions": [{"output_to_port": "endpoint:wan"}]},
      {"id": "r3", "priority": 10, "match": {"port_in": "endpoint:wan"},
       "actions": [{"output_to_port": "vnf:nat:1"}]},
      {"id": "r4", "priority": 10, "match": {"port_in": "vnf:nat:0"},
       "actions": [{"output_to_port": "endpoint:lan"}]}
    ]}
  }
}`

func doDeleteBody(t *testing.T, url, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestStandbyStateAndRateOverREST: an active-standby NAT deployed over /v1
// surfaces its warm shadow in /v1/status, its live flow state through the
// state verbs, and the node's packet rate in rate-pps.
func TestStandbyStateAndRateOverREST(t *testing.T) {
	node, srv := newServer(t)
	resp := doPut(t, srv.URL+"/v1/graphs/g-ha", haNATGraphJSON)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// /v1/status flags the NAT as shadowed and always reports rate-pps.
	sresp, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if !strings.Contains(string(raw), `"rate-pps"`) {
		t.Error("status reply misses rate-pps")
	}
	var status rest.StatusReply
	if err := json.Unmarshal(raw, &status); err != nil {
		t.Fatal(err)
	}
	var natInst *rest.InstanceStatus
	for i := range status.NFInstances {
		if status.NFInstances[i].NF == "nat" {
			natInst = &status.NFInstances[i]
		}
	}
	if natInst == nil {
		t.Fatal("no nat instance in /v1/status")
	}
	if !natInst.Standby {
		t.Error("active-standby NAT not flagged as shadowed in /v1/status")
	}

	// Push one connection through the NAT so it holds real flow state.
	lan, _ := node.InterfacePort("eth0")
	wan, _ := node.InterfacePort("eth1")
	frame := pkt.MustBuildFrame(pkt.FrameSpec{
		SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: pkt.Addr{10, 0, 0, 1}, DstIP: pkt.Addr{203, 0, 113, 50},
		SrcPort: 30001, DstPort: 53, PayloadLen: 64,
	})
	if err := lan.Send(netdev.Frame{Data: frame}); err != nil {
		t.Fatal(err)
	}
	if _, ok := wan.TryRecv(); !ok {
		t.Fatal("NAT dropped the probe")
	}

	// GET exports the binding; PUT feeds it back (the verbs the global
	// tier's standby sync rides).
	gresp, err := http.Get(srv.URL + "/v1/graphs/g-ha/nfs/nat/state")
	if err != nil {
		t.Fatal(err)
	}
	exported, _ := io.ReadAll(gresp.Body)
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusOK {
		t.Fatalf("GET state status = %d", gresp.StatusCode)
	}
	var state rest.StateReply
	if err := json.Unmarshal(exported, &state); err != nil {
		t.Fatal(err)
	}
	if len(state.States) == 0 {
		t.Fatal("no flow state exported after live traffic")
	}
	presp := doPut(t, srv.URL+"/v1/graphs/g-ha/nfs/nat/state", string(exported))
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("PUT state status = %d", presp.StatusCode)
	}
	presp.Body.Close()

	// Unknown graphs answer 404, not empty state.
	nresp, err := http.Get(srv.URL + "/v1/graphs/ghost/nfs/nat/state")
	if err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound {
		t.Errorf("GET state of unknown graph status = %d, want 404", nresp.StatusCode)
	}
}

// TestAntiAffinityRejectedOverV1: a deploy whose anti-affinity group cannot
// spread across the registered fleet fails with the uniform 422 envelope,
// and the message names the constraint.
func TestAntiAffinityRejectedOverV1(t *testing.T) {
	_, srv1 := restNode(t, "n1", []string{"lan", "wan"}, 4000)
	gOrch := global.New(global.Config{ProbeInterval: 5 * time.Millisecond})
	gsrv := httptest.NewServer(rest.NewGlobal(gOrch, nil))
	t.Cleanup(gsrv.Close)

	resp := doPost(t, gsrv.URL+"/v1/nodes", fmt.Sprintf(`{"name": "n1", "url": %q}`, srv1.URL))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("node registration status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	spread := strings.ReplaceAll(twoNFGraphJSON,
		`"ports": [{"id": "0"}, {"id": "1"}]`,
		`"ports": [{"id": "0"}, {"id": "1"}], "anti_affinity": "blast-radius"`)
	dresp := doPut(t, gsrv.URL+"/v1/graphs/svc", spread)
	defer dresp.Body.Close()
	if dresp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("deploy status = %d, want 422", dresp.StatusCode)
	}
	var env rest.ErrorEnvelope
	if err := json.NewDecoder(dresp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "unprocessable" {
		t.Errorf("envelope code = %q", env.Error.Code)
	}
	if !strings.Contains(env.Error.Message, "anti-affinity") {
		t.Errorf("error does not name the constraint: %q", env.Error.Message)
	}
	if ids := gOrch.GraphIDs(); len(ids) != 0 {
		t.Errorf("rejected graph left residue: %v", ids)
	}
}

// TestRemoveLinkOverREST: DELETE /v1/links severs a declared link with the
// same body POST used to declare it; a second DELETE is a 404.
func TestRemoveLinkOverREST(t *testing.T) {
	_, srv1 := restNode(t, "n1", []string{"lan", "trunk"}, 4000)
	_, srv2 := restNode(t, "n2", []string{"trunk", "wan"}, 4000)
	gOrch := global.New(global.Config{ProbeInterval: 5 * time.Millisecond})
	gsrv := httptest.NewServer(rest.NewGlobal(gOrch, nil))
	t.Cleanup(gsrv.Close)

	for name, u := range map[string]string{"n1": srv1.URL, "n2": srv2.URL} {
		resp := doPost(t, gsrv.URL+"/v1/nodes", fmt.Sprintf(`{"name": %q, "url": %q}`, name, u))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("registering %s: status = %d", name, resp.StatusCode)
		}
		resp.Body.Close()
	}
	linkBody := `{"a-node": "n1", "a-if": "trunk", "b-node": "n2", "b-if": "trunk"}`
	resp := doPost(t, gsrv.URL+"/v1/links", linkBody)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("link status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	dresp := doDeleteBody(t, gsrv.URL+"/v1/links", linkBody)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE link status = %d", dresp.StatusCode)
	}
	dresp.Body.Close()
	if links := gOrch.Links(); len(links) != 0 {
		t.Fatalf("links after DELETE = %v", links)
	}
	// Severing it again (or any undeclared link) is a 404.
	dresp = doDeleteBody(t, gsrv.URL+"/v1/links", linkBody)
	if dresp.StatusCode != http.StatusNotFound {
		t.Errorf("second DELETE status = %d, want 404", dresp.StatusCode)
	}
	dresp.Body.Close()
}
