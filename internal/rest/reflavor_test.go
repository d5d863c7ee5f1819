package rest_test

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/global"
	"repro/internal/nffg"
)

// TestHTTPNodeReflavor drives the hot-swap through the fleet-facing
// HTTPNode handle, i.e. the exact path the global orchestrator's pressure
// relief takes against a remote node.
func TestHTTPNodeReflavor(t *testing.T) {
	node, srv := restNode(t, "n1", []string{"lan", "wan"}, 8000)
	hn := global.NewHTTPNode("n1", srv.URL, nil)
	g := &nffg.Graph{
		ID: "svc",
		NFs: []nffg.NF{{ID: "fw", Name: "firewall",
			Ports: []nffg.NFPort{{ID: "0"}, {ID: "1"}}}},
		Endpoints: []nffg.Endpoint{
			{ID: "in", Type: nffg.EPInterface, Interface: "lan"},
			{ID: "out", Type: nffg.EPInterface, Interface: "wan"},
		},
		Rules: []nffg.FlowRule{
			{ID: "r1", Priority: 10, Match: nffg.RuleMatch{PortIn: nffg.EndpointRef("in")},
				Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.NFPortRef("fw", "0")}}},
			{ID: "r2", Priority: 10, Match: nffg.RuleMatch{PortIn: nffg.NFPortRef("fw", "1")},
				Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.EndpointRef("out")}}},
		},
	}
	if err := hn.Deploy(g); err != nil {
		t.Fatal(err)
	}
	if err := hn.Reflavor("svc", "fw", nffg.TechDocker); err != nil {
		t.Fatal(err)
	}
	if techs, _ := node.Placements("svc"); techs["fw"] != nffg.TechDocker {
		t.Fatalf("placement after HTTPNode reflavor: %v", techs)
	}
	st, err := hn.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.NFs) != 1 || st.NFs[0].Technology != "docker" || st.NFs[0].State != "running" {
		t.Fatalf("probe NF status %+v", st.NFs)
	}
	if err := hn.Reflavor("svc", "fw", "balloon"); err == nil {
		t.Error("HTTPNode reflavor to bad technology accepted")
	}
}

// TestReflavorEndpoint hot-swaps the deployed vpn NF over REST and checks
// the new technology and lifecycle state surface in /status.
func TestReflavorEndpoint(t *testing.T) {
	node, srv := newServer(t)
	if resp := doPut(t, srv.URL+"/v1/graphs/cpe-vpn", ipsecGraphJSON); resp.StatusCode != http.StatusCreated {
		t.Fatalf("deploy: HTTP %d", resp.StatusCode)
	}
	resp := doPost(t, srv.URL+"/v1/graphs/cpe-vpn/nfs/vpn/reflavor", `{"technology": "docker"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reflavor: HTTP %d", resp.StatusCode)
	}
	var reply map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if reply["technology"] != "docker" || reply["status"] != "reflavored" {
		t.Fatalf("reflavor reply %v", reply)
	}
	if techs, _ := node.Placements("cpe-vpn"); techs["vpn"] != "docker" {
		t.Fatalf("placement after REST reflavor: %v", techs)
	}

	// The per-NF technology and lifecycle state surface in /status.
	sresp, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var status struct {
		NFInstances []struct {
			NF         string `json:"nf"`
			Technology string `json:"technology"`
			State      string `json:"state"`
		} `json:"nf-instances"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if len(status.NFInstances) != 1 ||
		status.NFInstances[0].Technology != "docker" ||
		status.NFInstances[0].State != "running" {
		t.Fatalf("status NF instances %+v", status.NFInstances)
	}
}

// TestReflavorEndpointPolicyChoice: an empty technology asks the node's
// placement policy; with the current flavor still ranked best this is a
// no-op reported with the chosen technology.
func TestReflavorEndpointPolicyChoice(t *testing.T) {
	_, srv := newServer(t)
	if resp := doPut(t, srv.URL+"/v1/graphs/cpe-vpn", ipsecGraphJSON); resp.StatusCode != http.StatusCreated {
		t.Fatalf("deploy: HTTP %d", resp.StatusCode)
	}
	resp := doPost(t, srv.URL+"/v1/graphs/cpe-vpn/nfs/vpn/reflavor", `{"technology": ""}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("policy reflavor: HTTP %d", resp.StatusCode)
	}
	var reply map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// The graph pins native and pinned NFs are not the policy's to move.
	if reply["technology"] != "native" {
		t.Fatalf("policy chose %q, want native (pinned)", reply["technology"])
	}
}

func TestReflavorEndpointErrors(t *testing.T) {
	_, srv := newServer(t)
	if resp := doPost(t, srv.URL+"/v1/graphs/ghost/nfs/vpn/reflavor", `{"technology": "docker"}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown graph: HTTP %d, want 404", resp.StatusCode)
	}
	if resp := doPut(t, srv.URL+"/v1/graphs/cpe-vpn", ipsecGraphJSON); resp.StatusCode != http.StatusCreated {
		t.Fatalf("deploy: HTTP %d", resp.StatusCode)
	}
	if resp := doPost(t, srv.URL+"/v1/graphs/cpe-vpn/nfs/vpn/reflavor", `{not json`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: HTTP %d, want 400", resp.StatusCode)
	}
	if resp := doPost(t, srv.URL+"/v1/graphs/cpe-vpn/nfs/vpn/reflavor", `{"technology": "balloon"}`); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad technology: HTTP %d, want 422", resp.StatusCode)
	}
	if resp := doPost(t, srv.URL+"/v1/graphs/cpe-vpn/nfs/ghost/reflavor", `{"technology": "docker"}`); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unknown NF: HTTP %d, want 422", resp.StatusCode)
	}
}
