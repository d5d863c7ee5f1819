package rest_test

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/rest"
)

const natGraphJSON = `{
  "forwarding-graph": {
    "id": "g-nat",
    "VNFs": [
      {"id": "nat", "name": "nat",
       "ports": [{"id": "0"}, {"id": "1"}],
       "technology-preference": "docker",
       "replicas": 3,
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

// TestV1Routes: every read route of the node API answers under /v1, and
// the pre-versioning paths are gone.
func TestV1Routes(t *testing.T) {
	_, srv := newServer(t)
	resp := doPut(t, srv.URL+"/v1/graphs/cpe-vpn", ipsecGraphJSON)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("v1 PUT status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	status := func(path string) int {
		r, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		return r.StatusCode
	}
	for _, path := range []string{
		"/v1/graphs", "/v1/graphs/cpe-vpn", "/v1/graphs/cpe-vpn/stats",
		"/v1/status", "/v1/topology", "/v1/metrics", "/v1/events",
	} {
		if got := status(path); got != http.StatusOK {
			t.Errorf("GET %s status = %d", path, got)
		}
	}
	for _, path := range []string{"/NF-FG", "/NF-FG/cpe-vpn", "/status", "/topology", "/metrics", "/events"} {
		if got := status(path); got != http.StatusNotFound {
			t.Errorf("GET %s status = %d, want 404: the unversioned aliases were removed", path, got)
		}
	}
}

// TestErrorEnvelopeListsAllViolations: an invalid graph answers with the
// uniform envelope, and the detail array carries every violation the
// single-pass validator found, not just the first.
func TestErrorEnvelopeListsAllViolations(t *testing.T) {
	_, srv := newServer(t)
	bad := strings.Replace(ipsecGraphJSON, `"port_in": "endpoint:lan"`, `"port_in": "endpoint:ghost1"`, 1)
	bad = strings.Replace(bad, `"port_in": "endpoint:wan"`, `"port_in": "endpoint:ghost2"`, 1)
	resp := doPut(t, srv.URL+"/v1/graphs/cpe-vpn", bad)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var env rest.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "unprocessable" || env.Error.Message == "" {
		t.Fatalf("envelope = %+v", env)
	}
	if len(env.Error.Detail) < 2 {
		t.Fatalf("detail = %v, want both violations", env.Error.Detail)
	}
	joined := strings.Join(env.Error.Detail, "\n")
	if !strings.Contains(joined, "ghost1") || !strings.Contains(joined, "ghost2") {
		t.Errorf("detail misses a violation: %v", env.Error.Detail)
	}
}

// TestDryRunDeploy: ?dry-run=true validates, schedules and admission-checks
// with replica demand but deploys nothing.
func TestDryRunDeploy(t *testing.T) {
	node, srv := newServer(t)
	resp := doPut(t, srv.URL+"/v1/graphs/g-nat?dry-run=true", natGraphJSON)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dry-run status = %d", resp.StatusCode)
	}
	var reply rest.DryRunReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if !reply.DryRun || reply.Plan == nil {
		t.Fatalf("reply = %+v", reply)
	}
	if reply.Plan.Exists {
		t.Error("plan claims the graph exists")
	}
	if len(reply.Plan.NFs) != 1 {
		t.Fatalf("plan NFs = %+v", reply.Plan.NFs)
	}
	nf := reply.Plan.NFs[0]
	if nf.NF != "nat" || nf.Technology != "docker" || nf.Replicas != 3 {
		t.Errorf("nf plan = %+v", nf)
	}
	// Replica demand is the whole replica set's, not one instance's.
	if nf.CPUMillis%3 != 0 || nf.CPUMillis == 0 {
		t.Errorf("cpu demand = %d, want a 3-replica multiple", nf.CPUMillis)
	}
	if reply.Plan.NewCPUMillis != nf.CPUMillis {
		t.Errorf("new demand = %d, want %d", reply.Plan.NewCPUMillis, nf.CPUMillis)
	}
	if !reply.Plan.Fits {
		t.Error("plan reports the graph does not fit an idle node")
	}
	if len(node.GraphIDs()) != 0 {
		t.Fatal("dry-run mutated the node")
	}

	// Deploy for real, then a second dry-run reports an update with no
	// additional demand.
	resp2 := doPut(t, srv.URL+"/v1/graphs/g-nat", natGraphJSON)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusCreated {
		t.Fatalf("real PUT status = %d", resp2.StatusCode)
	}
	resp3 := doPut(t, srv.URL+"/v1/graphs/g-nat?dry-run=true", natGraphJSON)
	defer resp3.Body.Close()
	var again rest.DryRunReply
	_ = json.NewDecoder(resp3.Body).Decode(&again)
	if !again.Plan.Exists {
		t.Error("second dry-run misses the deployed graph")
	}
	if again.Plan.NewCPUMillis != 0 {
		t.Errorf("update demand = %d, want 0 (replicas unchanged)", again.Plan.NewCPUMillis)
	}
}

// TestScaleOverREST drives the replica set through the new scale resource
// and reads the count back from /v1/status.
func TestScaleOverREST(t *testing.T) {
	node, srv := newServer(t)
	resp := doPut(t, srv.URL+"/v1/graphs/g-nat", natGraphJSON)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT status = %d", resp.StatusCode)
	}
	if n, _ := node.Replicas("g-nat", "nat"); n != 3 {
		t.Fatalf("deployed replicas = %d, want 3", n)
	}

	r, err := http.Post(srv.URL+"/v1/graphs/g-nat/nfs/nat/scale", "application/json",
		strings.NewReader(`{"replicas": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("scale status = %d", r.StatusCode)
	}
	var body map[string]any
	_ = json.NewDecoder(r.Body).Decode(&body)
	if body["status"] != "scaled" || body["replicas"] != float64(2) {
		t.Errorf("scale body = %v", body)
	}
	if n, _ := node.Replicas("g-nat", "nat"); n != 2 {
		t.Fatalf("replicas = %d, want 2", n)
	}

	stResp, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer stResp.Body.Close()
	var st rest.StatusReply
	if err := json.NewDecoder(stResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.NFInstances) != 1 || st.NFInstances[0].Replicas != 2 {
		t.Errorf("status instances = %+v", st.NFInstances)
	}

	// Invalid counts answer with the envelope.
	bad, err := http.Post(srv.URL+"/v1/graphs/g-nat/nfs/nat/scale", "application/json",
		strings.NewReader(`{"replicas": 0}`))
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Body.Close()
	if bad.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("scale-to-0 status = %d", bad.StatusCode)
	}
	var env rest.ErrorEnvelope
	_ = json.NewDecoder(bad.Body).Decode(&env)
	if env.Error.Code != "unprocessable" || env.Error.Message == "" {
		t.Errorf("scale error envelope = %+v", env)
	}

	// Unknown graph.
	ghost, err := http.Post(srv.URL+"/v1/graphs/ghost/nfs/nat/scale", "application/json",
		strings.NewReader(`{"replicas": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	ghost.Body.Close()
	if ghost.StatusCode != http.StatusNotFound {
		t.Errorf("ghost scale status = %d", ghost.StatusCode)
	}
}
