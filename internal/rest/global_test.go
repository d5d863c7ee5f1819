package rest_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	un "repro"
	"repro/internal/global"
	"repro/internal/netdev"
	"repro/internal/pkt"
	"repro/internal/rest"
)

// restNode spins up one complete Universal Node behind its REST interface.
func restNode(t *testing.T, name string, ifaces []string, cpuMillis int) (*un.Node, *httptest.Server) {
	t.Helper()
	node, err := un.NewNode(un.Config{
		Name:       name,
		Interfaces: ifaces,
		CPUMillis:  cpuMillis,
		RAMBytes:   1 << 30,
		Capabilities: []string{
			"docker", "nnf:firewall", "nnf:monitor", "nnf:bridge",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(node.Handler())
	t.Cleanup(func() {
		srv.Close()
		node.Close()
	})
	return node, srv
}

func doPost(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

const twoNFGraphJSON = `{
  "forwarding-graph": {
    "id": "svc",
    "VNFs": [
      {"id": "fw", "name": "firewall", "ports": [{"id": "0"}, {"id": "1"}]},
      {"id": "mon", "name": "monitor", "ports": [{"id": "0"}, {"id": "1"}]}
    ],
    "end-points": [
      {"id": "lan", "type": "interface", "interface": {"if-name": "lan"}},
      {"id": "wan", "type": "interface", "interface": {"if-name": "wan"}}
    ],
    "big-switch": {"flow-rules": [
      {"id": "r1", "priority": 10, "match": {"port_in": "endpoint:lan"},
       "actions": [{"output_to_port": "vnf:fw:0"}]},
      {"id": "r2", "priority": 10, "match": {"port_in": "vnf:fw:1"},
       "actions": [{"output_to_port": "vnf:mon:0"}]},
      {"id": "r3", "priority": 10, "match": {"port_in": "vnf:mon:1"},
       "actions": [{"output_to_port": "endpoint:wan"}]}
    ]}
  }
}`

// TestGlobalServerFleetOverREST runs the whole two-tier stack over HTTP:
// two compute nodes behind their REST servers, registered into a global
// server, a graph split across them, and traffic over the patched link.
func TestGlobalServerFleetOverREST(t *testing.T) {
	// n1 owns lan but has almost no compute; n2 has the compute.
	n1, srv1 := restNode(t, "n1", []string{"lan", "trunk"}, 10)
	n2, srv2 := restNode(t, "n2", []string{"trunk", "wan"}, 4000)
	p1, _ := n1.InterfacePort("trunk")
	p2, _ := n2.InterfacePort("trunk")
	t.Cleanup(global.Patch(p1, p2))

	gOrch := global.New(global.Config{ProbeInterval: 5 * time.Millisecond})
	gsrv := httptest.NewServer(rest.NewGlobal(gOrch, nil))
	t.Cleanup(gsrv.Close)

	// Register both nodes and the trunk link.
	for _, reg := range []string{
		fmt.Sprintf(`{"name": "n1", "url": %q}`, srv1.URL),
		fmt.Sprintf(`{"name": "n2", "url": %q}`, srv2.URL),
	} {
		resp := doPost(t, gsrv.URL+"/v1/nodes", reg)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("node registration status = %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp := doPost(t, gsrv.URL+"/v1/links",
		`{"a-node": "n1", "a-if": "trunk", "b-node": "n2", "b-if": "trunk"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("link status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// The fleet view reflects both nodes with their interfaces.
	var fleet struct {
		Nodes []global.NodeInfo `json:"nodes"`
	}
	nresp, err := http.Get(gsrv.URL + "/v1/nodes")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(nresp.Body).Decode(&fleet); err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if len(fleet.Nodes) != 2 || !fleet.Nodes[0].Alive || !fleet.Nodes[1].Alive {
		t.Fatalf("fleet = %+v, want 2 alive nodes", fleet.Nodes)
	}

	// Deploy a graph whose NFs cannot fit on the endpoint-owning node.
	resp = doPut(t, gsrv.URL+"/v1/graphs/svc", twoNFGraphJSON)
	if resp.StatusCode != http.StatusCreated {
		body := new(bytes.Buffer)
		_, _ = body.ReadFrom(resp.Body)
		t.Fatalf("global deploy status = %d: %s", resp.StatusCode, body)
	}
	resp.Body.Close()

	// Placement: both NFs on n2, both user endpoints on their owners.
	var pl rest.PlacementReply
	presp, err := http.Get(gsrv.URL + "/v1/graphs/svc/placement")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(presp.Body).Decode(&pl); err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if pl.NFs["fw"] != "n2" || pl.NFs["mon"] != "n2" {
		t.Errorf("NF placement = %v, want both on n2", pl.NFs)
	}
	if pl.Endpoints["lan"] != "n1" || pl.Endpoints["wan"] != "n2" {
		t.Errorf("endpoint placement = %v", pl.Endpoints)
	}
	// Both nodes hold a subgraph.
	for _, node := range []*un.Node{n1, n2} {
		if _, ok := node.Graph("svc"); !ok {
			t.Fatalf("node %v holds no svc subgraph", node.Topology().NodeName)
		}
	}

	// Traffic: in n1/lan, through the REST-stitched trunk, out n2/wan.
	frame := pkt.MustBuildFrame(pkt.FrameSpec{
		SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: pkt.Addr{10, 0, 0, 1}, DstIP: pkt.Addr{10, 0, 0, 2},
		SrcPort: 40000, DstPort: 5001, PayloadLen: 64, PayloadByte: 0x77,
	})
	lan, _ := n1.InterfacePort("lan")
	wan, _ := n2.InterfacePort("wan")
	if err := lan.Send(netdev.Frame{Data: frame}); err != nil {
		t.Fatal(err)
	}
	got, ok := wan.TryRecv()
	if !ok {
		t.Fatal("nothing emerged on the far node")
	}
	if !bytes.Equal(got.Data, frame) {
		t.Fatalf("frame corrupted across REST-managed stitch")
	}

	// Undeploy removes the pieces from both nodes.
	dresp := doDelete(t, gsrv.URL+"/v1/graphs/svc")
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("global undeploy status = %d", dresp.StatusCode)
	}
	dresp.Body.Close()
	for _, node := range []*un.Node{n1, n2} {
		if ids := node.GraphIDs(); len(ids) != 0 {
			t.Errorf("node still holds %v after global undeploy", ids)
		}
	}
}

// TestGlobalServerRegistrationErrors covers the node-registration error
// paths.
func TestGlobalServerRegistrationErrors(t *testing.T) {
	gOrch := global.New(global.Config{})
	gsrv := httptest.NewServer(rest.NewGlobal(gOrch, &http.Client{Timeout: 200 * time.Millisecond}))
	t.Cleanup(gsrv.Close)

	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed json", `{oops`, http.StatusBadRequest},
		{"missing fields", `{"name": "x"}`, http.StatusBadRequest},
		{"unreachable node", `{"name": "x", "url": "http://127.0.0.1:1/"}`, http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		resp := doPost(t, gsrv.URL+"/v1/nodes", c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status = %d, want %d", c.name, resp.StatusCode, c.want)
		}
		resp.Body.Close()
	}

	// Duplicate registration.
	_, srv := restNode(t, "dup", []string{"eth0"}, 1000)
	reg := fmt.Sprintf(`{"name": "dup", "url": %q}`, srv.URL)
	resp := doPost(t, gsrv.URL+"/v1/nodes", reg)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first registration status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = doPost(t, gsrv.URL+"/v1/nodes", reg)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("duplicate registration status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Link validation: unknown node, unknown interface.
	for _, body := range []string{
		`{"a-node": "ghost", "a-if": "x", "b-node": "dup", "b-if": "eth0"}`,
		`{"a-node": "dup", "a-if": "nope", "b-node": "dup", "b-if": "eth0"}`,
	} {
		resp := doPost(t, gsrv.URL+"/v1/links", body)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("bad link %s: status = %d", body, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// Removing an unknown node.
	dresp := doDelete(t, gsrv.URL+"/v1/nodes/ghost")
	if dresp.StatusCode != http.StatusNotFound {
		t.Errorf("remove ghost node status = %d", dresp.StatusCode)
	}
	dresp.Body.Close()

	// Global graph endpoints on an empty orchestrator.
	gresp, _ := http.Get(gsrv.URL + "/v1/graphs/ghost/placement")
	if gresp.StatusCode != http.StatusNotFound {
		t.Errorf("placement of unknown graph status = %d", gresp.StatusCode)
	}
	gresp.Body.Close()
}

// TestConcurrentPutsSameGraph hammers one graph id with parallel PUTs: the
// node must end in a consistent deployed state, with every response a
// well-formed success or conflict.
func TestConcurrentPutsSameGraph(t *testing.T) {
	node, srv := newServer(t)
	const writers = 8
	var wg sync.WaitGroup
	codes := make([]int, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req, err := http.NewRequest(http.MethodPut,
				srv.URL+"/v1/graphs/cpe-vpn", strings.NewReader(ipsecGraphJSON))
			if err != nil {
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return
			}
			codes[i] = resp.StatusCode
			resp.Body.Close()
		}(i)
	}
	wg.Wait()
	okCount := 0
	for i, code := range codes {
		switch code {
		case http.StatusOK, http.StatusCreated:
			okCount++
		case http.StatusUnprocessableEntity, http.StatusConflict:
			// Lost the deploy race: acceptable, must not corrupt state.
		default:
			t.Errorf("writer %d: unexpected status %d", i, code)
		}
	}
	if okCount == 0 {
		t.Error("no PUT succeeded")
	}
	// The graph is deployed exactly once and still serves GETs.
	if ids := node.GraphIDs(); len(ids) != 1 || ids[0] != "cpe-vpn" {
		t.Fatalf("deployed graphs = %v, want [cpe-vpn]", ids)
	}
	resp, err := http.Get(srv.URL + "/v1/graphs/cpe-vpn")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET after concurrent PUTs = %d", resp.StatusCode)
	}
}

// TestStatusReportsInterfaces: the global scheduler depends on /status
// listing the node's interfaces.
func TestStatusReportsInterfaces(t *testing.T) {
	_, srv := newServer(t)
	resp, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st rest.StatusReply
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Interfaces) != 2 || st.Interfaces[0] != "eth0" || st.Interfaces[1] != "eth1" {
		t.Errorf("status interfaces = %v, want [eth0 eth1]", st.Interfaces)
	}
}
