package rest_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	un "repro"
	"repro/internal/measure"
	"repro/internal/netdev"
	"repro/internal/pcap"
	"repro/internal/pkt"
	"repro/internal/rest"
)

func newServer(t *testing.T) (*un.Node, *httptest.Server) {
	t.Helper()
	node, err := un.NewNode(un.Config{Name: "rest-node"})
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

const ipsecGraphJSON = `{
  "forwarding-graph": {
    "id": "cpe-vpn",
    "name": "ipsec on the home router",
    "VNFs": [
      {"id": "vpn", "name": "ipsec",
       "ports": [{"id": "0", "name": "cleartext"}, {"id": "1", "name": "esp"}],
       "technology-preference": "native",
       "configuration": {
         "local": "192.0.2.1", "remote": "203.0.113.9",
         "spi": "4096", "key": "000102030405060708090a0b0c0d0e0f10111213"
       }}
    ],
    "end-points": [
      {"id": "lan", "type": "interface", "interface": {"if-name": "eth0"}},
      {"id": "wan", "type": "interface", "interface": {"if-name": "eth1"}}
    ],
    "big-switch": {"flow-rules": [
      {"id": "r1", "priority": 10, "match": {"port_in": "endpoint:lan"},
       "actions": [{"output_to_port": "vnf:vpn:0"}]},
      {"id": "r2", "priority": 10, "match": {"port_in": "vnf:vpn:1"},
       "actions": [{"output_to_port": "endpoint:wan"}]},
      {"id": "r3", "priority": 10, "match": {"port_in": "endpoint:wan"},
       "actions": [{"output_to_port": "vnf:vpn:1"}]},
      {"id": "r4", "priority": 10, "match": {"port_in": "vnf:vpn:0"},
       "actions": [{"output_to_port": "endpoint:lan"}]}
    ]}
  }
}`

func doPut(t *testing.T, url, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func doDelete(t *testing.T, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestDeployGetDeleteOverREST(t *testing.T) {
	node, srv := newServer(t)

	resp := doPut(t, srv.URL+"/v1/graphs/cpe-vpn", ipsecGraphJSON)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	if len(node.GraphIDs()) != 1 {
		t.Fatal("graph not deployed")
	}
	placements, _ := node.Placements("cpe-vpn")
	if placements["vpn"] != un.TechNative {
		t.Errorf("placement = %v", placements)
	}

	// GET returns the graph as it was put, labels (graph and port names)
	// included.
	getResp, err := http.Get(srv.URL + "/v1/graphs/cpe-vpn")
	if err != nil {
		t.Fatal(err)
	}
	defer getResp.Body.Close()
	if getResp.StatusCode != http.StatusOK {
		t.Fatalf("GET status = %d", getResp.StatusCode)
	}
	var g un.Graph
	if err := json.NewDecoder(getResp.Body).Decode(&g); err != nil {
		t.Fatal(err)
	}
	var want un.Graph
	if err := json.Unmarshal([]byte(ipsecGraphJSON), &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, want) {
		t.Errorf("returned graph = %+v, want %+v", g, want)
	}

	// List.
	listResp, err := http.Get(srv.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	defer listResp.Body.Close()
	var list map[string][]string
	_ = json.NewDecoder(listResp.Body).Decode(&list)
	if len(list["graphs"]) != 1 || list["graphs"][0] != "cpe-vpn" {
		t.Errorf("list = %v", list)
	}

	// DELETE.
	delResp := doDelete(t, srv.URL+"/v1/graphs/cpe-vpn")
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status = %d", delResp.StatusCode)
	}
	delResp.Body.Close()
	if len(node.GraphIDs()) != 0 {
		t.Error("graph not undeployed")
	}
}

func TestPutUpdatesExistingGraph(t *testing.T) {
	_, srv := newServer(t)
	resp := doPut(t, srv.URL+"/v1/graphs/cpe-vpn", ipsecGraphJSON)
	resp.Body.Close()
	// Same body again: treated as (no-op) update.
	resp = doPut(t, srv.URL+"/v1/graphs/cpe-vpn", ipsecGraphJSON)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update status = %d", resp.StatusCode)
	}
	var body map[string]string
	_ = json.NewDecoder(resp.Body).Decode(&body)
	if body["status"] != "updated" {
		t.Errorf("body = %v", body)
	}
}

func TestRESTErrors(t *testing.T) {
	_, srv := newServer(t)

	// Malformed JSON.
	resp := doPut(t, srv.URL+"/v1/graphs/x", "{not json")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad json status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Body/URL id mismatch.
	resp = doPut(t, srv.URL+"/v1/graphs/other-id", ipsecGraphJSON)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("id mismatch status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Invalid graph (no rules referencing unknown NF template).
	bad := strings.Replace(ipsecGraphJSON, `"name": "ipsec"`, `"name": "warp-drive"`, 1)
	resp = doPut(t, srv.URL+"/v1/graphs/cpe-vpn", bad)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("bad template status = %d", resp.StatusCode)
	}
	var errBody rest.ErrorEnvelope
	_ = json.NewDecoder(resp.Body).Decode(&errBody)
	resp.Body.Close()
	if errBody.Error.Code != "unprocessable" || errBody.Error.Message == "" {
		t.Errorf("error envelope = %+v", errBody)
	}

	// GET / DELETE of an unknown graph.
	getResp, _ := http.Get(srv.URL + "/v1/graphs/ghost")
	if getResp.StatusCode != http.StatusNotFound {
		t.Errorf("get ghost status = %d", getResp.StatusCode)
	}
	getResp.Body.Close()
	delResp := doDelete(t, srv.URL+"/v1/graphs/ghost")
	if delResp.StatusCode != http.StatusNotFound {
		t.Errorf("delete ghost status = %d", delResp.StatusCode)
	}
	delResp.Body.Close()
}

func TestStatusAndTopology(t *testing.T) {
	_, srv := newServer(t)
	resp := doPut(t, srv.URL+"/v1/graphs/cpe-vpn", ipsecGraphJSON)
	resp.Body.Close()

	stResp, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer stResp.Body.Close()
	var st rest.StatusReply
	if err := json.NewDecoder(stResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Node != "rest-node" || len(st.Graphs) != 1 || len(st.NFInstances) != 1 {
		t.Errorf("status = %+v", st)
	}
	if st.NFInstances[0].Technology != "native" {
		t.Errorf("instance = %+v", st.NFInstances[0])
	}
	if st.RAM.Used == 0 || st.RAM.Total == 0 {
		t.Error("resource usage missing")
	}
	found := false
	for _, c := range st.Capabilities {
		if c == "nnf:ipsec" {
			found = true
		}
	}
	if !found {
		t.Errorf("capabilities = %v", st.Capabilities)
	}

	// Topology, three formats.
	for _, q := range []string{"", "?format=dot", "?format=json"} {
		tResp, err := http.Get(srv.URL + "/v1/topology" + q)
		if err != nil {
			t.Fatal(err)
		}
		buf := new(bytes.Buffer)
		_, _ = buf.ReadFrom(tResp.Body)
		tResp.Body.Close()
		if tResp.StatusCode != http.StatusOK || buf.Len() == 0 {
			t.Errorf("topology%s status=%d len=%d", q, tResp.StatusCode, buf.Len())
		}
		if q == "?format=dot" && !strings.Contains(buf.String(), "digraph") {
			t.Error("dot format missing digraph")
		}
	}
}

func TestCaptureEndpoint(t *testing.T) {
	node, srv := newServer(t)
	resp := doPut(t, srv.URL+"/v1/graphs/cpe-vpn", ipsecGraphJSON)
	resp.Body.Close()

	// Capture eth1 while pushing traffic in from eth0.
	done := make(chan struct{})
	go func() {
		defer close(done)
		lan, _ := node.InterfacePort("eth0")
		frame, _ := measure.Spec{FrameSize: 500}.Frame()
		for i := 0; i < 50; i++ {
			_ = lan.Send(netdev.Frame{Data: frame})
			time.Sleep(2 * time.Millisecond)
		}
	}()
	capResp, err := http.Get(srv.URL + "/v1/capture/eth1?duration=120ms")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(capResp.Body)
	capResp.Body.Close()
	<-done
	if capResp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", capResp.StatusCode)
	}
	if ct := capResp.Header.Get("Content-Type"); !strings.Contains(ct, "pcap") {
		t.Errorf("content type = %q", ct)
	}
	pkts, err := pcap.NewReader(bytes.NewReader(body)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) == 0 {
		t.Fatal("capture empty despite traffic")
	}
	p := pkt.NewPacket(pkts[0].Data, pkt.LayerTypeEthernet, pkt.Default)
	if p.Layer(pkt.LayerTypeESP) == nil {
		t.Error("WAN capture should hold ESP")
	}

	// An idle capture still yields a valid (empty) pcap.
	idleResp, err := http.Get(srv.URL + "/v1/capture/eth0?duration=30ms")
	if err != nil {
		t.Fatal(err)
	}
	idleBody, _ := io.ReadAll(idleResp.Body)
	idleResp.Body.Close()
	if pkts, err := pcap.NewReader(bytes.NewReader(idleBody)).ReadAll(); err != nil || len(pkts) != 0 {
		t.Errorf("idle capture: %d packets, err %v", len(pkts), err)
	}

	// Errors.
	r404, _ := http.Get(srv.URL + "/v1/capture/eth9?duration=10ms")
	if r404.StatusCode != http.StatusNotFound {
		t.Errorf("unknown interface status = %d", r404.StatusCode)
	}
	r404.Body.Close()
	rBad, _ := http.Get(srv.URL + "/v1/capture/eth0?duration=zebra")
	if rBad.StatusCode != http.StatusBadRequest {
		t.Errorf("bad duration status = %d", rBad.StatusCode)
	}
	rBad.Body.Close()
}

func TestGraphStatsEndpoint(t *testing.T) {
	node, srv := newServer(t)
	resp := doPut(t, srv.URL+"/v1/graphs/cpe-vpn", ipsecGraphJSON)
	resp.Body.Close()

	// Push 7 frames through, then read the counters.
	lan, _ := node.InterfacePort("eth0")
	wan, _ := node.InterfacePort("eth1")
	frame, _ := measure.Spec{FrameSize: 700}.Frame()
	for i := 0; i < 7; i++ {
		_ = lan.Send(netdev.Frame{Data: frame})
		_, _ = wan.TryRecv()
	}
	stResp, err := http.Get(srv.URL + "/v1/graphs/cpe-vpn/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer stResp.Body.Close()
	if stResp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", stResp.StatusCode)
	}
	var st rest.GraphStatsReply
	if err := json.NewDecoder(stResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Graph != "cpe-vpn" || len(st.NFs) != 1 {
		t.Fatalf("reply = %+v", st)
	}
	if st.NFs[0].RxPackets != 7 || st.NFs[0].TxPackets != 7 || st.NFs[0].Errors != 0 {
		t.Errorf("nf stats = %+v", st.NFs[0])
	}
	if len(st.Rules) != 4 {
		t.Fatalf("rules = %d, want 4", len(st.Rules))
	}
	var hits uint64
	for _, rc := range st.Rules {
		hits += rc.Packets
	}
	if hits != 14 { // 7 on the lan->vpn rule, 7 on vpn->wan
		t.Errorf("rule hits = %d, want 14", hits)
	}

	// Unknown graph.
	r404, _ := http.Get(srv.URL + "/v1/graphs/ghost/stats")
	if r404.StatusCode != http.StatusNotFound {
		t.Errorf("ghost stats status = %d", r404.StatusCode)
	}
	r404.Body.Close()
}
