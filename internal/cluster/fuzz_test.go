package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzClusterRPC throws arbitrary bodies at the four peer RPC routes of a
// single-replica cluster on a LocalNetwork: what a peer sends is input from
// outside the process. The replica must never panic, and must answer 200
// (handled), 400 (the body does not decode) or 502 (the replica refused the
// call). The seeds are well-formed requests of each route, then garbage.
func FuzzClusterRPC(f *testing.F) {
	routes := []string{"ping", "ping-req", "vote", "append"}
	seed := func(route int, v any) {
		body, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(route), body)
	}
	seed(0, pingWire{From: "b", Updates: []MemberUpdate{
		{ID: "a", Kind: KindReplica, State: StateSuspect, Incarnation: 1},
		{ID: "n1", Kind: KindNode, State: StateDead, Incarnation: 4},
	}})
	seed(1, pingWire{From: "b", Target: "a"})
	seed(1, pingWire{From: "b", Target: "nobody"})
	seed(2, VoteRequest{ClusterID: "fuzz", Candidate: "b", Term: 2, LastTerm: 1, LastSeq: 3})
	seed(2, VoteRequest{ClusterID: "other", Candidate: "b", Term: 9})
	seed(3, AppendRequest{ClusterID: "fuzz", Leader: "b", Term: 3, CommitSeq: 1, Ops: []Op{
		{Seq: 1, Term: 3, Kind: OpDeploy, Key: "g1", Data: json.RawMessage(`{"v":1}`)},
		{Seq: 3, Term: 3, Kind: OpUndeploy, Key: "g1"},
	}})
	seed(3, AppendRequest{ClusterID: "fuzz", Leader: "b", Term: 4, Snapshot: &Snapshot{
		Seq: 2, Term: 4, Records: map[string]map[string]json.RawMessage{"graphs": {"g2": json.RawMessage(`{}`)}},
	}})
	for route := range routes {
		f.Add(uint8(route), []byte{})
		f.Add(uint8(route), []byte("null"))
		f.Add(uint8(route), []byte(`{"term":`))
	}

	network := NewLocalNetwork()
	c, err := New(Options{
		ID:        "a",
		ClusterID: "fuzz",
		Peers:     []PeerSpec{{ID: "a", Addr: "http://a"}},
		Transport: network.Transport("a"),
	})
	if err != nil {
		f.Fatal(err)
	}
	network.Register("a", c)
	h := c.RPCHandler()

	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		path := "/v1/cluster/rpc/" + routes[int(route)%len(routes)]
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusBadGateway:
		default:
			t.Fatalf("%s answered %d to %q", path, w.Code, body)
		}
	})
}
