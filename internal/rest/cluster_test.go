package rest_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	un "repro"
	"repro/internal/cluster"
	"repro/internal/global"
	"repro/internal/rest"
)

// swapHandler lets the httptest servers come up before the handlers that
// need their URLs exist.
type swapHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.h = h
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestClusterRESTFollowerRedirectsWrites runs two replicated global
// servers over real HTTP: the follower 307-redirects writes to the
// leader, serves the cluster status document, and its reads converge on
// the leader's writes via the replicated intent store.
func TestClusterRESTFollowerRedirectsWrites(t *testing.T) {
	node, err := un.NewNode(un.Config{
		Name:       "n1",
		Interfaces: []string{"lan", "wan"},
		CPUMillis:  8000,
		RAMBytes:   1 << 30,
		Capabilities: []string{
			"docker", "nnf:firewall", "nnf:monitor", "nnf:bridge",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	local := global.NewLocalNode("n1", node)
	resolver := func(name string, _ json.RawMessage) (global.Node, error) {
		if name != "n1" {
			return nil, fmt.Errorf("unknown node %q", name)
		}
		return local, nil
	}

	swaps := map[string]*swapHandler{"a": {}, "b": {}}
	servers := map[string]*httptest.Server{}
	var peers []cluster.PeerSpec
	for _, id := range []string{"a", "b"} {
		srv := httptest.NewServer(swaps[id])
		t.Cleanup(srv.Close)
		servers[id] = srv
		peers = append(peers, cluster.PeerSpec{ID: id, Addr: srv.URL})
	}

	orchs := map[string]*global.Orchestrator{}
	clusters := map[string]*cluster.Cluster{}
	for _, id := range []string{"a", "b"} {
		o := global.New(global.Config{Logf: t.Logf, ProbeInterval: 10 * time.Millisecond})
		c, err := global.BuildHA(o, cluster.Options{
			ID:                id,
			Peers:             peers,
			Transport:         cluster.NewHTTPTransport(peers, nil),
			HeartbeatInterval: 20 * time.Millisecond,
			LeaseDuration:     250 * time.Millisecond,
		}, resolver)
		if err != nil {
			t.Fatal(err)
		}
		s := rest.NewGlobal(o, nil)
		s.EnableCluster(c)
		swaps[id].set(s)
		orchs[id] = o
		clusters[id] = c
		c.Start()
		t.Cleanup(c.Close)
	}

	waitUntil(t, 5*time.Second, "leader election", func() bool {
		return clusters["a"].IsLeader() || clusters["b"].IsLeader()
	})
	leaderID, followerID := "a", "b"
	if clusters["b"].IsLeader() {
		leaderID, followerID = "b", "a"
	}
	leaderURL := servers[leaderID].URL
	followerURL := servers[followerID].URL

	if err := orchs[leaderID].AddNode(local); err != nil {
		t.Fatal(err)
	}

	// A raw write on the follower answers 307 with the leader's location.
	noFollow := &http.Client{
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
	}
	resp, err := noFollow.Post(followerURL+"/v1/links", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("follower write: got %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, leaderURL) {
		t.Fatalf("redirect location %q does not point at leader %q", loc, leaderURL)
	}

	// A client following redirects lands the deploy on the leader.
	req, err := http.NewRequest(http.MethodPut, followerURL+"/v1/graphs/svc", strings.NewReader(twoNFGraphJSON))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("redirected deploy: got %d: %s", resp.StatusCode, body)
	}
	if ids := orchs[leaderID].GraphIDs(); len(ids) != 1 || ids[0] != "svc" {
		t.Fatalf("leader graph set after redirected deploy: %v", ids)
	}

	// Both replicas serve the cluster document; only one claims the lease.
	for id, srv := range servers {
		resp, err := http.Get(srv.URL + "/v1/cluster")
		if err != nil {
			t.Fatal(err)
		}
		var st cluster.Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.Leader != leaderID {
			t.Fatalf("replica %s sees leader %q, want %q", id, st.Leader, leaderID)
		}
		if st.IsLeader != (id == leaderID) {
			t.Fatalf("replica %s is-leader=%v", id, st.IsLeader)
		}
	}

	// Follower reads converge on the replicated intent (the refresh runs
	// on its reconcile tick; drive it directly here).
	waitUntil(t, 5*time.Second, "follower catch-up", func() bool {
		orchs[followerID].ReconcileOnce()
		resp, err := http.Get(followerURL + "/v1/graphs")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var reply struct {
			Graphs []string `json:"graphs"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			return false
		}
		return len(reply.Graphs) == 1 && reply.Graphs[0] == "svc"
	})
}
