package rest

import (
	"fmt"
	"net/http"
	"strings"

	"repro/internal/cluster"
)

// EnableCluster attaches an HA cluster replica to the global server:
//
//	GET /v1/cluster           this replica's view (leader, term,
//	                          replication progress)
//	    /v1/cluster/rpc/...   replica-to-replica RPC (votes, appends)
//
// and turns the server into a redirecting follower: a mutating request
// (POST/PUT/DELETE outside /v1/cluster) arriving at a non-leader is
// answered with 307 + Location on the current leader, or 503 while an
// election is in flight. Reads are always answered locally.
func (s *GlobalServer) EnableCluster(c *cluster.Cluster) {
	s.cluster = c
	s.selfID = c.ClusterStatus().ID
	s.mux.HandleFunc("GET /v1/cluster", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, c.ClusterStatus())
	})
	s.mux.Handle("/v1/cluster/rpc/", c.RPCHandler())
}

// redirectToLeader intercepts writes on a follower. It reports whether it
// handled the request.
func (s *GlobalServer) redirectToLeader(w http.ResponseWriter, r *http.Request) bool {
	if s.cluster == nil {
		return false
	}
	switch r.Method {
	case http.MethodPost, http.MethodPut, http.MethodDelete:
	default:
		return false
	}
	// Cluster RPC must reach followers — that is how they stop being
	// followers.
	if strings.HasPrefix(r.URL.Path, "/v1/cluster") {
		return false
	}
	if s.cluster.IsLeader() {
		return false
	}
	id, addr := s.cluster.Leader()
	if id == "" || id == s.selfID || addr == "" {
		// Election in flight (or we are a deposed leader that has not
		// heard the successor yet): the client retries with backoff.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("no cluster leader currently elected; retry shortly"))
		return true
	}
	http.Redirect(w, r, strings.TrimRight(addr, "/")+r.URL.RequestURI(), http.StatusTemporaryRedirect)
	return true
}
