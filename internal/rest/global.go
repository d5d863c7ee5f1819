// Global REST interface: the northbound API of the global orchestrator
// (cmd/un-global). Compute nodes running cmd/un-orchestrator register here;
// NF-FGs submitted here are partitioned across the fleet.
//
// The versioned v1 surface:
//
//	POST   /v1/nodes         register a node {name, url}
//	GET    /v1/nodes         fleet state (per-node status + liveness)
//	DELETE /v1/nodes/{name}  withdraw a node
//	POST   /v1/links         declare an inter-node link {a-node,a-if,b-node,b-if}
//	GET    /v1/links         declared links
//	PUT    /v1/graphs/{id}   deploy (or update) a global graph; ?dry-run=true
//	       validates and partitions across the fleet (incl. replica resource
//	       demand) without deploying, returning the would-be placement
//	GET    /v1/graphs/{id}   retrieve the desired graph
//	DELETE /v1/graphs/{id}   undeploy a global graph
//	GET    /v1/graphs        list global graph ids
//	POST   /v1/graphs/{id}/nfs/{nf}/reflavor  hot-swap one NF's execution
//	       technology on whichever node hosts it ({"technology": "..."})
//	POST   /v1/graphs/{id}/nfs/{nf}/scale  resize one NF's replica set on
//	       its hosting node ({"replicas": 3}), state migrated live
//	GET    /v1/graphs/{id}/placement  where each NF and endpoint runs
//	GET    /v1/status        fleet summary
//	GET    /v1/metrics       fleet-wide telemetry: the global orchestrator's
//	                         own control-plane metrics plus one scrape of
//	                         every alive node, tagged node="..."
//	GET    /v1/events        merged event journal of control plane and fleet
//	GET    /v1/cluster       HA cluster view: leader, term,
//	                         replication progress (when clustering is enabled;
//	                         see EnableCluster — followers answer reads and
//	                         307-redirect writes to the leader)
//
// Errors use the same {"error": {"code", "message", "detail"}} envelope as
// the node API.
package rest

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/global"
	"repro/internal/nffg"
	"repro/internal/telemetry"
)

// writeMutationError maps a mutating-entry-point failure to a status. Two
// cluster conditions override the handler's fallback with 503 + Retry-After:
// ErrNotCommitted (the change is applied locally and parked in the leader
// log, but quorum did not acknowledge in time — a retry is safe because ops
// are idempotent by key and commit as soon as quorum returns) and
// ErrNotLeader (the replica lost the lease mid-request, after the follower
// redirect already happened — the client should re-resolve the leader).
func writeMutationError(w http.ResponseWriter, fallback int, err error) {
	if errors.Is(err, global.ErrNotCommitted) || errors.Is(err, global.ErrNotLeader) {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeError(w, fallback, err)
}

// GlobalServer exposes one global orchestrator over HTTP.
type GlobalServer struct {
	orch   *global.Orchestrator
	client *http.Client
	mux    *http.ServeMux

	// HA (see cluster.go): nil on a standalone server.
	cluster *cluster.Cluster
	selfID  string
}

// NewGlobal builds the server. Registered nodes are reached with client; nil
// uses a client with a 5-second timeout so a hung node fails its probe
// instead of wedging the reconcile loop.
func NewGlobal(orch *global.Orchestrator, client *http.Client) *GlobalServer {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	s := &GlobalServer{orch: orch, client: client, mux: http.NewServeMux()}
	route := func(method, path string, h http.HandlerFunc) {
		s.mux.HandleFunc(method+" "+path, h)
	}
	route("POST", "/v1/nodes", s.addNode)
	route("GET", "/v1/nodes", s.listNodes)
	route("DELETE", "/v1/nodes/{name}", s.removeNode)
	route("POST", "/v1/links", s.addLink)
	route("GET", "/v1/links", s.listLinks)
	route("DELETE", "/v1/links", s.removeLink)
	route("PUT", "/v1/graphs/{id}", s.putGraph)
	route("GET", "/v1/graphs/{id}", s.getGraph)
	route("DELETE", "/v1/graphs/{id}", s.deleteGraph)
	route("GET", "/v1/graphs", s.listGraphs)
	route("POST", "/v1/graphs/{id}/nfs/{nf}/reflavor", s.reflavor)
	route("POST", "/v1/graphs/{id}/nfs/{nf}/scale", s.scale)
	route("GET", "/v1/graphs/{id}/placement", s.placement)
	route("GET", "/v1/status", s.status)
	route("GET", "/v1/metrics", s.metrics)
	route("GET", "/v1/events", s.events)
	return s
}

// metrics serves the fleet-wide Prometheus view: global control-plane
// metrics plus a live scrape of every alive node, tagged per node. A node
// dying mid-scrape is skipped (and counted) rather than failing the scrape.
func (s *GlobalServer) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", telemetry.ContentType)
	_ = s.orch.WriteFleetMetrics(w)
}

// events serves the merged control-plane and per-node event journal.
func (s *GlobalServer) events(w http.ResponseWriter, _ *http.Request) {
	evs := s.orch.FleetEvents()
	if evs == nil {
		evs = []telemetry.Event{}
	}
	writeJSON(w, http.StatusOK, evs)
}

// ServeHTTP implements http.Handler. Under HA, writes reaching a
// follower are redirected to the leader first (see cluster.go).
func (s *GlobalServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.redirectToLeader(w, r) {
		return
	}
	s.mux.ServeHTTP(w, r)
}

// NodeRegistration is the POST /v1/nodes body.
type NodeRegistration struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

func (s *GlobalServer) addNode(w http.ResponseWriter, r *http.Request) {
	var reg NodeRegistration
	if !decodeBody(w, r, "registration", jsonInto(&reg)) {
		return
	}
	if reg.Name == "" || reg.URL == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("registration needs name and url"))
		return
	}
	node := global.NewHTTPNode(reg.Name, reg.URL, s.client)
	if err := s.orch.AddNode(node); err != nil {
		writeMutationError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"status": "registered", "name": reg.Name})
}

func (s *GlobalServer) listNodes(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]global.NodeInfo{"nodes": s.orch.ListNodes()})
}

func (s *GlobalServer) removeNode(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.orch.RemoveNode(name); err != nil {
		writeMutationError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "removed", "name": name})
}

func (s *GlobalServer) addLink(w http.ResponseWriter, r *http.Request) {
	var l global.Link
	if !decodeBody(w, r, "link", jsonInto(&l)) {
		return
	}
	if err := s.orch.Link(l.A, l.AIf, l.B, l.BIf); err != nil {
		writeMutationError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"status": "linked"})
}

func (s *GlobalServer) listLinks(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]global.Link{"links": s.orch.Links()})
}

// removeLink severs a declared inter-node link (DELETE /v1/links with the
// same body as POST). Graphs whose partition crossed it are re-placed.
func (s *GlobalServer) removeLink(w http.ResponseWriter, r *http.Request) {
	var l global.Link
	if !decodeBody(w, r, "link", jsonInto(&l)) {
		return
	}
	if err := s.orch.Unlink(l.A, l.AIf, l.B, l.BIf); err != nil {
		writeMutationError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "unlinked"})
}

func (s *GlobalServer) putGraph(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var g nffg.Graph
	if !decodeBody(w, r, "NF-FG", g.UnmarshalJSON) {
		return
	}
	if g.ID == "" {
		g.ID = id
	}
	if g.ID != id {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("graph id %q does not match URL id %q", g.ID, id))
		return
	}
	if r.URL.Query().Get("dry-run") == "true" {
		plan, err := s.orch.PlanDeploy(&g)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
		writeJSON(w, http.StatusOK, GlobalDryRunReply{Status: "valid", DryRun: true, Plan: plan})
		return
	}
	// Apply decides deploy-vs-update atomically under the orchestrator
	// lock, so concurrent PUTs of a new id cannot race each other. The
	// orchestrator keeps the graph just decoded, frozen: nothing else
	// refers to it.
	existed, err := s.orch.Apply(g.Freeze())
	switch {
	case err != nil && existed:
		writeMutationError(w, http.StatusConflict, err)
	case err != nil:
		writeMutationError(w, http.StatusUnprocessableEntity, err)
	case existed:
		writeJSON(w, http.StatusOK, map[string]string{"status": "updated", "id": id})
	default:
		writeJSON(w, http.StatusCreated, map[string]string{"status": "deployed", "id": id})
	}
}

func (s *GlobalServer) getGraph(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	g, ok := s.orch.Desired(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("graph %q not deployed", id))
		return
	}
	writeJSON(w, http.StatusOK, g)
}

func (s *GlobalServer) deleteGraph(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.orch.Desired(id); !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("graph %q not deployed", id))
		return
	}
	if err := s.orch.Undeploy(id); err != nil {
		writeMutationError(w, http.StatusBadGateway, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "undeployed", "id": id})
}

func (s *GlobalServer) listGraphs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"graphs": s.orch.GraphIDs()})
}

func (s *GlobalServer) reflavor(w http.ResponseWriter, r *http.Request) {
	id, nfID := r.PathValue("id"), r.PathValue("nf")
	var req ReflavorRequest
	if !decodeBody(w, r, "reflavor request", jsonInto(&req)) {
		return
	}
	if _, ok := s.orch.Desired(id); !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("graph %q not deployed", id))
		return
	}
	if err := s.orch.Reflavor(id, nfID, nffg.Technology(req.Technology)); err != nil {
		writeMutationError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{
		"status": "reflavored", "id": id, "nf": nfID, "technology": req.Technology,
	})
}

// GlobalDryRunReply is the PUT /v1/graphs/{id}?dry-run=true body of the
// global API: the validated fleet-wide would-be placement, nothing deployed.
type GlobalDryRunReply struct {
	Status string       `json:"status"`
	DryRun bool         `json:"dry-run"`
	Plan   *global.Plan `json:"plan"`
}

func (s *GlobalServer) scale(w http.ResponseWriter, r *http.Request) {
	id, nfID := r.PathValue("id"), r.PathValue("nf")
	var req ScaleRequest
	if !decodeBody(w, r, "scale request", jsonInto(&req)) {
		return
	}
	if _, ok := s.orch.Desired(id); !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("graph %q not deployed", id))
		return
	}
	if err := s.orch.Scale(id, nfID, req.Replicas); err != nil {
		writeMutationError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "scaled", "id": id, "nf": nfID, "replicas": req.Replicas,
	})
}

// PlacementReply is the GET /v1/graphs/{id}/placement body.
type PlacementReply struct {
	Graph     string            `json:"graph"`
	NFs       map[string]string `json:"nfs"`       // NF id -> node
	Endpoints map[string]string `json:"endpoints"` // endpoint id -> node
	// StandbyNode names the node holding the graph's warm shadow
	// deployment (active-standby availability), empty when none is armed.
	StandbyNode string `json:"standby-node,omitempty"`
}

func (s *GlobalServer) placement(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	pl, ok := s.orch.Placement(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("graph %q not deployed", id))
		return
	}
	writeJSON(w, http.StatusOK, PlacementReply{
		Graph: id, NFs: pl.NFNode, Endpoints: pl.EPNode,
		StandbyNode: s.orch.StandbyNode(id),
	})
}

// GlobalStatusReply is the GET /v1/status body of the global orchestrator.
type GlobalStatusReply struct {
	Nodes  []global.NodeInfo `json:"nodes"`
	Links  []global.Link     `json:"links"`
	Graphs []string          `json:"graphs"`
}

func (s *GlobalServer) status(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, GlobalStatusReply{
		Nodes:  s.orch.ListNodes(),
		Links:  s.orch.Links(),
		Graphs: s.orch.GraphIDs(),
	})
}
