// Package rest implements the compute node's northbound REST interface: the
// channel through which the overarching orchestration layer submits Network
// Function Forwarding Graphs (paper Figure 1, "REST server").
//
// The versioned v1 surface:
//
//	PUT    /v1/graphs/{id}   deploy (or update) the graph in the JSON body;
//	       ?dry-run=true validates, schedules and admission-checks (incl.
//	       replica resource demand) without mutating anything and returns
//	       the would-be placement
//	GET    /v1/graphs/{id}   retrieve a deployed graph
//	DELETE /v1/graphs/{id}   undeploy a graph
//	GET    /v1/graphs        list deployed graph ids
//	POST   /v1/graphs/{id}/nfs/{nf}/reflavor  hot-swap one NF's execution
//	       technology ({"technology": "native"}; empty or "any" lets the
//	       placement policy choose)
//	POST   /v1/graphs/{id}/nfs/{nf}/scale  resize one stateful NF's replica
//	       set ({"replicas": 3}) with live flow-state migration
//	GET    /v1/status        node status: graphs, resources, capabilities,
//	       per-NF technology, replica count and lifecycle state
//	GET    /v1/graphs/{id}/stats  per-NF and per-rule counters of a graph
//	GET    /v1/topology      live Figure-1 topology (text; ?format=dot|json)
//	GET    /v1/capture/{if}  capture interface traffic for ?duration (pcap)
//	GET    /v1/metrics       node telemetry, Prometheus text format
//	GET    /v1/events        node event journal, JSON array (?since=seq)
//
// Every error is the uniform envelope
//
//	{"error": {"code": "...", "message": "...", "detail": [...]}}
//
// where code names the error class, message is human-readable, and detail
// (when present) lists individual violations, e.g. everything graph
// validation found in one pass.
package rest

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/netdev"
	"repro/internal/nf"
	"repro/internal/nffg"
	"repro/internal/orchestrator"
	"repro/internal/pcap"
	"repro/internal/resources"
	"repro/internal/telemetry"
)

// Server exposes one orchestrator over HTTP.
type Server struct {
	orch *orchestrator.Orchestrator
	pool *resources.Pool
	mux  *http.ServeMux
}

// New builds the server.
func New(orch *orchestrator.Orchestrator, pool *resources.Pool) *Server {
	s := &Server{orch: orch, pool: pool, mux: http.NewServeMux()}
	route := func(method, path string, h http.HandlerFunc) {
		s.mux.HandleFunc(method+" "+path, h)
	}
	route("PUT", "/v1/graphs/{id}", s.putGraph)
	route("GET", "/v1/graphs/{id}", s.getGraph)
	route("DELETE", "/v1/graphs/{id}", s.deleteGraph)
	route("GET", "/v1/graphs", s.listGraphs)
	route("GET", "/v1/graphs/{id}/stats", s.graphStats)
	route("POST", "/v1/graphs/{id}/nfs/{nf}/reflavor", s.reflavor)
	route("POST", "/v1/graphs/{id}/nfs/{nf}/scale", s.scale)
	route("GET", "/v1/graphs/{id}/nfs/{nf}/state", s.getNFState)
	route("PUT", "/v1/graphs/{id}/nfs/{nf}/state", s.putNFState)
	route("GET", "/v1/status", s.status)
	route("GET", "/v1/topology", s.topology)
	route("GET", "/v1/capture/{iface}", s.capture)
	// One scrape of the node registry: per-LSI traffic and microflow-cache
	// counters, the sampled pipeline-latency histogram, resource-ledger
	// gauges and control-plane operation timings.
	metrics := orch.Metrics().Handler()
	route("GET", "/v1/metrics", metrics.ServeHTTP)
	route("GET", "/v1/events", s.events)
	return s
}

// events serves the node's retained journal, oldest first. ?since=seq
// returns only events with a larger sequence number, so a poller can tail
// the journal without re-reading it.
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	evs := s.orch.Events()
	if since := r.URL.Query().Get("since"); since != "" {
		seq, err := strconv.ParseUint(since, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad since %q", since))
			return
		}
		i := 0
		for i < len(evs) && evs[i].Seq <= seq {
			i++
		}
		evs = evs[i:]
	}
	if evs == nil {
		evs = []telemetry.Event{}
	}
	writeJSON(w, http.StatusOK, evs)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// ErrorBody is the payload of the uniform error envelope.
type ErrorBody struct {
	// Code names the error class (one per HTTP status in practice).
	Code string `json:"code"`
	// Message is the primary human-readable description.
	Message string `json:"message"`
	// Detail lists individual violations when the error aggregates several
	// (e.g. everything graph validation found in one pass).
	Detail []string `json:"detail,omitempty"`
}

// ErrorEnvelope is the body of every REST error response.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// errorCode maps an HTTP status to its envelope code string.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusConflict:
		return "conflict"
	case http.StatusUnprocessableEntity:
		return "unprocessable"
	case http.StatusBadGateway:
		return "upstream_error"
	case http.StatusServiceUnavailable:
		return "unavailable"
	default:
		return "error"
	}
}

func writeError(w http.ResponseWriter, code int, err error) {
	body := ErrorBody{Code: errorCode(code), Message: err.Error()}
	// A multi-error (joined validation violations) is broken out so clients
	// get every violation individually, not one concatenated string.
	if v := nffg.Violations(err); len(v) > 1 {
		body.Detail = v
	}
	writeJSON(w, code, ErrorEnvelope{Error: body})
}

func (s *Server) putGraph(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var g nffg.Graph
	if err := json.NewDecoder(r.Body).Decode(&g); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("parsing NF-FG: %w", err))
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
		plan, err := s.orch.Plan(&g)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
		writeJSON(w, http.StatusOK, DryRunReply{Status: "valid", DryRun: true, Plan: plan})
		return
	}
	if _, exists := s.orch.Graph(id); exists {
		if err := s.orch.Update(&g); err != nil {
			writeError(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "updated", "id": id})
		return
	}
	if err := s.orch.Deploy(&g); err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"status": "deployed", "id": id})
}

func (s *Server) getGraph(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	d, ok := s.orch.Graph(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("graph %q not deployed", id))
		return
	}
	writeJSON(w, http.StatusOK, d.Graph)
}

func (s *Server) deleteGraph(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.orch.Undeploy(id); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "undeployed", "id": id})
}

func (s *Server) listGraphs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"graphs": s.orch.GraphIDs()})
}

// DryRunReply is the PUT /v1/graphs/{id}?dry-run=true body: the validated
// would-be placement, nothing deployed.
type DryRunReply struct {
	Status string                   `json:"status"`
	DryRun bool                     `json:"dry-run"`
	Plan   *orchestrator.DeployPlan `json:"plan"`
}

// ReflavorRequest is the POST /v1/graphs/{id}/nfs/{nf}/reflavor body. An
// empty or "any" technology asks the node's placement policy to choose at
// the currently observed traffic rate.
type ReflavorRequest struct {
	Technology string `json:"technology"`
}

// ScaleRequest is the POST /v1/graphs/{id}/nfs/{nf}/scale body.
type ScaleRequest struct {
	Replicas int `json:"replicas"`
}

func (s *Server) scale(w http.ResponseWriter, r *http.Request) {
	id, nfID := r.PathValue("id"), r.PathValue("nf")
	var req ScaleRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("parsing scale request: %w", err))
		return
	}
	if _, ok := s.orch.Graph(id); !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("graph %q not deployed", id))
		return
	}
	if err := s.orch.Scale(id, nfID, req.Replicas); err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "scaled", "id": id, "nf": nfID, "replicas": req.Replicas,
	})
}

func (s *Server) reflavor(w http.ResponseWriter, r *http.Request) {
	id, nfID := r.PathValue("id"), r.PathValue("nf")
	var req ReflavorRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("parsing reflavor request: %w", err))
		return
	}
	if _, ok := s.orch.Graph(id); !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("graph %q not deployed", id))
		return
	}
	tech := nffg.Technology(req.Technology)
	if req.Technology == "" || tech == nffg.TechAny {
		chosen, err := s.orch.ReflavorAuto(id, nfID)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{
			"status": "reflavored", "id": id, "nf": nfID, "technology": string(chosen),
		})
		return
	}
	if err := s.orch.Reflavor(id, nfID, tech); err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{
		"status": "reflavored", "id": id, "nf": nfID, "technology": req.Technology,
	})
}

// StatusReply is the GET /v1/status body. Interfaces lets the global
// orchestrator pin NF-FG endpoints to the node owning the named interface;
// RatePPS feeds its M/M/1 saturation-aware placement.
type StatusReply struct {
	Node         string           `json:"node"`
	Graphs       []string         `json:"graphs"`
	Capabilities []string         `json:"capabilities"`
	Interfaces   []string         `json:"interfaces"`
	CPU          ResourceStatus   `json:"cpu-millicores"`
	RAM          ResourceStatus   `json:"ram-bytes"`
	NFInstances  []InstanceStatus `json:"nf-instances"`
	// RatePPS is the node's observed aggregate datapath packet rate.
	RatePPS float64 `json:"rate-pps"`
}

// ResourceStatus is one used/total pair.
type ResourceStatus struct {
	Used  uint64 `json:"used"`
	Total uint64 `json:"total"`
}

// InstanceStatus describes one running NF.
type InstanceStatus struct {
	Graph      string `json:"graph"`
	NF         string `json:"nf"`
	Instance   string `json:"instance"`
	Technology string `json:"technology"`
	// State is the NF's lifecycle state ("running", "draining", ...).
	State string `json:"state"`
	// Replicas is how many instances currently serve the NF (1 unless
	// scaled out).
	Replicas int    `json:"replicas,omitempty"`
	Shared   bool   `json:"shared,omitempty"`
	RAMBytes uint64 `json:"ram-bytes"`
	// Standby reports whether a warm standby instance shadows this NF
	// (active-standby redundancy).
	Standby bool `json:"standby,omitempty"`
}

func (s *Server) status(w http.ResponseWriter, _ *http.Request) {
	topo := s.orch.Topology()
	usedCPU, totalCPU, usedRAM, totalRAM := s.pool.Usage()
	reply := StatusReply{
		Node:       topo.NodeName,
		Graphs:     s.orch.GraphIDs(),
		Interfaces: topo.Interfaces,
		CPU:        ResourceStatus{Used: uint64(usedCPU), Total: uint64(totalCPU)},
		RAM:        ResourceStatus{Used: usedRAM, Total: totalRAM},
	}
	for _, c := range s.pool.Capabilities() {
		reply.Capabilities = append(reply.Capabilities, string(c))
	}
	for _, g := range topo.Graphs {
		standbys := make(map[string]bool)
		for _, nfID := range s.orch.StandbyNFs(g.ID) {
			standbys[nfID] = true
		}
		for _, n := range g.NFs {
			reps, _ := s.orch.Replicas(g.ID, n.ID)
			reply.NFInstances = append(reply.NFInstances, InstanceStatus{
				Graph:      g.ID,
				NF:         n.ID,
				Instance:   n.Instance,
				Technology: n.Technology,
				State:      n.State,
				Replicas:   reps,
				Shared:     n.Shared,
				RAMBytes:   n.RAMBytes,
				Standby:    standbys[n.ID],
			})
		}
	}
	reply.RatePPS = s.orch.TotalRatePPS()
	writeJSON(w, http.StatusOK, reply)
}

// StateReply is the GET/PUT /v1/graphs/{id}/nfs/{nf}/state body: the NF's
// exportable per-flow state (NAT bindings, IPsec SAs, ...), empty for a
// stateless NF. The global orchestrator's standby sync moves it between
// nodes through these verbs.
type StateReply struct {
	States []nf.FlowState `json:"states"`
}

func (s *Server) getNFState(w http.ResponseWriter, r *http.Request) {
	id, nfID := r.PathValue("id"), r.PathValue("nf")
	states, err := s.orch.ExportNFState(id, nfID)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if states == nil {
		states = []nf.FlowState{}
	}
	writeJSON(w, http.StatusOK, StateReply{States: states})
}

func (s *Server) putNFState(w http.ResponseWriter, r *http.Request) {
	id, nfID := r.PathValue("id"), r.PathValue("nf")
	var req StateReply
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("parsing state: %w", err))
		return
	}
	if _, ok := s.orch.Graph(id); !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("graph %q not deployed", id))
		return
	}
	if err := s.orch.ImportNFState(id, nfID, req.States); err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "imported", "id": id, "nf": nfID, "states": len(req.States),
	})
}

// GraphStatsReply is the GET /v1/graphs/{id}/stats body.
type GraphStatsReply struct {
	Graph string        `json:"graph"`
	NFs   []NFStats     `json:"nfs"`
	Rules []RuleCounter `json:"steering-rules"`
}

// NFStats carries one NF runtime's counters.
type NFStats struct {
	NF        string `json:"nf"`
	Instance  string `json:"instance"`
	RxPackets uint64 `json:"rx-packets"`
	TxPackets uint64 `json:"tx-packets"`
	Errors    uint64 `json:"errors"`
}

// RuleCounter carries one installed steering rule's hit counters, read over
// the graph's OpenFlow channel. Table is always 0, the LSI's one flow table;
// it stays in the reply so clients reading it keep working.
type RuleCounter struct {
	Table    uint8  `json:"table"`
	Priority uint16 `json:"priority"`
	Packets  uint64 `json:"packets"`
	Bytes    uint64 `json:"bytes"`
}

func (s *Server) graphStats(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	d, ok := s.orch.Graph(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("graph %q not deployed", id))
		return
	}
	reply := GraphStatsReply{Graph: id}
	instances := d.Instances()
	nfIDs := make([]string, 0, len(instances))
	for nfID := range instances {
		nfIDs = append(nfIDs, nfID)
	}
	sort.Strings(nfIDs)
	for _, nfID := range nfIDs {
		inst := instances[nfID]
		st := inst.Runtime.Stats()
		reply.NFs = append(reply.NFs, NFStats{
			NF:        nfID,
			Instance:  inst.Runtime.Name(),
			RxPackets: st.RxPackets,
			TxPackets: st.TxPackets,
			Errors:    st.Errors,
		})
	}
	flowStats, err := d.Controller().FlowStats()
	if err != nil {
		writeError(w, http.StatusBadGateway, fmt.Errorf("querying steering rules: %w", err))
		return
	}
	for _, fs := range flowStats {
		reply.Rules = append(reply.Rules, RuleCounter{
			Priority: fs.Priority,
			Packets:  fs.Packets,
			Bytes:    fs.Bytes,
		})
	}
	writeJSON(w, http.StatusOK, reply)
}

// maxCaptureDuration bounds GET /v1/capture runs.
const maxCaptureDuration = 30 * time.Second

// capture records the traffic crossing one node interface for ?duration
// (default 1s) and returns it as a pcap body, openable in Wireshark.
func (s *Server) capture(w http.ResponseWriter, r *http.Request) {
	ifName := r.PathValue("iface")
	port, ok := s.orch.InterfacePort(ifName)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no interface %q", ifName))
		return
	}
	duration := time.Second
	if d := r.URL.Query().Get("duration"); d != "" {
		parsed, err := time.ParseDuration(d)
		if err != nil || parsed <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad duration %q", d))
			return
		}
		duration = parsed
	}
	if duration > maxCaptureDuration {
		duration = maxCaptureDuration
	}
	w.Header().Set("Content-Type", "application/vnd.tcpdump.pcap")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", ifName+".pcap"))
	pw := pcap.NewWriter(w)
	if err := pw.WriteHeader(); err != nil {
		return
	}
	port.SetTap(func(_ netdev.TapDir, f netdev.Frame) {
		_ = pw.WritePacket(time.Now(), f.Data)
	})
	select {
	case <-time.After(duration):
	case <-r.Context().Done():
	}
	port.SetTap(nil)
	// In-flight taps may still hold the writer: gate them off before the
	// handler returns and net/http finalizes the response.
	pw.Close()
}

func (s *Server) topology(w http.ResponseWriter, r *http.Request) {
	topo := s.orch.Topology()
	switch r.URL.Query().Get("format") {
	case "dot":
		w.Header().Set("Content-Type", "text/vnd.graphviz")
		fmt.Fprint(w, topo.DOT())
	case "json":
		writeJSON(w, http.StatusOK, topo)
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, topo.String())
	}
}
