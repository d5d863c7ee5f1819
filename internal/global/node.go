// Package global implements the overarching orchestration layer of the
// Universal Node architecture (the layer that sits above paper Figure 1):
// one global orchestrator managing a fleet of compute nodes, each running
// the existing local orchestrator. An NF-FG submitted here is partitioned
// across nodes by a resource-aware placement scheduler, cross-node links are
// stitched with VLAN-tagged inter-node endpoints over the nodes' physical
// interfaces (GRE-style port pairs over netdev), and a reconcile loop keeps
// the observed fleet state converged on the desired graph set, rescheduling
// graphs off nodes that stop answering health probes.
//
// Concurrency model: reconcile probes run in parallel outside the
// orchestrator lock, but graph mutations (Deploy/Update/Undeploy and the
// repair phase of a reconcile pass) serialize node RPCs under it — one
// control-plane operation at a time, with per-node HTTP timeouts bounding
// how long a slow node can hold it. This favors simple, linearizable state
// over mutation throughput; it fits fleets of tens of nodes, not thousands.
package global

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/nf"
	"repro/internal/nffg"
	"repro/internal/orchestrator"
)

// NFStatus is one running NF instance as reported by a node probe: which
// flavor it runs as and where it stands in its lifecycle. The reconcile
// loop's pressure-relief phase reads it to find reflavor candidates.
type NFStatus struct {
	Graph      string `json:"graph"`
	NF         string `json:"nf"`
	Technology string `json:"technology"`
	State      string `json:"state,omitempty"`
}

// Status is one node's health, capacity and identity snapshot, as seen by a
// successful probe. A probe that errors marks the node dead instead.
type Status struct {
	Name           string     `json:"name"`
	FreeCPUMillis  int        `json:"free-cpu-millicores"`
	TotalCPUMillis int        `json:"total-cpu-millicores"`
	FreeRAMBytes   uint64     `json:"free-ram-bytes"`
	TotalRAMBytes  uint64     `json:"total-ram-bytes"`
	Interfaces     []string   `json:"interfaces"`
	Capabilities   []string   `json:"capabilities"`
	Graphs         []string   `json:"graphs"`
	NFs            []NFStatus `json:"nfs,omitempty"`
	// RatePPS is the node's observed aggregate datapath packet rate
	// (packets/second), feeding the placement tier's M/M/1 saturation
	// demotion. Zero when the node does not report one.
	RatePPS float64 `json:"rate-pps,omitempty"`
}

// Node is one Universal Node under global management: the local
// orchestrator's deploy surface plus a health/capacity probe. Implementations
// must be safe for concurrent use; every method may be called from the
// reconcile loop.
type Node interface {
	// Name is the fleet-unique node identifier.
	Name() string
	// Status probes the node. An error marks the node dead.
	Status() (Status, error)
	// Deploy instantiates a (sub)graph on the node.
	Deploy(g *nffg.Graph) error
	// Update applies a new version of a deployed (sub)graph in place.
	Update(g *nffg.Graph) error
	// Undeploy removes a (sub)graph.
	Undeploy(id string) error
	// Reflavor hot-swaps one NF of a deployed (sub)graph onto a different
	// execution technology.
	Reflavor(graphID, nfID string, tech nffg.Technology) error
	// Scale resizes one NF's replica set with live flow-state migration.
	Scale(graphID, nfID string, replicas int) error
	// GraphSpec fetches the deployed version of a graph for drift diffing.
	GraphSpec(id string) (*nffg.Graph, bool, error)
}

// StateNode is the optional flow-state replication surface of a Node. The
// reconcile loop's standby-sync phase uses it to copy the per-flow state
// of active-standby NFs from the primary node onto the standby node, so a
// node kill promotes a warm standby instead of an empty one. Nodes that do
// not implement it simply get no cross-node state replication.
type StateNode interface {
	// ExportNFState snapshots the full per-flow state of one NF.
	ExportNFState(graphID, nfID string) ([]nf.FlowState, error)
	// ImportNFState installs exported state into the NF's instances.
	// Imports are idempotent.
	ImportNFState(graphID, nfID string, states []nf.FlowState) error
}

// UniversalNode is the in-process deploy surface of one compute node, as
// implemented by both *un.Node and *orchestrator.Orchestrator.
type UniversalNode interface {
	Deploy(g *nffg.Graph) error
	Update(g *nffg.Graph) error
	Undeploy(id string) error
	Reflavor(graphID, nfID string, tech nffg.Technology) error
	Scale(graphID, nfID string, replicas int) error
	GraphIDs() []string
	GraphSpec(id string) (*nffg.Graph, bool)
	Topology() orchestrator.Topology
	Usage() (usedCPU, totalCPU int, usedRAM, totalRAM uint64)
	Capabilities() []string
}

// LocalNode adapts an in-process Universal Node to the global orchestrator.
// SetDown simulates a node failure: every call errors until the node is
// brought back up, exactly as an unreachable remote node would behave.
type LocalNode struct {
	name string
	un   UniversalNode
	down atomic.Bool
}

// NewLocalNode wraps an in-process node under the given fleet name.
func NewLocalNode(name string, n UniversalNode) *LocalNode {
	return &LocalNode{name: name, un: n}
}

// Name implements Node.
func (l *LocalNode) Name() string { return l.name }

// SetDown marks the node unreachable (true) or reachable (false).
func (l *LocalNode) SetDown(down bool) { l.down.Store(down) }

func (l *LocalNode) check() error {
	if l.down.Load() {
		return fmt.Errorf("global: node %q unreachable", l.name)
	}
	return nil
}

// Status implements Node.
func (l *LocalNode) Status() (Status, error) {
	if err := l.check(); err != nil {
		return Status{}, err
	}
	usedCPU, totalCPU, usedRAM, totalRAM := l.un.Usage()
	topo := l.un.Topology()
	var nfs []NFStatus
	for _, g := range topo.Graphs {
		for _, n := range g.NFs {
			nfs = append(nfs, NFStatus{Graph: g.ID, NF: n.ID, Technology: n.Technology, State: n.State})
		}
	}
	st := Status{
		Name:           l.name,
		FreeCPUMillis:  totalCPU - usedCPU,
		TotalCPUMillis: totalCPU,
		FreeRAMBytes:   totalRAM - usedRAM,
		TotalRAMBytes:  totalRAM,
		Interfaces:     topo.Interfaces,
		Capabilities:   l.un.Capabilities(),
		Graphs:         l.un.GraphIDs(),
		NFs:            nfs,
	}
	if r, ok := l.un.(interface{ TotalRatePPS() float64 }); ok {
		st.RatePPS = r.TotalRatePPS()
	}
	return st, nil
}

// ExportNFState implements StateNode when the wrapped node supports it.
func (l *LocalNode) ExportNFState(graphID, nfID string) ([]nf.FlowState, error) {
	if err := l.check(); err != nil {
		return nil, err
	}
	s, ok := l.un.(StateNode)
	if !ok {
		return nil, fmt.Errorf("global: node %q does not export NF state", l.name)
	}
	return s.ExportNFState(graphID, nfID)
}

// ImportNFState implements StateNode when the wrapped node supports it.
func (l *LocalNode) ImportNFState(graphID, nfID string, states []nf.FlowState) error {
	if err := l.check(); err != nil {
		return err
	}
	s, ok := l.un.(StateNode)
	if !ok {
		return fmt.Errorf("global: node %q does not import NF state", l.name)
	}
	return s.ImportNFState(graphID, nfID, states)
}

// Deploy implements Node.
func (l *LocalNode) Deploy(g *nffg.Graph) error {
	if err := l.check(); err != nil {
		return err
	}
	return l.un.Deploy(g)
}

// Update implements Node.
func (l *LocalNode) Update(g *nffg.Graph) error {
	if err := l.check(); err != nil {
		return err
	}
	return l.un.Update(g)
}

// Undeploy implements Node.
func (l *LocalNode) Undeploy(id string) error {
	if err := l.check(); err != nil {
		return err
	}
	return l.un.Undeploy(id)
}

// Reflavor implements Node.
func (l *LocalNode) Reflavor(graphID, nfID string, tech nffg.Technology) error {
	if err := l.check(); err != nil {
		return err
	}
	return l.un.Reflavor(graphID, nfID, tech)
}

// Scale implements Node.
func (l *LocalNode) Scale(graphID, nfID string, replicas int) error {
	if err := l.check(); err != nil {
		return err
	}
	return l.un.Scale(graphID, nfID, replicas)
}

// GraphSpec implements Node.
func (l *LocalNode) GraphSpec(id string) (*nffg.Graph, bool, error) {
	if err := l.check(); err != nil {
		return nil, false, err
	}
	g, ok := l.un.GraphSpec(id)
	return g, ok, nil
}

// HTTPNode reaches a remote Universal Node through its northbound REST
// interface (internal/rest): the deployment path of a production fleet,
// where each compute node runs cmd/un-orchestrator.
type HTTPNode struct {
	name   string
	base   string // e.g. "http://10.0.0.7:8080", no trailing slash
	client *http.Client
}

// NewHTTPNode builds a REST-backed node handle. A nil client gets a
// 10-second timeout: a hung node must fail its probe, not stall the
// reconcile loop.
func NewHTTPNode(name, baseURL string, client *http.Client) *HTTPNode {
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	for len(baseURL) > 0 && baseURL[len(baseURL)-1] == '/' {
		baseURL = baseURL[:len(baseURL)-1]
	}
	return &HTTPNode{name: name, base: baseURL, client: client}
}

// Name implements Node.
func (h *HTTPNode) Name() string { return h.name }

// restStatus mirrors the GET /status reply of internal/rest.
type restStatus struct {
	Node         string   `json:"node"`
	Graphs       []string `json:"graphs"`
	Capabilities []string `json:"capabilities"`
	Interfaces   []string `json:"interfaces"`
	CPU          struct {
		Used  uint64 `json:"used"`
		Total uint64 `json:"total"`
	} `json:"cpu-millicores"`
	RAM struct {
		Used  uint64 `json:"used"`
		Total uint64 `json:"total"`
	} `json:"ram-bytes"`
	NFInstances []struct {
		Graph      string `json:"graph"`
		NF         string `json:"nf"`
		Technology string `json:"technology"`
		State      string `json:"state"`
	} `json:"nf-instances"`
	RatePPS float64 `json:"rate-pps"`
}

// call issues one REST request to the node — in, when non-nil, as its JSON
// body — and decodes the JSON body of a 2xx reply into out (nil discards
// it). what names the operation in the error, which carries the message of
// the node's error envelope; the HTTP status is returned beside it (0 when
// the node could not be reached) for the caller that gives one a meaning.
func (h *HTTPNode) call(what, method, path string, in, out any) (int, error) {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, h.base+path, body)
	if err != nil {
		return 0, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("global: %s %q: %w", what, h.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("global: %s %q: HTTP %d: %s",
			what, h.name, resp.StatusCode, readError(resp.Body))
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("global: %s %q: %w", what, h.name, err)
		}
	}
	return resp.StatusCode, nil
}

// Status implements Node.
func (h *HTTPNode) Status() (Status, error) {
	var st restStatus
	if _, err := h.call("probing", http.MethodGet, "/v1/status", nil, &st); err != nil {
		return Status{}, err
	}
	var nfs []NFStatus
	for _, n := range st.NFInstances {
		nfs = append(nfs, NFStatus{Graph: n.Graph, NF: n.NF, Technology: n.Technology, State: n.State})
	}
	return Status{
		Name:           h.name,
		FreeCPUMillis:  int(st.CPU.Total - st.CPU.Used),
		TotalCPUMillis: int(st.CPU.Total),
		FreeRAMBytes:   st.RAM.Total - st.RAM.Used,
		TotalRAMBytes:  st.RAM.Total,
		Interfaces:     st.Interfaces,
		Capabilities:   st.Capabilities,
		Graphs:         st.Graphs,
		NFs:            nfs,
		RatePPS:        st.RatePPS,
	}, nil
}

// nfStates is the body of the NF flow-state endpoint, both ways.
type nfStates struct {
	States []nf.FlowState `json:"states"`
}

// ExportNFState implements StateNode over GET /v1/graphs/{id}/nfs/{nf}/state.
func (h *HTTPNode) ExportNFState(graphID, nfID string) ([]nf.FlowState, error) {
	var reply nfStates
	_, err := h.call("exporting "+graphID+"/"+nfID+" state from", http.MethodGet,
		"/v1/graphs/"+graphID+"/nfs/"+nfID+"/state", nil, &reply)
	return reply.States, err
}

// ImportNFState implements StateNode over PUT /v1/graphs/{id}/nfs/{nf}/state.
func (h *HTTPNode) ImportNFState(graphID, nfID string, states []nf.FlowState) error {
	_, err := h.call("importing "+graphID+"/"+nfID+" state into", http.MethodPut,
		"/v1/graphs/"+graphID+"/nfs/"+nfID+"/state", nfStates{States: states}, nil)
	return err
}

// Deploy implements Node. The REST PUT verb is deploy-or-update, so Deploy
// and Update share one request.
func (h *HTTPNode) Deploy(g *nffg.Graph) error {
	_, err := h.call("deploying "+g.ID+" on", http.MethodPut, "/v1/graphs/"+g.ID, g, nil)
	return err
}

// Update implements Node.
func (h *HTTPNode) Update(g *nffg.Graph) error { return h.Deploy(g) }

// Undeploy implements Node.
func (h *HTTPNode) Undeploy(id string) error {
	_, err := h.call("undeploying "+id+" on", http.MethodDelete, "/v1/graphs/"+id, nil, nil)
	return err
}

// Reflavor implements Node.
func (h *HTTPNode) Reflavor(graphID, nfID string, tech nffg.Technology) error {
	_, err := h.call("reflavoring "+graphID+"/"+nfID+" on", http.MethodPost,
		"/v1/graphs/"+graphID+"/nfs/"+nfID+"/reflavor", map[string]string{"technology": string(tech)}, nil)
	return err
}

// Scale implements Node.
func (h *HTTPNode) Scale(graphID, nfID string, replicas int) error {
	_, err := h.call("scaling "+graphID+"/"+nfID+" on", http.MethodPost,
		"/v1/graphs/"+graphID+"/nfs/"+nfID+"/scale", map[string]int{"replicas": replicas}, nil)
	return err
}

// GraphSpec implements Node. A graph the node does not hold is not an error.
func (h *HTTPNode) GraphSpec(id string) (*nffg.Graph, bool, error) {
	var g nffg.Graph
	status, err := h.call("fetching "+id+" from", http.MethodGet, "/v1/graphs/"+id, nil, &g)
	if status == http.StatusNotFound {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return &g, true, nil
}

// readError extracts the message of a failed REST call's error envelope
// ({"error": {"code", "message", "detail"}}), falling back to the
// pre-versioning {"error": "..."} form and finally the raw body.
func readError(r io.Reader) string {
	data, err := io.ReadAll(io.LimitReader(r, 4096))
	if err != nil {
		return ""
	}
	var env struct {
		Error struct {
			Message string   `json:"message"`
			Detail  []string `json:"detail"`
		} `json:"error"`
	}
	if json.Unmarshal(data, &env) == nil && env.Error.Message != "" {
		if len(env.Error.Detail) > 1 {
			return env.Error.Message + " (" + strings.Join(env.Error.Detail, "; ") + ")"
		}
		return env.Error.Message
	}
	var legacy struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &legacy) == nil && legacy.Error != "" {
		return legacy.Error
	}
	return string(bytes.TrimSpace(data))
}
