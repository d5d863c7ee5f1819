// Package un (Universal Node) is the public API of this reproduction of
// "Modeling Native Software Components as Virtual Network Functions"
// (SIGCOMM 2016): an NFV compute node that deploys Network Function
// Forwarding Graphs over virtual machines, Docker containers, DPDK
// processes and — the paper's contribution — Native Network Functions
// (NNFs), i.e. functions already shipped by the node's operating system.
//
// A Node bundles the node services of the paper's Figure 1: the local
// orchestrator with per-graph Logical Switch Instances steered over an
// OpenFlow-style control channel, the compute manager with one driver per
// execution technology, the NNF manager (plugins, sharability via traffic
// marks, single-interface adaptation layer, network-namespace isolation),
// the VNF repository, the image store and the resource ledger.
//
// Quickstart:
//
//	node, err := un.NewNode(un.Config{Interfaces: []string{"eth0", "eth1"}})
//	...
//	err = node.Deploy(graph)      // graph is a *un.Graph (NF-FG)
//	lan, _ := node.InterfacePort("eth0")
//
// The datapath of every LSI runs an exact-match microflow cache in front of
// its flow table; per-switch cache counters (hits, misses,
// resident entries) are exported through Topology and
// Node.DatapathCacheStats, next to the classic per-entry flow stats.
//
// Node.CaptureInterface and the REST route GET /v1/capture/{if} write the
// traffic crossing an interface as pcap through one capture path
// (rest.Capture).
//
// See examples/ for complete programs (quickstart, reflavor, scaleout,
// multinode, availability, hacluster), cmd/un-orchestrator for the daemon
// exposing the REST interface and cmd/nffgctl for the CLI that drives it.
package un

import (
	"fmt"
	"io"
	"net/http"

	"repro/internal/compute"
	"repro/internal/execenv"
	"repro/internal/imagestore"
	"repro/internal/netdev"
	"repro/internal/netns"
	"repro/internal/nf"
	"repro/internal/nffg"
	"repro/internal/nnf"
	"repro/internal/orchestrator"
	"repro/internal/policy"
	"repro/internal/repository"
	"repro/internal/resources"
	"repro/internal/rest"
	"repro/internal/telemetry"
	"repro/internal/vswitch"
)

// Re-exported NF-FG model types: the vocabulary callers use to describe
// services.
type (
	// Graph is a Network Function Forwarding Graph.
	Graph = nffg.Graph
	// NF is one network function of a graph.
	NF = nffg.NF
	// NFPort is one port of an NF.
	NFPort = nffg.NFPort
	// Endpoint is a graph attachment point.
	Endpoint = nffg.Endpoint
	// FlowRule is one big-switch steering rule.
	FlowRule = nffg.FlowRule
	// RuleMatch is a rule's traffic selector.
	RuleMatch = nffg.RuleMatch
	// RuleAction is one rule action.
	RuleAction = nffg.RuleAction
	// PortRef references an NF port or endpoint inside a graph.
	PortRef = nffg.PortRef
	// Technology selects an execution technology.
	Technology = nffg.Technology
	// Topology is the live Figure-1 view of the node.
	Topology = orchestrator.Topology
	// NodeStatus is a node's status snapshot (see Node.Status).
	NodeStatus = orchestrator.NodeStatus
	// CacheStats is a snapshot of datapath microflow-cache counters.
	CacheStats = vswitch.CacheStats
	// Event is one structured telemetry-journal entry (NF lifecycle, graph
	// operations, steering reprogramming).
	Event = telemetry.Event
	// FlowState is one exportable per-flow state entry of a stateful NF
	// (NAT binding, firewall connection, IPsec SA).
	FlowState = nf.FlowState
	// MetricsRegistry is the node's scrapeable metric registry.
	MetricsRegistry = telemetry.Registry
)

// Endpoint types.
const (
	EPInterface = nffg.EPInterface
	EPVLAN      = nffg.EPVLAN
	EPInternal  = nffg.EPInternal
)

// Execution technologies.
const (
	TechAny    = nffg.TechAny
	TechVM     = nffg.TechVM
	TechDocker = nffg.TechDocker
	TechDPDK   = nffg.TechDPDK
	TechNative = nffg.TechNative
)

// Rule action verbs.
const (
	ActOutput    = nffg.ActOutput
	ActPushVLAN  = nffg.ActPushVLAN
	ActPopVLAN   = nffg.ActPopVLAN
	ActSetEthSrc = nffg.ActSetEthSrc
	ActSetEthDst = nffg.ActSetEthDst
)

// NFPortRef builds a reference to an NF port.
func NFPortRef(nfID, portID string) PortRef { return nffg.NFPortRef(nfID, portID) }

// EndpointRef builds a reference to a graph endpoint.
func EndpointRef(epID string) PortRef { return nffg.EndpointRef(epID) }

// MB is one mebibyte in bytes.
const MB = 1 << 20

// GB is one gibibyte in bytes.
const GB = 1 << 30

// Config sizes a Node. The zero value is usable: a two-interface CPE-class
// node with every capability enabled.
type Config struct {
	// Name labels the node (default "un-node").
	Name string
	// Interfaces are the physical interface names (default eth0, eth1).
	Interfaces []string
	// CPUMillis is the CPU capacity in millicores (default 16000).
	CPUMillis int
	// RAMBytes is the memory capacity (default 8 GiB).
	RAMBytes uint64
	// Capabilities restricts the node feature set; nil enables
	// everything ("kvm", "docker", "dpdk" and one "nnf:<name>" per
	// built-in NNF plugin).
	Capabilities []string
	// CostModel overrides the execution-environment cost model; nil uses
	// the Table-1 calibration.
	CostModel *execenv.CostModel
	// PlacementPolicy selects how the scheduler ranks execution flavors:
	// "first-fit" (the default: the paper's static native > docker > dpdk
	// > vm preference), "bin-pack" (cheapest reservation first) or "cost"
	// (minimize modeled CPU consumption at the observed traffic rate).
	PlacementPolicy string
	// MaxParallelStarts bounds how many NFs of one graph boot concurrently
	// during Deploy/Update (default 8).
	MaxParallelStarts int
	// Workers selects where every LSI runs its datapath lane: 0 (the
	// default) executes received bursts inline in the sender's goroutine;
	// N > 0 runs N of the same lanes as RSS-steered workers behind rings.
	// See the README section "The datapath lane" for how to choose N.
	Workers int
}

// Node is a running NFV compute node.
type Node struct {
	orch  *orchestrator.Orchestrator
	pool  *resources.Pool
	store *imagestore.Store
	nnf   *nnf.Manager
	clock *execenv.VirtualClock
	rest  *rest.Server
}

// NewNode assembles a complete compute node.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Name == "" {
		cfg.Name = "un-node"
	}
	if len(cfg.Interfaces) == 0 {
		cfg.Interfaces = []string{"eth0", "eth1"}
	}
	if cfg.CPUMillis == 0 {
		cfg.CPUMillis = 16000
	}
	if cfg.RAMBytes == 0 {
		cfg.RAMBytes = 8 * GB
	}
	model := execenv.Default()
	if cfg.CostModel != nil {
		model = *cfg.CostModel
	}

	store := imagestore.NewStore()
	if err := repository.DefaultImages(store); err != nil {
		return nil, err
	}
	pool := resources.NewPool(cfg.CPUMillis, cfg.RAMBytes)
	if cfg.Capabilities == nil {
		pool.AddCapability("kvm")
		pool.AddCapability("docker")
		pool.AddCapability("dpdk")
		for _, name := range []string{"ipsec", "firewall", "nat", "bridge", "router", "monitor", "shaper"} {
			pool.AddCapability(resources.Capability("nnf:" + name))
		}
	} else {
		for _, c := range cfg.Capabilities {
			pool.AddCapability(resources.Capability(c))
		}
	}
	pol, err := policy.ByName(cfg.PlacementPolicy)
	if err != nil {
		return nil, err
	}
	clock := &execenv.VirtualClock{}
	deps := compute.Deps{
		NFs:       nf.DefaultRegistry(),
		Images:    store,
		Resources: pool,
		Model:     model,
		Clock:     clock,
	}
	nnfMgr := nnf.NewManager(nnf.Builtins(), netns.NewRegistry(), model, clock)
	cmgr := compute.NewManager()
	register := func(d compute.Driver, err error) error {
		if err != nil {
			return err
		}
		return cmgr.Register(d)
	}
	if err := register(compute.NewVMDriver(deps)); err != nil {
		return nil, err
	}
	if err := register(compute.NewDockerDriver(deps)); err != nil {
		return nil, err
	}
	if err := register(compute.NewDPDKDriver(deps)); err != nil {
		return nil, err
	}
	if err := register(compute.NewNativeDriver(deps, nnfMgr)); err != nil {
		return nil, err
	}
	orch, err := orchestrator.New(orchestrator.Config{
		NodeName:          cfg.Name,
		Interfaces:        cfg.Interfaces,
		Resources:         pool,
		Repo:              repository.Default(),
		Compute:           cmgr,
		Model:             &model,
		Policy:            pol,
		MaxParallelStarts: cfg.MaxParallelStarts,
		DatapathWorkers:   cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	n := &Node{orch: orch, pool: pool, store: store, nnf: nnfMgr, clock: clock}
	n.rest = rest.New(orch, pool)
	return n, nil
}

// Close undeploys every graph and stops the node.
func (n *Node) Close() { n.orch.Close() }

// Deploy instantiates a graph on the node. The node keeps a copy of g, its
// one copy: once Deploy returns, the caller may modify or reuse g, and
// nothing the node runs changes. (A frozen graph, see Graph.Freeze, is kept
// as it is, not copied.)
func (n *Node) Deploy(g *Graph) error { return n.orch.Deploy(g) }

// Update applies a new version of a deployed graph, keeping a copy of g as
// Deploy does.
func (n *Node) Update(g *Graph) error { return n.orch.Update(g) }

// Undeploy removes a deployed graph.
func (n *Node) Undeploy(id string) error { return n.orch.Undeploy(id) }

// Reflavor hot-swaps one NF of a deployed graph onto a different execution
// technology with make-before-break semantics: the new-flavor instance
// starts and attaches, the LSI steering repoints atomically (no steering
// gap, zero packet loss in the switchover), then the old instance drains
// and stops. The REST interface exposes it as
// POST /v1/graphs/{id}/nfs/{nf}/reflavor.
func (n *Node) Reflavor(graphID, nfID string, tech Technology) error {
	return n.orch.Reflavor(graphID, nfID, tech)
}

// ReflavorAuto re-ranks the NF's packaged flavors with the node's placement
// policy at the currently observed traffic rate and hot-swaps to the winner
// when it differs from the running flavor. It returns the chosen technology.
func (n *Node) ReflavorAuto(graphID, nfID string) (Technology, error) {
	return n.orch.ReflavorAuto(graphID, nfID)
}

// Scale resizes one NF's replica set: new instances start behind
// consistent-hash flow steering and per-flow state (NAT bindings, firewall
// conntrack, IPsec SAs) migrates live between replicas, with no packet or
// state loss. The REST interface exposes it as
// POST /v1/graphs/{id}/nfs/{nf}/scale.
func (n *Node) Scale(graphID, nfID string, replicas int) error {
	return n.orch.Scale(graphID, nfID, replicas)
}

// Replicas reports how many instances currently serve an NF.
func (n *Node) Replicas(graphID, nfID string) (int, error) {
	return n.orch.Replicas(graphID, nfID)
}

// KillNF stops one NF instance's runtime in place without detaching it —
// the fault-injection primitive chaos tests use to simulate an NF crash.
// RepairNF (or the standby promotion path) recovers it.
func (n *Node) KillNF(graphID, nfID string) error { return n.orch.KillNF(graphID, nfID) }

// RepairNF recovers a killed NF: promoting its warm standby when one is
// armed, re-running the replica repair path for scaled NFs, and restarting
// in place otherwise.
func (n *Node) RepairNF(graphID, nfID string) error { return n.orch.RepairNF(graphID, nfID) }

// PromoteStandby swaps an NF's warm standby instance into the active role:
// salvageable flow state moves over, the LSI steering repoints atomically,
// and the old instance detaches.
func (n *Node) PromoteStandby(graphID, nfID string) error {
	return n.orch.PromoteStandby(graphID, nfID)
}

// StandbyNFs lists the NFs of a graph that currently have a warm standby
// attached (active-standby redundancy).
func (n *Node) StandbyNFs(graphID string) []string { return n.orch.StandbyNFs(graphID) }

// SyncStandbys replicates flow state from every active-standby NF to its
// standby and returns how many entries moved.
func (n *Node) SyncStandbys() int { return n.orch.SyncStandbys() }

// ExportNFState exports an NF's per-flow state (all replicas merged); nil
// for a stateless NF. With ImportNFState it lets the global orchestrator
// replicate state onto another node's shadow deployment.
func (n *Node) ExportNFState(graphID, nfID string) ([]FlowState, error) {
	return n.orch.ExportNFState(graphID, nfID)
}

// ImportNFState installs exported per-flow state into an NF (fanned to
// every replica and any standby; imports are idempotent).
func (n *Node) ImportNFState(graphID, nfID string, states []FlowState) error {
	return n.orch.ImportNFState(graphID, nfID, states)
}

// TotalRatePPS reports the node's observed aggregate datapath packet rate,
// feeding the global tier's saturation-aware placement.
func (n *Node) TotalRatePPS() float64 { return n.orch.TotalRatePPS() }

// NFState reports the lifecycle state of one NF of a deployed graph
// (pending, starting, attaching, running, draining, stopped, failed).
func (n *Node) NFState(graphID, nfID string) (string, bool) {
	st, ok := n.orch.NFState(graphID, nfID)
	return string(st), ok
}

// GraphIDs lists the deployed graphs.
func (n *Node) GraphIDs() []string { return n.orch.GraphIDs() }

// Graph returns a copy of the deployed version of a graph: the caller's to
// modify or hand to Update, while the node keeps running its own.
func (n *Node) Graph(id string) (*Graph, bool) {
	g, ok := n.Spec(id)
	if ok {
		g = g.Clone()
	}
	return g, ok
}

// GraphSpec returns a copy of the deployed NF-FG of a graph, as Graph does,
// safe to modify or diff while the node keeps running.
func (n *Node) GraphSpec(id string) (*Graph, bool) { return n.Graph(id) }

// Spec returns the deployed NF-FG of a graph without a copy: the value the
// node holds, which the caller must not modify. Together with Capabilities
// and Usage it makes a Node manageable by the global orchestrator (package
// internal/global).
func (n *Node) Spec(id string) (*Graph, bool) { return n.orch.Spec(id) }

// Capabilities returns the node's capability set as strings.
func (n *Node) Capabilities() []string { return n.orch.Capabilities() }

// Placements reports the execution technology chosen per NF of a graph.
func (n *Node) Placements(id string) (map[string]Technology, bool) {
	instances, ok := n.orch.Instances(id)
	if !ok {
		return nil, false
	}
	out := make(map[string]Technology)
	for nfID, inst := range instances {
		out[nfID] = inst.Technology
	}
	return out, true
}

// InstanceRAM reports the runtime RAM footprint of one NF of a graph.
func (n *Node) InstanceRAM(graphID, nfID string) (uint64, bool) {
	instances, ok := n.orch.Instances(graphID)
	if !ok {
		return 0, false
	}
	inst, ok := instances[nfID]
	if !ok {
		return 0, false
	}
	return inst.RAM(), true
}

// InterfacePort returns the outward-facing end of a node interface, used to
// inject and collect traffic.
func (n *Node) InterfacePort(name string) (*netdev.Port, bool) {
	return n.orch.InterfacePort(name)
}

// Topology captures the live node structure (paper Figure 1).
func (n *Node) Topology() Topology { return n.orch.Topology() }

// Status reports the node's ledger usage, interfaces, graphs and per-NF
// states from what the node keeps, without rendering its Topology.
func (n *Node) Status() NodeStatus { return n.orch.Status() }

// DatapathCacheStats aggregates the microflow-cache counters of every LSI on
// the node (LSI-0 plus one per deployed graph): the hit rate of the
// fast-path datapath serving the node's traffic.
func (n *Node) DatapathCacheStats() CacheStats { return n.orch.CacheStats() }

// Metrics returns the node's metric registry: per-LSI traffic and cache
// counters, the sampled pipeline-latency histogram, resource gauges and
// control-plane operation timings. The REST interface serves it on
// GET /metrics in Prometheus text format.
func (n *Node) Metrics() *MetricsRegistry { return n.orch.Metrics() }

// WriteMetrics renders one scrape of the node registry to w in Prometheus
// text format. The global orchestrator uses this to aggregate fleet-wide
// metrics with per-node labels.
func (n *Node) WriteMetrics(w io.Writer) error { return n.orch.WriteMetrics(w) }

// Events returns the node's retained telemetry journal, oldest first: NF
// starts and stops, graph deploy/update/undeploy, steering reprogramming.
// The REST interface serves it on GET /events.
func (n *Node) Events() []Event { return n.orch.Events() }

// Clock exposes the node's virtual clock; traffic measurements read it.
func (n *Node) Clock() *execenv.VirtualClock { return n.clock }

// ImageDiskSize reports the on-disk size of an image in the node's catalog
// (Table 1's "Image size" column), e.g. "ipsec:vm".
func (n *Node) ImageDiskSize(image string) (uint64, error) {
	return n.store.ImageDiskSize(image)
}

// Usage reports the node resource consumption.
func (n *Node) Usage() (usedCPUMillis, totalCPUMillis int, usedRAM, totalRAM uint64) {
	return n.pool.Usage()
}

// CaptureInterface streams the traffic crossing a node interface to w in
// pcap format (openable with Wireshark/tcpdump). The returned stop function
// detaches the capture; exactly one capture per interface can be active.
func (n *Node) CaptureInterface(name string, w io.Writer) (stop func(), err error) {
	port, ok := n.orch.InterfacePort(name)
	if !ok {
		return nil, fmt.Errorf("un: no interface %q", name)
	}
	return rest.Capture(port, w)
}

// Handler returns the node's REST interface as an http.Handler.
func (n *Node) Handler() http.Handler { return n.rest }

// ListenAndServe runs the REST interface on addr, blocking.
func (n *Node) ListenAndServe(addr string) error {
	if addr == "" {
		return fmt.Errorf("un: empty listen address")
	}
	return http.ListenAndServe(addr, n.rest)
}
