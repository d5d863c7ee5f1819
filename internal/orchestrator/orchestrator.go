// Package orchestrator implements the local orchestrator of the NFV compute
// node (paper Figure 1): it receives Network Function Forwarding Graphs,
// decides VNF-vs-NNF placement per NF, instantiates the functions through
// the compute manager's drivers, creates one Logical Switch Instance per
// graph plus the base LSI-0 classifier, and programs traffic steering
// through per-LSI OpenFlow controllers.
package orchestrator

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compute"
	"repro/internal/execenv"
	"repro/internal/netdev"
	"repro/internal/nf"
	"repro/internal/nffg"
	"repro/internal/openflow"
	"repro/internal/policy"
	"repro/internal/repository"
	"repro/internal/resources"
	"repro/internal/telemetry"
	"repro/internal/vswitch"
)

// Config wires the orchestrator to the node's services.
type Config struct {
	// NodeName labels the node.
	NodeName string
	// Interfaces are the node's physical interface names, attached to
	// LSI-0 in order.
	Interfaces []string
	// Resources is the node ledger (capabilities + CPU/RAM).
	Resources *resources.Pool
	// Repo is the VNF repository.
	Repo *repository.Repository
	// Compute is the compute manager with registered drivers.
	Compute *compute.Manager
	// Clock is the shared virtual clock (optional).
	Clock *execenv.VirtualClock
	// Journal receives the node's structured telemetry events; nil gets a
	// private journal of telemetry.DefaultJournalDepth entries.
	Journal *telemetry.Journal
	// Model is the execution-environment cost model the scheduler quotes
	// per-packet candidate costs from; nil uses the Table-1 calibration.
	Model *execenv.CostModel
	// Policy ranks placement candidates; nil uses policy.FirstFit (the
	// paper's static native > docker > dpdk > vm preference).
	Policy policy.PlacementPolicy
	// MaxParallelStarts bounds how many NFs of one graph boot concurrently
	// (default DefaultMaxParallelStarts).
	MaxParallelStarts int
	// DrainTimeout bounds how long a flavor hot-swap waits for the
	// outgoing instance to quiesce (default DefaultDrainTimeout).
	DrainTimeout time.Duration
	// DatapathWorkers selects where every LSI the node creates runs its
	// datapath lane: 0 (the default) inline in the sender's goroutine;
	// N > 0 as N RSS-steered workers behind rings (see
	// vswitch.Options.Workers).
	DatapathWorkers int
}

// lsiConn is one switch + its control channel.
type lsiConn struct {
	sw    *vswitch.Switch
	agent *openflow.Agent
	ctrl  *openflow.Controller
	done  chan struct{}
	// portGen numbers the switch's ports (guarded by Orchestrator.mu). It
	// lives here so that it goes away with the LSI.
	portGen uint32
}

// newLSIConn builds a switch with a live OpenFlow channel over an
// in-process pipe, exactly as the un-orchestrator runs one controller per
// LSI.
func newLSIConn(name string, dpid uint64, workers int) (*lsiConn, error) {
	sw := vswitch.NewOptions(name, dpid, vswitch.Options{Workers: workers})
	ctrlSide, agentSide := net.Pipe()
	agent := openflow.NewAgent(sw, agentSide)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = agent.Run()
	}()
	ctrl, err := openflow.Connect(ctrlSide)
	if err != nil {
		agent.Stop()
		<-done
		return nil, err
	}
	return &lsiConn{sw: sw, agent: agent, ctrl: ctrl, done: done}, nil
}

func (l *lsiConn) close() {
	_ = l.ctrl.Close()
	l.agent.Stop()
	<-l.done
	// Stop the datapath workers last: the agent is gone, so nothing new is
	// steered, and Close drains whatever the rings still hold.
	l.sw.Close()
}

// nfAttachment records how one NF of a graph reaches its LSI, and where the
// NF stands in its lifecycle.
type nfAttachment struct {
	inst *compute.Instance
	// state is the NF's lifecycle state (an index into stateOrder),
	// atomic so concurrent start goroutines report progress lock-free.
	state atomic.Int32
	// cookie tags this NF's LSI-0 flows (shared-NNF steering marks), so a
	// single attachment can be detached — e.g. by a flavor hot-swap —
	// without disturbing a successor instance's flows.
	cookie uint64
	// lsiPorts maps logical NF port index -> graph-LSI port number
	// (direct attachments only).
	lsiPorts []uint32
	// lsiSide holds the LSI-side netdev ports created for this NF, for
	// teardown.
	lsiSide []*netdev.Port
	// nnfVlink is the graph-LSI port of the virtual link that carries
	// marked traffic to LSI-0 (shared native NFs only).
	nnfVlink uint32
	// nnfVlinkLSI0 is the LSI-0 side of that virtual link.
	nnfVlinkLSI0 uint32
	// lsi0Port is the LSI-0 port the shared NNF is attached to.
	lsi0Port uint32
}

// epAttachment records one endpoint's virtual link.
type epAttachment struct {
	ep nffg.Endpoint
	// graphPort is the graph-LSI port of the virtual link.
	graphPort uint32
	// lsi0Port is the LSI-0 side of the virtual link.
	lsi0Port uint32
	// cookie tags this endpoint's LSI-0 classification flows, so a single
	// endpoint can be detached in place during Update without disturbing
	// the rest of the graph's LSI-0 state.
	cookie uint64
	// vlanRegistered records that this attachment claimed its (interface,
	// VLAN) slot in vlanEPs; detachEndpoint only releases the slot then,
	// so cleaning up a failed attach cannot evict the rightful owner.
	vlanRegistered bool
}

// DeployedGraph is one running service graph.
type DeployedGraph struct {
	Graph *nffg.Graph

	lsi    *lsiConn
	cookie uint64
	// nfs holds the instance set of every NF of the graph, by NF id.
	nfs map[string]*nfSet
	eps map[string]*epAttachment // by endpoint id
}

// LSI returns the graph's switch, for inspection.
func (d *DeployedGraph) LSI() *vswitch.Switch { return d.lsi.sw }

// Controller returns the graph's steering controller, for inspection.
func (d *DeployedGraph) Controller() *openflow.Controller { return d.lsi.ctrl }

// Instances returns the graph's NF instances keyed by NF id; an NF served
// by several members reports its first.
func (d *DeployedGraph) Instances() map[string]*compute.Instance {
	out := make(map[string]*compute.Instance, len(d.nfs))
	for id, set := range d.nfs {
		out[id] = set.members[0].inst
	}
	return out
}

// Orchestrator is the node's local orchestrator.
type Orchestrator struct {
	cfg Config

	journal  *telemetry.Journal
	registry *telemetry.Registry
	metrics  *opMetrics

	lsi0 *lsiConn
	// extPorts are the outward-facing peers of the physical interfaces:
	// traffic generators inject and collect frames here.
	extPorts map[string]*netdev.Port
	// ifPorts maps interface name -> LSI-0 port number.
	ifPorts map[string]uint32

	// glmu guards gLocks, the per-graph operation locks serializing
	// Deploy/Update/Undeploy/Reflavor per graph id.
	glmu   sync.Mutex
	gLocks map[string]*graphLock

	mu       sync.Mutex
	graphs   map[string]*DeployedGraph
	dpidGen  uint64
	cookieGn uint64
	// instGen numbers the instances the node ever launched; atomic because
	// instances are named while they boot, outside mu.
	instGen atomic.Uint64
	// rates holds the last per-graph LSI rx probe, backing the observed
	// packet rate the cost-driven policy consumes.
	rates map[string]*rateProbe
	// vlanEPs guards (interface, vlan) uniqueness across graphs.
	vlanEPs map[string]string // "if/vlan" -> graph id
	// internalGroups tracks EPInternal rendezvous: group -> members.
	internalGroups map[string][]groupMember
	// nnfPorts tracks shared NNF attachments on LSI-0 by runtime name.
	nnfPorts map[string]uint32
}

type groupMember struct {
	graphID  string
	epID     string
	lsi0Port uint32
	// cookie is the member endpoint's flow cookie; the rendezvous pair
	// flows live under the cookie of whichever member joined second.
	cookie uint64
}

// New builds the orchestrator and its base LSI with the node's physical
// interfaces attached.
func New(cfg Config) (*Orchestrator, error) {
	if cfg.Resources == nil || cfg.Repo == nil || cfg.Compute == nil {
		return nil, fmt.Errorf("orchestrator: incomplete config")
	}
	if cfg.NodeName == "" {
		cfg.NodeName = "un-node"
	}
	journal := cfg.Journal
	if journal == nil {
		journal = telemetry.NewJournal(telemetry.DefaultJournalDepth)
	}
	if cfg.Policy == nil {
		cfg.Policy = policy.FirstFit{}
	}
	if cfg.Model == nil {
		m := execenv.Default()
		cfg.Model = &m
	}
	o := &Orchestrator{
		cfg:            cfg,
		journal:        journal,
		registry:       telemetry.NewRegistry(),
		metrics:        newOpMetrics(),
		extPorts:       make(map[string]*netdev.Port),
		ifPorts:        make(map[string]uint32),
		gLocks:         make(map[string]*graphLock),
		graphs:         make(map[string]*DeployedGraph),
		rates:          make(map[string]*rateProbe),
		vlanEPs:        make(map[string]string),
		internalGroups: make(map[string][]groupMember),
		nnfPorts:       make(map[string]uint32),
	}
	lsi0, err := newLSIConn(cfg.NodeName+"/lsi-0", o.nextDPID(), cfg.DatapathWorkers)
	if err != nil {
		return nil, err
	}
	o.lsi0 = lsi0
	for _, ifName := range cfg.Interfaces {
		if _, dup := o.extPorts[ifName]; dup {
			lsi0.close()
			return nil, fmt.Errorf("orchestrator: duplicate interface %q", ifName)
		}
		ext, sw := netdev.Veth(ifName+"/ext", ifName)
		num := lsi0.nextPort()
		if err := lsi0.sw.AddPort(num, sw); err != nil {
			lsi0.close()
			return nil, err
		}
		o.extPorts[ifName] = ext
		o.ifPorts[ifName] = num
	}
	o.registry.Register(o)
	return o, nil
}

// Close tears down every graph and the base LSI.
func (o *Orchestrator) Close() {
	for _, id := range o.GraphIDs() {
		_ = o.Undeploy(id)
	}
	o.lsi0.close()
}

// LSI0 returns the base switch, for inspection.
func (o *Orchestrator) LSI0() *vswitch.Switch { return o.lsi0.sw }

// CacheStats aggregates the microflow-cache counters of LSI-0 and every
// graph LSI: the node-level fast-path figure reported next to flow stats.
func (o *Orchestrator) CacheStats() vswitch.CacheStats {
	o.mu.Lock()
	defer o.mu.Unlock()
	agg := o.lsi0.sw.CacheStats()
	for _, d := range o.graphs {
		cs := d.lsi.sw.CacheStats()
		agg.Hits += cs.Hits
		agg.Misses += cs.Misses
		agg.Entries += cs.Entries
	}
	return agg
}

// InterfacePort returns the outward-facing peer of a physical interface;
// tests and traffic generators send and receive node traffic through it.
func (o *Orchestrator) InterfacePort(name string) (*netdev.Port, bool) {
	p, ok := o.extPorts[name]
	return p, ok
}

// GraphIDs returns the ids of the deployed graphs, sorted.
func (o *Orchestrator) GraphIDs() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]string, 0, len(o.graphs))
	for id := range o.graphs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Graph returns a deployed graph.
func (o *Orchestrator) Graph(id string) (*DeployedGraph, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	d, ok := o.graphs[id]
	return d, ok
}

// GraphSpec returns a copy of the deployed NF-FG of a graph, safe to diff
// against a desired version while the orchestrator keeps running.
func (o *Orchestrator) GraphSpec(id string) (*nffg.Graph, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	d, ok := o.graphs[id]
	if !ok {
		return nil, false
	}
	return d.Graph.Clone(), true
}

// Usage reports the node's resource-ledger consumption.
func (o *Orchestrator) Usage() (usedCPU, totalCPU int, usedRAM, totalRAM uint64) {
	return o.cfg.Resources.Usage()
}

// Capabilities returns the node's capability set as strings.
func (o *Orchestrator) Capabilities() []string {
	caps := o.cfg.Resources.Capabilities()
	out := make([]string, len(caps))
	for i, c := range caps {
		out[i] = string(c)
	}
	return out
}

func (o *Orchestrator) nextDPID() uint64 {
	o.dpidGen++
	return o.dpidGen
}

func (o *Orchestrator) nextCookie() uint64 {
	o.cookieGn++
	return o.cookieGn
}

func (l *lsiConn) nextPort() uint32 {
	l.portGen++
	return l.portGen
}

// Deploy validates, schedules and instantiates a graph, then programs
// traffic steering and brings every NF's set to the replica count and
// redundancy its spec asks for. On any failure the partial deployment is
// rolled back: a graph that cannot reach its requested scale, or whose
// standby cannot start, is not deployed at all.
func (o *Orchestrator) Deploy(g *nffg.Graph) error {
	start := time.Now()
	err := o.deploy(g)
	o.metrics.deployLatency.Observe(time.Since(start).Seconds())
	if err != nil {
		o.metrics.deployFailures.Inc()
		return err
	}
	o.metrics.deploys.Inc()
	o.journal.Recordf(telemetry.EventDeploy, o.cfg.NodeName, g.ID,
		fmt.Sprintf("%d NFs, %d rules", len(g.NFs), len(g.Rules)))
	return nil
}

func (o *Orchestrator) deploy(g *nffg.Graph) error {
	if err := g.Validate(); err != nil {
		return err
	}
	gl := o.lockGraph(g.ID)
	defer o.unlockGraph(g.ID, gl)

	o.mu.Lock()
	if _, dup := o.graphs[g.ID]; dup {
		o.mu.Unlock()
		return fmt.Errorf("orchestrator: graph %q already deployed (use Update)", g.ID)
	}
	placements, err := o.schedule(g)
	if err != nil {
		o.mu.Unlock()
		return err
	}
	dpid := o.nextDPID()
	cookie := o.nextCookie()
	o.mu.Unlock()

	lsi, err := newLSIConn(fmt.Sprintf("%s/lsi-%s", o.cfg.NodeName, g.ID), dpid, o.cfg.DatapathWorkers)
	if err != nil {
		return err
	}
	d := &DeployedGraph{
		Graph:  g.Clone(),
		lsi:    lsi,
		cookie: cookie,
		nfs:    make(map[string]*nfSet),
		eps:    make(map[string]*epAttachment),
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	// Every NF's first member boots concurrently (the graph lock keeps
	// same-graph operations out while o.mu is released).
	atts, err := o.launch(d, placements, len(placements))
	if err != nil {
		lsi.close()
		return err
	}
	for i, pl := range placements {
		d.nfs[pl.NF.ID] = &nfSet{members: []*nfAttachment{atts[i]}}
	}
	for _, ep := range g.Endpoints {
		att, err := o.attachEndpoint(d, ep)
		if err != nil {
			o.teardown(d)
			return err
		}
		d.eps[ep.ID] = att
	}
	if err := o.program(d); err != nil {
		o.teardown(d)
		return err
	}
	if err := o.reconcile(d); err != nil {
		o.teardown(d)
		return err
	}
	o.graphs[g.ID] = d
	return nil
}

// attachNF wires one NF instance to the graph LSI (direct) or to LSI-0
// (shared native NF behind the adaptation layer).
func (o *Orchestrator) attachNF(d *DeployedGraph, att *nfAttachment) error {
	inst := att.inst
	if inst.Shared {
		// The shared NNF runtime exposes one adapted port attached to
		// LSI-0 (once per instance); the graph reaches it through a
		// dedicated virtual link.
		lsi0Port, attached := o.nnfPorts[inst.Runtime.Name()]
		if !attached {
			lsiSide := netdev.NewPort(inst.Runtime.Name() + "/lsi0")
			if err := netdev.Connect(inst.Runtime.Port(0), lsiSide); err != nil {
				return err
			}
			lsi0Port = o.lsi0.nextPort()
			if err := o.lsi0.sw.AddPort(lsi0Port, lsiSide); err != nil {
				return err
			}
			o.nnfPorts[inst.Runtime.Name()] = lsi0Port
		}
		att.lsi0Port = lsi0Port
		// Virtual link graph-LSI <-> LSI-0 for the marked traffic.
		gSide, zSide := netdev.Veth(
			fmt.Sprintf("%s.%s/vl-nnf", d.Graph.ID, inst.Name),
			fmt.Sprintf("lsi0/vl-nnf-%s", inst.Name),
		)
		gPort := d.lsi.nextPort()
		if err := d.lsi.sw.AddPort(gPort, gSide); err != nil {
			return err
		}
		zPort := o.lsi0.nextPort()
		if err := o.lsi0.sw.AddPort(zPort, zSide); err != nil {
			return err
		}
		att.nnfVlink = gPort
		att.nnfVlinkLSI0 = zPort
		att.lsiSide = append(att.lsiSide, gSide, zSide)
		// LSI-0 steering for the marks: toward the NNF and back. The flows
		// live under a per-attachment cookie so a flavor hot-swap can
		// retire one instance's marks without touching its successor's.
		if att.cookie == 0 {
			att.cookie = o.nextCookie()
		}
		for _, mark := range inst.InMarks {
			err := o.lsi0.ctrl.InstallFlow(0, 300, att.cookie,
				vswitch.MatchAll().WithInPort(zPort).WithVLAN(mark),
				[]vswitch.Action{vswitch.Output(lsi0Port)})
			if err != nil {
				return err
			}
		}
		for _, mark := range inst.OutMarks {
			err := o.lsi0.ctrl.InstallFlow(0, 300, att.cookie,
				vswitch.MatchAll().WithInPort(lsi0Port).WithVLAN(mark),
				[]vswitch.Action{vswitch.Output(zPort)})
			if err != nil {
				return err
			}
		}
		return o.lsi0.ctrl.Barrier()
	}
	// Direct attachment: one LSI port per NF port.
	att.lsiPorts = make([]uint32, inst.Runtime.NumPorts())
	for i := 0; i < inst.Runtime.NumPorts(); i++ {
		lsiSide := netdev.NewPort(fmt.Sprintf("%s/p%d", inst.Name, i))
		if err := netdev.Connect(inst.Runtime.Port(i), lsiSide); err != nil {
			return err
		}
		num := d.lsi.nextPort()
		if err := d.lsi.sw.AddPort(num, lsiSide); err != nil {
			return err
		}
		att.lsiPorts[i] = num
		att.lsiSide = append(att.lsiSide, lsiSide)
	}
	return nil
}

// attachEndpoint builds the virtual link between the graph LSI and LSI-0
// for one endpoint, and installs the LSI-0 classification rules. On any
// failure its partial state (ports, flows, bookkeeping) is removed before
// returning, so a failed in-place Update can be retried without leaking.
func (o *Orchestrator) attachEndpoint(d *DeployedGraph, ep nffg.Endpoint) (_ *epAttachment, err error) {
	gSide, zSide := netdev.Veth(
		fmt.Sprintf("%s.%s/vl", d.Graph.ID, ep.ID),
		fmt.Sprintf("lsi0/vl-%s-%s", d.Graph.ID, ep.ID),
	)
	gPort := d.lsi.nextPort()
	if err := d.lsi.sw.AddPort(gPort, gSide); err != nil {
		return nil, err
	}
	zPort := o.lsi0.nextPort()
	if err := o.lsi0.sw.AddPort(zPort, zSide); err != nil {
		netdev.Disconnect(gSide)
		_ = d.lsi.sw.RemovePort(gPort)
		return nil, err
	}
	att := &epAttachment{ep: ep, graphPort: gPort, lsi0Port: zPort, cookie: o.nextCookie()}
	defer func() {
		if err != nil {
			o.detachEndpoint(d, att)
		}
	}()

	switch ep.Type {
	case nffg.EPInterface:
		ifPort, ok := o.ifPorts[ep.Interface]
		if !ok {
			return nil, fmt.Errorf("orchestrator: graph %q: endpoint %q: no interface %q on node",
				d.Graph.ID, ep.ID, ep.Interface)
		}
		// Classify untagged traffic from the interface to the graph,
		// and graph egress back out the interface.
		if err := o.lsi0.ctrl.InstallFlow(0, 100, att.cookie,
			vswitch.MatchAll().WithInPort(ifPort),
			[]vswitch.Action{vswitch.Output(zPort)}); err != nil {
			return nil, err
		}
		if err := o.lsi0.ctrl.InstallFlow(0, 100, att.cookie,
			vswitch.MatchAll().WithInPort(zPort),
			[]vswitch.Action{vswitch.Output(ifPort)}); err != nil {
			return nil, err
		}
	case nffg.EPVLAN:
		key := fmt.Sprintf("%s/%d", ep.Interface, ep.VLANID)
		if owner, used := o.vlanEPs[key]; used {
			return nil, fmt.Errorf("orchestrator: graph %q: endpoint %q: VLAN %d on %q already used by graph %q",
				d.Graph.ID, ep.ID, ep.VLANID, ep.Interface, owner)
		}
		ifPort, ok := o.ifPorts[ep.Interface]
		if !ok {
			return nil, fmt.Errorf("orchestrator: graph %q: endpoint %q: no interface %q on node",
				d.Graph.ID, ep.ID, ep.Interface)
		}
		// Tagged ingress: pop and hand to the graph; egress: push and
		// send out. VLAN classification outranks plain interface rules.
		if err := o.lsi0.ctrl.InstallFlow(0, 200, att.cookie,
			vswitch.MatchAll().WithInPort(ifPort).WithVLAN(ep.VLANID),
			[]vswitch.Action{vswitch.PopVLAN(), vswitch.Output(zPort)}); err != nil {
			return nil, err
		}
		if err := o.lsi0.ctrl.InstallFlow(0, 200, att.cookie,
			vswitch.MatchAll().WithInPort(zPort),
			[]vswitch.Action{vswitch.PushVLAN(ep.VLANID), vswitch.Output(ifPort)}); err != nil {
			return nil, err
		}
		o.vlanEPs[key] = d.Graph.ID
		att.vlanRegistered = true
	case nffg.EPInternal:
		members := o.internalGroups[ep.InternalGroup]
		if len(members) >= 2 {
			return nil, fmt.Errorf("orchestrator: graph %q: endpoint %q: internal group %q already has two members",
				d.Graph.ID, ep.ID, ep.InternalGroup)
		}
		if len(members) == 1 {
			peer := members[0]
			if err := o.lsi0.ctrl.InstallFlow(0, 150, att.cookie,
				vswitch.MatchAll().WithInPort(zPort),
				[]vswitch.Action{vswitch.Output(peer.lsi0Port)}); err != nil {
				return nil, err
			}
			if err := o.lsi0.ctrl.InstallFlow(0, 150, att.cookie,
				vswitch.MatchAll().WithInPort(peer.lsi0Port),
				[]vswitch.Action{vswitch.Output(zPort)}); err != nil {
				return nil, err
			}
		}
		o.internalGroups[ep.InternalGroup] = append(members,
			groupMember{graphID: d.Graph.ID, epID: ep.ID, lsi0Port: zPort, cookie: att.cookie})
	}
	if err := o.lsi0.ctrl.Barrier(); err != nil {
		return nil, err
	}
	return att, nil
}

// detachEndpoint reverses attachEndpoint: it removes the endpoint's LSI-0
// classification flows, its virtual-link ports on both switches, and the
// cross-graph bookkeeping. Used by teardown and by in-place endpoint removal
// during Update.
func (o *Orchestrator) detachEndpoint(d *DeployedGraph, att *epAttachment) {
	o.lsi0.sw.DeleteFlows(att.cookie)
	if p := o.lsi0.sw.Port(att.lsi0Port); p != nil {
		netdev.Disconnect(p)
	}
	_ = o.lsi0.sw.RemovePort(att.lsi0Port)
	_ = d.lsi.sw.RemovePort(att.graphPort)
	switch att.ep.Type {
	case nffg.EPVLAN:
		if att.vlanRegistered {
			delete(o.vlanEPs, fmt.Sprintf("%s/%d", att.ep.Interface, att.ep.VLANID))
		}
	case nffg.EPInternal:
		// Touch the group only if this endpoint actually joined it (a
		// failed attach never did). The rendezvous pair flows live under
		// the cookie of whichever member joined second; drop every
		// member's flows so no stale rule keeps pointing at the removed
		// port.
		members := o.internalGroups[att.ep.InternalGroup]
		joined := false
		for _, m := range members {
			if m.graphID == d.Graph.ID && m.epID == att.ep.ID {
				joined = true
				break
			}
		}
		if !joined {
			break
		}
		kept := members[:0]
		for _, m := range members {
			o.lsi0.sw.DeleteFlows(m.cookie)
			if m.graphID != d.Graph.ID || m.epID != att.ep.ID {
				kept = append(kept, m)
			}
		}
		if len(kept) == 0 {
			delete(o.internalGroups, att.ep.InternalGroup)
		} else {
			o.internalGroups[att.ep.InternalGroup] = kept
		}
	}
}

// Undeploy removes a graph and all its state.
func (o *Orchestrator) Undeploy(id string) error {
	start := time.Now()
	err := o.undeploy(id)
	o.metrics.undeployLatency.Observe(time.Since(start).Seconds())
	if err != nil {
		o.metrics.undeployFailures.Inc()
		return err
	}
	o.metrics.undeploys.Inc()
	o.journal.Recordf(telemetry.EventUndeploy, o.cfg.NodeName, id, "")
	return nil
}

func (o *Orchestrator) undeploy(id string) error {
	gl := o.lockGraph(id)
	defer o.unlockGraph(id, gl)
	o.mu.Lock()
	defer o.mu.Unlock()
	d, ok := o.graphs[id]
	if !ok {
		return fmt.Errorf("orchestrator: graph %q not deployed", id)
	}
	o.teardown(d)
	delete(o.graphs, id)
	delete(o.rates, id)
	return nil
}

// unwire stops one instance and removes whatever attachNF wired for it:
// LSI-0 flows under the attachment cookie, virtual-link and direct ports,
// and — when the last user of a shared NNF leaves — its LSI-0 port. Safe on
// a partially attached instance. Callers hold o.mu.
func (o *Orchestrator) unwire(d *DeployedGraph, att *nfAttachment) {
	if drv, ok := o.cfg.Compute.Driver(att.inst.Technology); ok {
		wasShared := att.inst.Shared
		name := att.inst.Runtime.Name()
		_ = drv.Stop(att.inst)
		// If the shared NNF instance fully stopped, detach its LSI-0 port.
		if wasShared && !att.inst.Runtime.Running() {
			if num, attached := o.nnfPorts[name]; attached {
				if p := o.lsi0.sw.Port(num); p != nil {
					netdev.Disconnect(p)
				}
				_ = o.lsi0.sw.RemovePort(num)
				delete(o.nnfPorts, name)
			}
		}
	}
	if att.cookie != 0 {
		o.lsi0.sw.DeleteFlows(att.cookie)
	}
	for _, p := range att.lsiSide {
		netdev.Disconnect(p)
	}
	for _, num := range att.lsiPorts {
		_ = d.lsi.sw.RemovePort(num)
	}
	if att.nnfVlink != 0 {
		_ = d.lsi.sw.RemovePort(att.nnfVlink)
	}
	if att.nnfVlinkLSI0 != 0 {
		_ = o.lsi0.sw.RemovePort(att.nnfVlinkLSI0)
	}
}

// detachNF is the only way a launched instance goes away: it is stopped,
// unwired and accounted as an nf-stop. Callers hold o.mu.
func (o *Orchestrator) detachNF(d *DeployedGraph, nfID string, att *nfAttachment) {
	o.setState(d.Graph.ID, nfID, att, StateStopped)
	o.unwire(d, att)
	o.metrics.nfStops.Inc()
	o.journal.Recordf(telemetry.EventNFStop, o.cfg.NodeName, d.Graph.ID,
		fmt.Sprintf("%s as %s", nfID, att.inst.Technology))
}

// retire stops every instance of one NF's set — members, standby and
// whatever is still draining — and forgets the set. Steering must no longer
// point at the NF, or be about to be repointed. Callers hold o.mu.
func (o *Orchestrator) retire(d *DeployedGraph, nfID string) {
	for _, att := range d.nfs[nfID].all() {
		o.detachNF(d, nfID, att)
	}
	delete(d.nfs, nfID)
}

// teardown reverses a deployment. Safe on partially-built graphs.
func (o *Orchestrator) teardown(d *DeployedGraph) {
	// Remove LSI-0 state installed under the graph's cookie.
	o.lsi0.sw.DeleteFlows(d.cookie)
	for nfID := range d.nfs {
		o.retire(d, nfID)
	}
	// Detach endpoint virtual links from LSI-0 and bookkeeping.
	for epID, att := range d.eps {
		o.detachEndpoint(d, att)
		delete(d.eps, epID)
	}
	d.lsi.close()
}

// rateProbe is the last observed-rate sample of one graph's LSI.
type rateProbe struct {
	rx uint64
	at time.Time
}

// observedRateLocked estimates the graph's current datapath packet rate
// (packets/second) from the delta of its LSI rx counter since the previous
// probe: the telemetry input of the cost-driven placement policy. Returns 0
// for unknown graphs and on the first probe. Callers hold o.mu.
func (o *Orchestrator) observedRateLocked(id string) float64 {
	d, ok := o.graphs[id]
	if !ok {
		return 0
	}
	rx := d.lsi.sw.PacketsProcessed()
	now := time.Now()
	prev := o.rates[id]
	o.rates[id] = &rateProbe{rx: rx, at: now}
	if prev == nil || !now.After(prev.at) || rx < prev.rx {
		return 0
	}
	return float64(rx-prev.rx) / now.Sub(prev.at).Seconds()
}

// Update applies a new version of a deployed graph. NFs and endpoints are
// diffed individually; steering rules are recompiled wholesale; a changed
// replica count or redundancy mode is a transition of the NF's set, not a
// config change.
func (o *Orchestrator) Update(g *nffg.Graph) error {
	start := time.Now()
	err := o.update(g)
	o.metrics.updateLatency.Observe(time.Since(start).Seconds())
	if err != nil {
		o.metrics.updateFailures.Inc()
		return err
	}
	o.metrics.updates.Inc()
	o.journal.Recordf(telemetry.EventUpdate, o.cfg.NodeName, g.ID,
		fmt.Sprintf("%d NFs, %d rules", len(g.NFs), len(g.Rules)))
	return nil
}

func (o *Orchestrator) update(g *nffg.Graph) error {
	if err := g.Validate(); err != nil {
		return err
	}
	gl := o.lockGraph(g.ID)
	defer o.unlockGraph(g.ID, gl)
	o.mu.Lock()
	defer o.mu.Unlock()
	d, ok := o.graphs[g.ID]
	if !ok {
		return fmt.Errorf("orchestrator: graph %q not deployed (use Deploy)", g.ID)
	}
	diff := nffg.Compute(d.Graph, g)
	if diff.Empty() {
		return o.reconcile(d)
	}
	// 1. Schedule the added NFs against the deployed spec and launch them;
	// a failure here has touched nothing.
	var placements []Placement
	if len(diff.AddedNFs) > 0 {
		var err error
		if placements, err = o.schedule(&nffg.Graph{ID: g.ID, NFs: diff.AddedNFs}); err != nil {
			return err
		}
	}
	atts, err := o.launch(d, placements, len(placements))
	if err != nil {
		return err
	}
	for i, pl := range placements {
		d.nfs[pl.NF.ID] = &nfSet{members: []*nfAttachment{atts[i]}}
	}
	// restarted tracks the NFs this update replaced for a config change; a
	// failure past this point rolls back exactly what it did — added NFs
	// are retired, restarted NFs are put back on the previous spec's
	// configuration — leaving the prior deployment intact.
	var restarted []string
	fail := func(err error) error {
		for _, pl := range placements {
			o.retire(d, pl.NF.ID)
		}
		for _, nfID := range restarted {
			// d.Graph still holds the pre-update spec here (step 4
			// restores it before failing).
			if prev := d.Graph.FindNF(nfID); prev != nil {
				_ = o.restart(d, *prev)
			}
		}
		if len(restarted) > 0 {
			// The reinstated instances sit on fresh LSI ports: repoint
			// the (pre-update) steering at them.
			_ = o.reprogram(d)
		}
		return err
	}
	// 2. Changed NFs: reconfigure every instance of the set in place —
	// members and standby alike — when all their drivers and processors
	// support it, otherwise stop and restart the set with the new
	// configuration: a changed spec must never leave stale config running,
	// in service or waiting to be promoted into it. The journal records
	// which path each NF took.
	for _, n := range diff.ChangedNFs {
		set, exists := d.nfs[n.ID]
		// A change to the replica count alone is for reconcile below; the
		// instances keep running.
		if prev := d.Graph.FindNF(n.ID); !exists || (prev != nil && equalIgnoringReplicas(*prev, n)) {
			continue
		}
		all := set.all()
		var inPlace []nf.Configurer
		for _, att := range all {
			drv, reg := o.cfg.Compute.Driver(att.inst.Technology)
			cfgr, configurable := att.inst.Runtime.Processor().(nf.Configurer)
			if reg && drv.Caps().SupportsReconfigure && configurable {
				inPlace = append(inPlace, cfgr)
			}
		}
		if len(inPlace) == len(all) {
			for _, cfgr := range inPlace {
				if err := cfgr.Configure(n.Config); err != nil {
					return fail(fmt.Errorf("orchestrator: update: reconfiguring %q: %w", n.ID, err))
				}
			}
			o.journal.Recordf(telemetry.EventNFConfig, o.cfg.NodeName, g.ID,
				fmt.Sprintf("%s reconfigured in place", n.ID))
			continue
		}
		if err := o.restart(d, n); err != nil {
			// restart already attempted to restore the previous instances;
			// only the earlier steps remain to roll back.
			return fail(fmt.Errorf("orchestrator: update: restarting %q with new config: %w", n.ID, err))
		}
		restarted = append(restarted, n.ID)
		o.journal.Recordf(telemetry.EventNFConfig, o.cfg.NodeName, g.ID,
			fmt.Sprintf("%s restarted (processor not reconfigurable in place)", n.ID))
	}
	// 3. Endpoints: removed ones are detached in place (their LSI-0
	// classification flows are tagged with a per-endpoint cookie), added
	// ones attached; a changed endpoint appears in the diff as
	// removed+added under the same id. The global orchestrator leans on
	// this when it restitches cross-node links after rescheduling.
	for _, ep := range diff.RemovedEPs {
		att, exists := d.eps[ep.ID]
		if !exists {
			continue
		}
		o.detachEndpoint(d, att)
		delete(d.eps, ep.ID)
	}
	for _, ep := range diff.AddedEPs {
		// Idempotency: a retry of a partially-failed update finds some
		// additions already attached; attaching them again would
		// duplicate LSI-0 state.
		if existing, dup := d.eps[ep.ID]; dup {
			if existing.ep == ep {
				continue
			}
			o.detachEndpoint(d, existing)
			delete(d.eps, ep.ID)
		}
		att, err := o.attachEndpoint(d, ep)
		if err != nil {
			return fail(fmt.Errorf("orchestrator: update: attaching endpoint %q: %w", ep.ID, err))
		}
		d.eps[ep.ID] = att
	}
	// 4. Recompile steering against the new spec and repoint it with one
	// atomic snapshot swap: the datapath sees the old complete rule set or
	// the new one, never the gap in between.
	oldGraph := d.Graph
	d.Graph = g.Clone()
	if err := o.reprogram(d); err != nil {
		d.Graph = oldGraph
		return fail(err)
	}
	o.metrics.steeringRules.Add(uint64(len(d.Graph.Rules)))
	o.journal.Recordf(telemetry.EventFlowMod, o.cfg.NodeName, g.ID,
		fmt.Sprintf("%d rules swapped on %s", len(d.Graph.Rules), o.lsiLabel(d.lsi.sw)))
	// 5. Retire removed NFs last, after steering stopped referencing them,
	// so their traffic is re-steered before the ports disappear.
	for _, n := range diff.RemovedNFs {
		if _, exists := d.nfs[n.ID]; exists {
			o.retire(d, n.ID)
		}
	}
	return o.reconcile(d)
}

// restart replaces every instance of a changed NF's set with a fresh one
// running the new configuration: the fallback path of a graph update when
// in-place reconfiguration is unsupported, and of a repair when nothing
// survives to take over. The old instances stop before the new ones start
// — a non-sharable NNF or an exhausted flavor cannot run twice — so the NF
// is briefly out of the datapath and its flow state does not survive (the
// new configuration may invalidate it); the set's shape does: each instance
// comes back in the technology it ran in (the policy places an NF's first
// instance only, and what it would answer for one instance need not host
// them all), the bucket map is kept. Steering still points at the old ports
// until the caller reprograms it. If the new instances cannot start, the
// previous spec's are restored best-effort so the graph is not left with a
// hole its steering still points into. Callers hold the graph's operation
// lock and o.mu.
func (o *Orchestrator) restart(d *DeployedGraph, n nffg.NF) error {
	set := d.nfs[n.ID]
	old, size := set.all(), len(set.members) // members, then the standby: nothing drains under the graph lock
	// While o.mu is released for the boot, readers see the NF absent rather
	// than a set without members.
	o.retire(d, n.ID)
	relaunch := func(n nffg.NF) error {
		pls := make([]Placement, len(old))
		for i, att := range old {
			pl, err := o.placementAs(d.Graph.ID, n, att.inst.Technology)
			if err != nil {
				return fmt.Errorf("orchestrator: graph %q: NF %q: %w", d.Graph.ID, n.ID, err)
			}
			pls[i] = pl
		}
		atts, err := o.launch(d, pls, size)
		if err != nil {
			return err
		}
		set.members, set.draining, set.standby = atts[:size], nil, nil
		if len(atts) > size {
			set.standby = atts[size]
		}
		d.nfs[n.ID] = set
		return nil
	}
	err := relaunch(n)
	if err == nil {
		return nil
	}
	// The restored instances sit on fresh LSI ports, so the steering must be
	// repointed at them too (d.Graph still is the spec they came from).
	if prev := d.Graph.FindNF(n.ID); prev != nil {
		rerr := relaunch(*prev)
		if rerr == nil {
			rerr = o.reprogram(d)
		}
		if rerr != nil {
			o.journal.Recordf(telemetry.EventNFConfig, o.cfg.NodeName, d.Graph.ID,
				fmt.Sprintf("%s lost: restart failed (%v), recovery failed (%v)", n.ID, err, rerr))
		} else {
			o.journal.Recordf(telemetry.EventNFConfig, o.cfg.NodeName, d.Graph.ID,
				fmt.Sprintf("%s restored to previous config after failed restart", n.ID))
		}
	}
	return err
}

// reconcile brings every NF's set in line with the deployed spec: its
// replica count and whether it keeps a standby. Deploy and Update end with
// it. Callers hold the graph's operation lock and o.mu.
func (o *Orchestrator) reconcile(d *DeployedGraph) error {
	for _, n := range d.Graph.NFs {
		set, ok := d.nfs[n.ID]
		if !ok {
			continue
		}
		if err := o.resize(d, n, set, n.Replicas, n.Redundancy == nffg.RedundancyActiveStandby); err != nil {
			return err
		}
	}
	return nil
}

// reprogram recompiles the graph's steering against its current spec and
// instance sets and repoints the LSI with one atomic snapshot swap. Callers
// hold o.mu.
func (o *Orchestrator) reprogram(d *DeployedGraph) error {
	entries, err := o.compileEntries(d, d.cookie)
	if err != nil {
		return err
	}
	_, err = d.lsi.sw.SwapFlows(d.cookie, entries)
	return err
}
