// Package orchestrator implements the local orchestrator of the NFV compute
// node (paper Figure 1): it receives Network Function Forwarding Graphs,
// decides VNF-vs-NNF placement per NF, instantiates the functions through
// the compute manager's drivers, creates one Logical Switch Instance per
// graph plus the base LSI-0 classifier, and programs traffic steering
// through per-LSI OpenFlow controllers.
//
// Every change to a deployed graph is one node transition (plan.go): a
// pure plan(d, g) decides flavours once over the whole graph, the
// instance sets, the endpoints and the ledger demand, and execute applies
// it with one undo path. Deploy is the plan from an empty graph, Update
// and Scale the plan from the deployed one, Undeploy the plan to an empty
// graph, Plan (the dry-run) the same plan rendered and not executed; a set
// transition (reflavor, promotion, repair) is an execution with one NF's
// wanted set. A changed spec that some instance cannot take in place
// restarts the NF's set as a step of the plan, undone by the same undo.
package orchestrator

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compute"
	"repro/internal/execenv"
	"repro/internal/netdev"
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
	sw   *vswitch.Switch
	ctrl *openflow.Controller
	// graph marks a graph LSI: every entry it holds is its graph's, under
	// one cookie, committed whole by program.
	graph bool
	// Port numbering (guarded by Orchestrator.mu; it goes away with the
	// LSI). nextPort hands out the lowest free number, so numbers stay
	// within the peak count of live ports. A removed port's number is
	// free again only once no installed entry can name it: until then it
	// is held. A graph LSI holds every removed number until its next
	// whole-set commit succeeds (freeHeld); on LSI-0, where each owner
	// deletes its own entries before removing its ports, only a number
	// whose deleting commit failed is held, and for good.
	top  uint32   // highest number handed out
	free []uint32 // released numbers below top, ascending
	held []uint32
}

// newLSIConn builds a switch and its controller, one per LSI as the
// un-orchestrator runs them. The switch is in this process, so the channel
// is a synchronous call into its agent (openflow.Local), with no goroutine.
func newLSIConn(name string, dpid uint64, workers int) *lsiConn {
	sw := vswitch.NewOptions(name, dpid, vswitch.Options{Workers: workers})
	return &lsiConn{sw: sw, ctrl: openflow.Local(sw)}
}

func (l *lsiConn) close() {
	_ = l.ctrl.Close()
	l.sw.Close() // the workers last: Close drains whatever their rings hold
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
	// unwire.
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
// by several members reports its first. The sets change under the
// orchestrator's lock: a reader beside running operations calls
// Orchestrator.Instances.
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
	rates map[string]rateProbe
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
		rates:          make(map[string]rateProbe),
		vlanEPs:        make(map[string]string),
		internalGroups: make(map[string][]groupMember),
		nnfPorts:       make(map[string]uint32),
	}
	o.lsi0 = newLSIConn(cfg.NodeName+"/lsi-0", o.nextDPID(), cfg.DatapathWorkers)
	for _, ifName := range cfg.Interfaces {
		if _, dup := o.extPorts[ifName]; dup {
			o.lsi0.close()
			return nil, fmt.Errorf("orchestrator: duplicate interface %q", ifName)
		}
		ext, sw := netdev.Veth(ifName+"/ext", ifName)
		num := o.lsi0.nextPort()
		if err := o.lsi0.sw.AddPort(num, sw); err != nil {
			o.lsi0.close()
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

// Graph returns a deployed graph, for inspection. Its spec and instances
// change under o.mu: read them through Spec and Instances.
func (o *Orchestrator) Graph(id string) (*DeployedGraph, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	d, ok := o.graphs[id]
	return d, ok
}

// Spec returns the deployed NF-FG of a graph: the value the node holds,
// shared, which the caller must not modify.
func (o *Orchestrator) Spec(id string) (*nffg.Graph, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	d, ok := o.graphs[id]
	if !ok {
		return nil, false
	}
	return d.Graph, true
}

// Instances returns a graph's NF instances keyed by NF id; an NF served by
// several members reports its first.
func (o *Orchestrator) Instances(id string) (map[string]*compute.Instance, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	d, ok := o.graphs[id]
	if !ok {
		return nil, false
	}
	return d.Instances(), true
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

// nextPort hands out the lowest free port number.
func (l *lsiConn) nextPort() uint32 {
	if len(l.free) == 0 {
		l.top++
		return l.top
	}
	num := l.free[0]
	l.free = slices.Delete(l.free, 0, 1)
	return num
}

// freePort makes a removed port's number available again, unless it is
// held.
func (l *lsiConn) freePort(num uint32) {
	if slices.Contains(l.held, num) {
		return
	}
	i, _ := slices.BinarySearch(l.free, num)
	l.free = slices.Insert(l.free, i, num)
}

// holdPort keeps num from being handed out again: an installed entry may
// still name it.
func (l *lsiConn) holdPort(num uint32) {
	if !slices.Contains(l.held, num) {
		l.held = append(l.held, num)
	}
}

// removePort detaches port num. Its number is held on a graph LSI and freed
// on LSI-0 (see the numbering fields).
func (l *lsiConn) removePort(num uint32) {
	if l.sw.RemovePort(num) != nil {
		return
	}
	if l.graph {
		l.holdPort(num)
	} else {
		l.freePort(num)
	}
}

// freeHeld frees every held number of a graph LSI. The caller has just
// committed the graph's whole entry set, the only entries that name its
// ports, so none names a removed port any more.
func (l *lsiConn) freeHeld() {
	held := l.held
	l.held = l.held[:0]
	for _, num := range held {
		l.freePort(num)
	}
}

// Deploy validates, plans and instantiates a graph: a new LSI, then the
// plan from an empty graph to g (see execute). On any failure nothing of
// the graph is left: a graph that cannot reach its requested scale, or
// whose standby cannot start, is not deployed at all. The node keeps
// g.Value(): g itself when it is frozen, a copy otherwise.
func (o *Orchestrator) Deploy(g *nffg.Graph) error {
	_, err := o.put(g, putDeploy)
	return err
}

// Update applies a new version of a deployed graph: the plan from its
// deployed version to g (see execute). Running NFs keep their instances and
// technology; a changed replica count or redundancy mode is a move of the
// NF's set, not a config change. A failed update leaves the graph as it was.
// The node keeps g.Value(), as Deploy does.
func (o *Orchestrator) Update(g *nffg.Graph) error {
	_, err := o.put(g, putUpdate)
	return err
}

// Apply deploys g if it is new and updates it otherwise, decided under the
// graph's operation lock, so concurrent applies of a new id do not race each
// other: the REST PUT. The returned flag reports whether the graph existed.
func (o *Orchestrator) Apply(g *nffg.Graph) (existed bool, err error) {
	return o.put(g, putEither)
}

// putMode says which of deploy and update a put may run.
type putMode uint8

const (
	putDeploy putMode = iota
	putUpdate
	putEither
)

// put runs the deploy or the update of g that mode allows, with the graph's
// operation lock held from the existence check to the end, and accounts it
// as the verb it ran (as the one asked for when it refuses).
func (o *Orchestrator) put(g *nffg.Graph, mode putMode) (existed bool, err error) {
	gl := o.lockGraph(g.ID)
	defer o.unlockGraph(g.ID, gl)
	o.mu.Lock()
	defer o.mu.Unlock()
	d, existed := o.graphs[g.ID]
	op, event := &o.metrics.deploy, telemetry.EventDeploy
	if mode == putUpdate || mode == putEither && existed {
		op, event = &o.metrics.update, telemetry.EventUpdate
	}
	err = op.run(func() error {
		switch {
		case mode == putDeploy && existed:
			return fmt.Errorf("orchestrator: graph %q already deployed (use Update)", g.ID)
		case mode == putUpdate && !existed:
			return fmt.Errorf("orchestrator: graph %q not deployed (use Deploy)", g.ID)
		}
		if err := g.Validate(); err != nil {
			return err
		}
		if g = g.Value(); existed {
			return o.apply(d, g)
		}
		return o.deploy(g)
	})
	if err != nil {
		return existed, err
	}
	d = o.graphs[g.ID]
	o.steered(d)
	o.journal.Recordf(event, o.cfg.NodeName, g.ID, strconv.Itoa(len(g.NFs))+" NFs, "+strconv.Itoa(len(g.Rules))+" rules")
	return existed, nil
}

// deploy instantiates g, a value, as a new graph. Callers hold the graph's
// operation lock and o.mu.
func (o *Orchestrator) deploy(g *nffg.Graph) error {
	d := &DeployedGraph{
		Graph: g,
		nfs:   make(map[string]*nfSet),
		eps:   make(map[string]*epAttachment),
	}
	p, err := o.plan(d, g)
	if err != nil {
		return err
	}
	d.cookie = o.nextCookie()
	d.lsi = newLSIConn(o.cfg.NodeName+"/lsi-"+g.ID, o.nextDPID(), o.cfg.DatapathWorkers)
	d.lsi.graph = true
	if _, err := o.execute(d, g, p); err != nil {
		d.lsi.close()
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
		// LSI-0 (once per instance), owning what the runtime hands it; the
		// graph reaches it through a dedicated virtual link, which borrows.
		lsi0Port, attached := o.nnfPorts[inst.Runtime.Name()]
		if !attached {
			lsiSide := netdev.NewPort(inst.Runtime.Name() + "/lsi0")
			if err := netdev.Connect(inst.Runtime.Port(0), lsiSide); err != nil {
				return err
			}
			lsi0Port = o.lsi0.nextPort()
			if err := o.lsi0.sw.AddOwningPort(lsi0Port, lsiSide); err != nil {
				return err
			}
			o.nnfPorts[inst.Runtime.Name()] = lsi0Port
		}
		att.lsi0Port = lsi0Port
		// Virtual link graph-LSI <-> LSI-0 for the marked traffic.
		gSide, zSide := netdev.Veth(
			d.Graph.ID+"."+inst.Name+"/vl-nnf",
			"lsi0/vl-nnf-"+inst.Name,
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
		es := openflow.NewEntries(len(inst.InMarks) + len(inst.OutMarks))
		for _, mark := range inst.InMarks {
			es.Add(300, vswitch.MatchAll().WithInPort(zPort).WithVLAN(mark), vswitch.Output(lsi0Port))
		}
		for _, mark := range inst.OutMarks {
			es.Add(300, vswitch.MatchAll().WithInPort(lsi0Port).WithVLAN(mark), vswitch.Output(zPort))
		}
		return o.lsi0.ctrl.Commit(att.cookie, &es)
	}
	// Direct attachment: one LSI port per NF port, owning what the runtime
	// hands it.
	att.lsiPorts = make([]uint32, inst.Runtime.NumPorts())
	for i := 0; i < inst.Runtime.NumPorts(); i++ {
		lsiSide := netdev.NewPort(inst.Name + "/p" + strconv.Itoa(i))
		if err := netdev.Connect(inst.Runtime.Port(i), lsiSide); err != nil {
			return err
		}
		num := d.lsi.nextPort()
		if err := d.lsi.sw.AddOwningPort(num, lsiSide); err != nil {
			return err
		}
		att.lsiPorts[i] = num
		att.lsiSide = append(att.lsiSide, lsiSide)
	}
	return nil
}

// attachEndpoint builds the virtual link between the graph LSI and LSI-0
// for one endpoint, and commits its LSI-0 classification rules. On any
// failure its partial state (ports, flows, bookkeeping) is removed before
// returning.
func (o *Orchestrator) attachEndpoint(d *DeployedGraph, ep nffg.Endpoint) (_ *epAttachment, err error) {
	gSide, zSide := netdev.Veth(
		d.Graph.ID+"."+ep.ID+"/vl",
		"lsi0/vl-"+d.Graph.ID+"-"+ep.ID,
	)
	gPort := d.lsi.nextPort()
	if err := d.lsi.sw.AddPort(gPort, gSide); err != nil {
		return nil, err
	}
	zPort := o.lsi0.nextPort()
	if err := o.lsi0.sw.AddPort(zPort, zSide); err != nil {
		netdev.Disconnect(gSide)
		d.lsi.removePort(gPort)
		return nil, err
	}
	att := &epAttachment{ep: ep, graphPort: gPort, lsi0Port: zPort, cookie: o.nextCookie()}
	defer func() {
		if err != nil {
			o.detachEndpoint(d, att)
		}
	}()

	es := openflow.NewEntries(2)
	switch ep.Type {
	case nffg.EPInterface:
		ifPort, ok := o.ifPorts[ep.Interface]
		if !ok {
			return nil, fmt.Errorf("orchestrator: graph %q: endpoint %q: no interface %q on node",
				d.Graph.ID, ep.ID, ep.Interface)
		}
		// Classify untagged traffic from the interface to the graph,
		// and graph egress back out the interface.
		es.Add(100, vswitch.MatchAll().WithInPort(ifPort), vswitch.Output(zPort))
		es.Add(100, vswitch.MatchAll().WithInPort(zPort), vswitch.Output(ifPort))
	case nffg.EPVLAN:
		key := vlanKey(ep)
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
		es.Add(200, vswitch.MatchAll().WithInPort(ifPort).WithVLAN(ep.VLANID), vswitch.PopVLAN(), vswitch.Output(zPort))
		es.Add(200, vswitch.MatchAll().WithInPort(zPort), vswitch.PushVLAN(ep.VLANID), vswitch.Output(ifPort))
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
			es.Add(150, vswitch.MatchAll().WithInPort(zPort), vswitch.Output(peer.lsi0Port))
			es.Add(150, vswitch.MatchAll().WithInPort(peer.lsi0Port), vswitch.Output(zPort))
		}
		o.internalGroups[ep.InternalGroup] = append(members,
			groupMember{graphID: d.Graph.ID, epID: ep.ID, lsi0Port: zPort, cookie: att.cookie})
	}
	if err := o.lsi0.ctrl.Commit(att.cookie, &es); err != nil {
		return nil, err
	}
	return att, nil
}

// vlanKey names a VLAN endpoint's interface and tag in vlanEPs.
func vlanKey(ep nffg.Endpoint) string { return ep.Interface + "/" + strconv.Itoa(int(ep.VLANID)) }

// detachEndpoint reverses attachEndpoint: it removes the endpoint's LSI-0
// classification flows, its virtual-link ports on both switches, and the
// cross-graph bookkeeping.
func (o *Orchestrator) detachEndpoint(d *DeployedGraph, att *epAttachment) {
	// A delete fails only with the LSI-0 channel, and detaching goes on;
	// the entries it left behind name the endpoint's LSI-0 port, so that
	// number is held for good.
	if o.lsi0.ctrl.Commit(att.cookie, nil) != nil {
		o.lsi0.holdPort(att.lsi0Port)
	}
	switch att.ep.Type {
	case nffg.EPVLAN:
		if att.vlanRegistered {
			delete(o.vlanEPs, vlanKey(att.ep))
		}
	case nffg.EPInternal:
		// Touch the group only if this endpoint actually joined it (a
		// failed attach never did). The rendezvous pair flows live under
		// the cookie of whichever member joined second; drop the peer's
		// flows too so no stale rule keeps pointing at the removed port.
		members := o.internalGroups[att.ep.InternalGroup]
		kept := slices.DeleteFunc(members, func(m groupMember) bool { return m.graphID == d.Graph.ID && m.epID == att.ep.ID })
		if len(kept) == len(members) {
			break
		}
		for _, m := range kept {
			if o.lsi0.ctrl.Commit(m.cookie, nil) != nil {
				o.lsi0.holdPort(att.lsi0Port)
			}
		}
		if len(kept) == 0 {
			delete(o.internalGroups, att.ep.InternalGroup)
		} else {
			o.internalGroups[att.ep.InternalGroup] = kept
		}
	}
	// The ports go last, once every entry naming them is deleted.
	if p := o.lsi0.sw.Port(att.lsi0Port); p != nil {
		netdev.Disconnect(p)
	}
	o.lsi0.removePort(att.lsi0Port)
	d.lsi.removePort(att.graphPort)
}

// Undeploy removes a graph and all its state: it executes the plan to an
// empty graph (see execute), then closes the graph's LSI.
func (o *Orchestrator) Undeploy(id string) error {
	if err := o.metrics.undeploy.run(func() error { return o.undeploy(id) }); err != nil {
		return err
	}
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
	_ = o.apply(d, &nffg.Graph{ID: id}) // launches and commits nothing: cannot fail
	d.lsi.close()
	delete(o.graphs, id)
	delete(o.rates, id)
	return nil
}

// unwire stops one instance and removes whatever attachNF wired for it:
// LSI-0 flows under the attachment cookie, virtual-link and direct ports,
// and — when the last user of a shared NNF leaves — its LSI-0 port. Safe on
// a partially attached instance. Callers hold o.mu.
func (o *Orchestrator) unwire(d *DeployedGraph, att *nfAttachment) {
	// The marks go first, so the LSI-0 ports they name are unnamed before
	// they are removed. As in detachEndpoint, a failed delete holds their
	// numbers for good.
	if att.cookie != 0 && o.lsi0.ctrl.Commit(att.cookie, nil) != nil {
		o.lsi0.holdPort(att.lsi0Port)
		o.lsi0.holdPort(att.nnfVlinkLSI0)
	}
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
				o.lsi0.removePort(num)
				delete(o.nnfPorts, name)
			}
		}
	}
	for _, p := range att.lsiSide {
		netdev.Disconnect(p)
	}
	for _, num := range att.lsiPorts {
		d.lsi.removePort(num)
	}
	if att.nnfVlink != 0 {
		d.lsi.removePort(att.nnfVlink)
	}
	if att.nnfVlinkLSI0 != 0 {
		o.lsi0.removePort(att.nnfVlinkLSI0)
	}
}

// detachNF is the only way a launched instance goes away: it is stopped,
// unwired and accounted as an nf-stop. Callers hold o.mu.
func (o *Orchestrator) detachNF(d *DeployedGraph, nfID string, att *nfAttachment) {
	o.setState(d.Graph.ID, nfID, att, StateStopped)
	o.unwire(d, att)
	o.metrics.nfStops.Inc()
	o.journal.RecordNF(telemetry.EventNFStop, o.cfg.NodeName, d.Graph.ID, renderAs, nfID, techCode(att.inst.Technology), 0)
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
	prev, seen := o.rates[id]
	o.rates[id] = rateProbe{rx: rx, at: now}
	if !seen || !now.After(prev.at) || rx < prev.rx {
		return 0
	}
	return float64(rx-prev.rx) / now.Sub(prev.at).Seconds()
}

// steered accounts a deploy's or an update's steering.
func (o *Orchestrator) steered(d *DeployedGraph) {
	o.metrics.steeringRules.Add(uint64(len(d.Graph.Rules)))
	o.journal.Recordf(telemetry.EventFlowMod, o.cfg.NodeName, d.Graph.ID,
		strconv.Itoa(len(d.Graph.Rules))+" rules on "+o.lsiLabel(d.lsi.sw))
}

// apply plans and executes the move of a deployed graph to g, which it
// takes ownership of. Callers hold the graph's operation lock and o.mu.
func (o *Orchestrator) apply(d *DeployedGraph, g *nffg.Graph) error {
	p, err := o.plan(d, g)
	if err == nil {
		_, err = o.execute(d, g, p)
	}
	return err
}
