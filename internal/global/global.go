package global

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/jsonw"
	"repro/internal/nffg"
	"repro/internal/policy"
	"repro/internal/repository"
	"repro/internal/telemetry"
)

// Config sizes the global orchestrator.
type Config struct {
	// Repo resolves NF templates for demand estimation; nil uses the
	// default catalog.
	Repo *repository.Repository
	// Policy ranks hosting-node candidates during placement; nil uses
	// policy.BinPack, the chain-co-locating capacity packer. The same
	// policy engine ranks execution flavors in the local orchestrator.
	Policy policy.PlacementPolicy
	// ProbeInterval is the health-probe and reconcile period (default 2s).
	ProbeInterval time.Duration
	// ReconcileInterval is the reconcile-loop tick; 0 follows ProbeInterval
	// (the historical coupling, kept as the default).
	ReconcileInterval time.Duration
	// StandbySyncInterval is the period of the standby flow-state refresh
	// ticker; 0 follows ReconcileInterval.
	StandbySyncInterval time.Duration
	// PressureFreeCPUFraction is the reconcile loop's resource-pressure
	// threshold: a node whose free CPU falls below this fraction of its
	// capacity gets one NF shifted to a cheaper flavor per pass (an
	// in-place Reflavor) before the scheduler resorts to moving graphs
	// across nodes. 0 uses DefaultPressureFreeCPUFraction; negative
	// disables pressure relief.
	PressureFreeCPUFraction float64
	// Logf receives reconcile-loop events; nil discards them.
	Logf func(format string, args ...any)
	// Journal receives the global control plane's structured telemetry
	// events; nil gets a private journal.
	Journal *telemetry.Journal
}

// DefaultPressureFreeCPUFraction is the free-CPU fraction below which the
// reconcile loop starts shifting flavors on a node.
const DefaultPressureFreeCPUFraction = 0.10

// member is one managed node plus the orchestrator's view of it. last is
// what placement plans against: the last probe's answer, with the estimated
// demand of every node verb since charged to it. epoch counts those verbs;
// fresh says last accounts for each of them, so placement need not probe.
type member struct {
	node   Node
	alive  bool
	last   Status
	probed time.Time
	epoch  uint64
	fresh  bool
}

// stale records a node verb whose effect on the node's capacity is not known
// here: the next placement probes the node first.
func (m *member) stale() {
	m.epoch++
	m.fresh = false
}

// deployment is one global graph: the desired NF-FG plus its current
// partition across the fleet. It is also, as JSON, the graph's replicated
// intent record: a promoted leader restores exact state — allocated stitch
// VLANs included — without recomputing a partition that could land elsewhere
// and churn the datapath. A deployment is replaced, never edited, and so are
// the graphs it holds: values shared with the nodes that run them (see
// nffg.Graph).
type deployment struct {
	Desired   *nffg.Graph            `json:"desired"`
	Subs      map[string]*nffg.Graph `json:"subs"` // node name -> subgraph
	Stitches  []stitch               `json:"stitches,omitempty"`
	Placement Placement              `json:"placement"`
	// StandbyNode names the node holding the graph's warm shadow
	// deployment (active-standby availability), "" when unarmed. The
	// shadow is deliberately absent from Subs: it is not part of the
	// serving partition until a promotion flips it in.
	StandbyNode string `json:"standby-node,omitempty"`
}

// Orchestrator is the global orchestrator: it owns the desired graph set,
// partitions each graph across the registered Universal Nodes, and runs the
// reconcile loop converging observed node state onto the desired state.
type Orchestrator struct {
	cfg Config

	journal  *telemetry.Journal
	registry *telemetry.Registry
	metrics  *fleetMetrics

	mu      sync.Mutex
	members map[string]*member
	links   []Link
	graphs  map[string]*deployment
	alloc   *vlanAlloc
	// pending records subgraphs that could not be removed from an
	// unreachable node (node name -> graph ids); the reconcile loop
	// retires them when the node comes back.
	pending map[string]map[string]bool
	// parked holds stitch VLANs that cannot be returned to the allocator
	// yet because an unreachable node may still be tagging traffic with
	// them; each entry is released once every node it waits on has had
	// its leftover subgraphs retired.
	parked []*parkedStitches

	// HA hooks (see intent.go). All nil/empty on a standalone orchestrator.
	leaderCheck  func() bool
	recorder     func(kind cluster.OpKind, key string, data json.RawMessage) (commit func() error, err error)
	nodeResolver NodeResolver
	intentSource IntentSource
	// pendingCommits holds the replication waits staged by propose under
	// o.mu; flushIntent drains them outside it.
	pendingCommits []func() error
	// restoredSeq is the intent-store sequence last replayed into this
	// orchestrator; follower refreshes skip while the store sits there.
	restoredSeq uint64
	// unrecorded holds the graphs whose current state is not in the intent
	// log: changed by a transition since the lock was taken, or left over
	// from a proposal that failed to stage. The value is the op kind to
	// record them under.
	unrecorded map[string]cluster.OpKind

	stop    chan struct{}
	wg      sync.WaitGroup
	started bool
}

// New builds a global orchestrator. Call Start to run the reconcile loop.
func New(cfg Config) *Orchestrator {
	if cfg.Repo == nil {
		cfg.Repo = repository.Default()
	}
	if cfg.Policy == nil {
		cfg.Policy = policy.BinPack{}
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.ReconcileInterval <= 0 {
		cfg.ReconcileInterval = cfg.ProbeInterval
	}
	if cfg.StandbySyncInterval <= 0 {
		cfg.StandbySyncInterval = cfg.ReconcileInterval
	}
	if cfg.PressureFreeCPUFraction == 0 {
		cfg.PressureFreeCPUFraction = DefaultPressureFreeCPUFraction
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	journal := cfg.Journal
	if journal == nil {
		journal = telemetry.NewJournal(telemetry.DefaultJournalDepth)
	}
	o := &Orchestrator{
		cfg:        cfg,
		journal:    journal,
		registry:   telemetry.NewRegistry(),
		metrics:    newFleetMetrics(),
		members:    make(map[string]*member),
		graphs:     make(map[string]*deployment),
		alloc:      newVLANAlloc(),
		pending:    make(map[string]map[string]bool),
		unrecorded: make(map[string]cluster.OpKind),
	}
	o.registry.Register(o)
	return o
}

// parkedStitches is a set of stitch VLANs whose release waits on nodes that
// could not be told to drop the subgraphs using them.
type parkedStitches struct {
	hops    []stitchHop
	waiting map[string]bool // node names still to be cleaned
}

// retireStitches returns stitch hops a transition let go of to the allocator
// — but only when no unreachable node may still be running them. blocked
// names the nodes whose subgraph removal was deferred: with any present, the
// VLANs are parked and released by the reconcile loop after those nodes'
// leftovers are retired (a parked VLAN merely narrows the stitch space;
// reusing it while a partitioned node still tags traffic would cross-wire
// two graphs). Callers hold o.mu.
func (o *Orchestrator) retireStitches(hops []stitchHop, blocked map[string]bool) {
	if len(hops) == 0 {
		return
	}
	if len(blocked) == 0 {
		releaseHops(o.alloc, hops)
		return
	}
	o.parked = append(o.parked, &parkedStitches{hops: hops, waiting: blocked})
	o.cfg.Logf("global: parking %d stitch hop(s) until %v are cleaned", len(hops), blocked)
}

// nodeCleaned tells the parking lot that node no longer holds any leftover
// subgraphs; entries with no nodes left to wait on release their VLANs.
// Callers hold o.mu.
func (o *Orchestrator) nodeCleaned(node string) {
	kept := o.parked[:0]
	for _, p := range o.parked {
		delete(p.waiting, node)
		if len(p.waiting) == 0 {
			releaseHops(o.alloc, p.hops)
		} else {
			kept = append(kept, p)
		}
	}
	o.parked = kept
}

// AddNode registers a node with the fleet. The node is probed immediately
// and must be reachable.
func (o *Orchestrator) AddNode(n Node) error {
	st, err := n.Status()
	if err != nil {
		return fmt.Errorf("global: registering %q: %w", n.Name(), err)
	}
	return o.mutate(func() error {
		if _, dup := o.members[n.Name()]; dup {
			return fmt.Errorf("global: node %q already registered", n.Name())
		}
		o.members[n.Name()] = &member{node: n, alive: true, last: st, probed: time.Now(), fresh: true}
		if data, err := json.Marshal(NodeRecord{Name: n.Name(), URL: n.BaseURL()}); err == nil {
			o.propose(cluster.OpNodeAdd, n.Name(), data)
		}
		return nil
	})
}

// RemoveNode withdraws a node. Graphs with subgraphs on it are rescheduled
// on the next reconcile pass.
func (o *Orchestrator) RemoveNode(name string) error {
	return o.mutate(func() error {
		if _, ok := o.members[name]; !ok {
			return fmt.Errorf("global: node %q not registered", name)
		}
		// Best-effort cleanup of anything we placed there.
		for _, id := range sortedKeys(o.graphs) {
			if o.graphs[id].holds(name) {
				if err := o.run(id, step{verb: verbUndeploy, node: name}); err != nil {
					o.cfg.Logf("%v", err)
				}
			}
		}
		delete(o.members, name)
		o.propose(cluster.OpNodeRemove, name, nil)
		return nil
	})
}

// Link declares an inter-node connection the stitcher may use. Both nodes
// must be registered and expose the named interface.
func (o *Orchestrator) Link(aNode, aIf, bNode, bIf string) error {
	return o.mutate(func() error {
		for _, side := range []struct{ node, iface string }{{aNode, aIf}, {bNode, bIf}} {
			m, ok := o.members[side.node]
			if !ok {
				return fmt.Errorf("global: link: node %q not registered", side.node)
			}
			found := false
			for _, i := range m.last.Interfaces {
				if i == side.iface {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("global: link: node %q has no interface %q", side.node, side.iface)
			}
		}
		l := Link{A: aNode, AIf: aIf, B: bNode, BIf: bIf}
		for _, existing := range o.links {
			if existing.key() == l.key() {
				return fmt.Errorf("global: link %s already declared", l.key())
			}
		}
		o.links = append(o.links, l)
		if data, err := jsonw.Encode(linkSchema, &l); err == nil {
			o.propose(cluster.OpLinkAdd, l.key(), data)
		}
		return nil
	})
}

// NodeInfo is one fleet member's state as reported by ListNodes.
type NodeInfo struct {
	Status
	Alive bool `json:"alive"`
}

// ListNodes returns the fleet state, sorted by node name.
func (o *Orchestrator) ListNodes() []NodeInfo {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]NodeInfo, 0, len(o.members))
	for _, m := range o.members {
		out = append(out, NodeInfo{Status: m.last, Alive: m.alive})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Links returns the declared inter-node links.
func (o *Orchestrator) Links() []Link {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]Link(nil), o.links...)
}

// GraphIDs returns the desired graph set, sorted.
func (o *Orchestrator) GraphIDs() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return sortedKeys(o.graphs)
}

// Graph returns a copy of the desired NF-FG of a deployed global graph: the
// caller's to modify or hand to Update.
func (o *Orchestrator) Graph(id string) (*nffg.Graph, bool) {
	if g, ok := o.Desired(id); ok {
		return g.Clone(), true
	}
	return nil, false
}

// Desired returns the value Graph copies, shared: the caller must not modify it.
func (o *Orchestrator) Desired(id string) (*nffg.Graph, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	dep, ok := o.graphs[id]
	if !ok {
		return nil, false
	}
	return dep.Desired, true
}

// Placement returns where each NF and endpoint of a graph currently runs.
func (o *Orchestrator) Placement(id string) (Placement, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	dep, ok := o.graphs[id]
	if !ok {
		return Placement{}, false
	}
	return dep.Placement, true
}

// probeResult is one member's answer to a health probe, and the member's
// verb epoch when it was asked.
type probeResult struct {
	m     *member
	epoch uint64
	st    Status
	err   error
}

// probing prepares a probe of every member that want selects. Callers hold
// o.mu.
func (o *Orchestrator) probing(want func(*member) bool) []probeResult {
	var out []probeResult
	for _, m := range o.members {
		if want(m) {
			out = append(out, probeResult{m: m, epoch: m.epoch})
		}
	}
	return out
}

// probe asks the members of results for their status, in parallel: one hung
// node costs its own timeout, not the sum. It reads no orchestrator state, so
// the reconcile loop calls it with the lock released.
func probe(results []probeResult) {
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(r *probeResult) {
			defer wg.Done()
			r.st, r.err = r.m.node.Status()
		}(&results[i])
	}
	wg.Wait()
}

// absorb applies probe results to the fleet view: a member that failed its
// probe is dead on the spot, one that answered is alive with its capacity as
// it reported it, and fresh unless a verb was issued to it while the probe
// was in flight. Callers hold o.mu.
func (o *Orchestrator) absorb(results []probeResult) {
	for _, r := range results {
		name := r.m.node.Name()
		if o.members[name] != r.m {
			continue // withdrawn while the probe was in flight
		}
		wasAlive := r.m.alive
		r.m.probed = time.Now()
		if r.err != nil {
			r.m.alive = false
			o.metrics.probeFailures.Inc()
			if wasAlive {
				o.cfg.Logf("global: node %q dead: %v", name, r.err)
				o.journal.Recordf(telemetry.EventNodeDead, name, "", r.err.Error())
			}
			continue
		}
		r.m.alive = true
		r.m.last = r.st
		r.m.fresh = r.m.epoch == r.epoch
		if !wasAlive {
			o.cfg.Logf("global: node %q back", name)
			o.journal.Recordf(telemetry.EventNodeBack, name, "", "")
		}
	}
}

// partition places and splits a graph over the currently-alive fleet, as the
// members' capacity stands in the fleet view; only a member that is not
// fresh is probed first. When re-placing an already-deployed graph, prior
// names its current partition: the graph's own estimated demand is credited
// back to the alive nodes holding it, since a node keeping its piece reuses —
// not doubles — its allocation (the in-place Update reconciles the actual
// ledger). Callers hold o.mu.
func (o *Orchestrator) partition(g *nffg.Graph, prior *deployment) (Placement, map[string]*nffg.Graph, []stitch, error) {
	if stale := o.probing(func(m *member) bool { return m.alive && !m.fresh }); stale != nil {
		probe(stale)
		o.absorb(stale)
	}
	views := make([]nodeView, 0, len(o.members))
	for _, m := range o.members {
		if m.alive {
			views = append(views, newNodeView(m.last))
		}
	}
	if prior != nil {
		for i := range views {
			cpu, ram := o.demandOf(prior.Subs[views[i].name])
			views[i].freeCPU += cpu
			views[i].freeRAM += ram
		}
	}
	// Internal-group anchors from the other deployed graphs: an
	// EPInternal rendezvous only forms when both members share a node.
	pins := make(map[string]string)
	for _, dep := range o.graphs {
		if dep == prior {
			continue
		}
		for _, ep := range dep.Desired.Endpoints {
			if ep.Type != nffg.EPInternal {
				continue
			}
			if node, placed := dep.Placement.EPNode[ep.ID]; placed {
				pins[ep.InternalGroup] = node
			}
		}
	}
	pl, err := place(g, o.cfg.Repo, o.cfg.Policy, views, o.links, pins)
	if err != nil {
		return Placement{}, nil, nil, err
	}
	subs, stitches, err := splitGraph(g, pl, o.links, o.alloc, prior)
	if err != nil {
		return Placement{}, nil, nil, err
	}
	return pl, subs, stitches, nil
}

// stitchSet returns the stitches a deployment rides; a nil one rides none.
func (d *deployment) stitchSet() []stitch {
	if d == nil {
		return nil
	}
	return d.Stitches
}

// Deploy partitions a graph across the fleet and instantiates every
// subgraph. On any node failure the already-deployed subgraphs are rolled
// back. It keeps g.Value(), which the intent record and the nodes share:
// once Deploy returns, g is the caller's again.
func (o *Orchestrator) Deploy(g *nffg.Graph) error {
	_, err := o.put(g, putDeploy)
	return err
}

// deployLocked is Deploy of a value past validation and the duplicate check.
// Callers hold o.mu.
func (o *Orchestrator) deployLocked(g *nffg.Graph) error {
	err := replanned(func() error {
		pl, subs, stitches, err := o.partition(g, nil)
		if err != nil {
			return err
		}
		return o.transition(cluster.OpDeploy, g.ID, &deployment{Desired: g, Subs: subs, Stitches: stitches, Placement: pl})
	})
	if err != nil {
		return err
	}
	o.journal.Recordf(telemetry.EventDeploy, "", g.ID,
		"split across "+nodeList(o.graphs[g.ID].Subs))
	if wantsStandby(g) {
		o.armStandby(g.ID)
	}
	return nil
}

// Update applies a new version of a global graph as a diff: the graph is
// re-placed over the current fleet, a stitch that keeps its ends and path keeps
// its VLANs, a node whose piece is unchanged is not called, one keeping a
// changed piece gets an in-place Update, a vacated one an Undeploy, a new one a
// Deploy. A config-only change reaches only the node hosting the NF. The
// orchestrator keeps g.Value(), as Deploy does.
func (o *Orchestrator) Update(g *nffg.Graph) error {
	_, err := o.put(g, putUpdate)
	return err
}

// Apply deploys g if it is new and updates it otherwise — the REST PUT
// upsert, decided atomically under the orchestrator lock. The returned flag
// reports whether the graph already existed. The orchestrator keeps
// g.Value(), as Deploy does.
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

// put validates g and runs the deploy or the update of its value that mode
// allows, decided under the orchestrator lock.
func (o *Orchestrator) put(g *nffg.Graph, mode putMode) (existed bool, err error) {
	if err := g.Validate(); err != nil {
		return false, err
	}
	g = g.Value()
	err = o.mutate(func() error {
		switch _, existed = o.graphs[g.ID]; {
		case existed && mode == putDeploy:
			return fmt.Errorf("global: graph %q already deployed (use Update)", g.ID)
		case !existed && mode == putUpdate:
			return fmt.Errorf("global: graph %q not deployed (use Deploy)", g.ID)
		case existed:
			return o.reassign(g)
		}
		return o.deployLocked(g)
	})
	return existed, err
}

// reassign moves a deployed graph onto a fresh partition of g computed over
// the currently-alive fleet; a failure leaves it where it was. A live shadow
// follows a partition that stays on one node, updated in place; otherwise it
// goes with the move and maintainStandbys re-arms one where possible.
// Callers hold o.mu.
func (o *Orchestrator) reassign(g *nffg.Graph) error {
	return replanned(func() error { return o.move(g) })
}

// replanned runs a placement attempt, and runs it once more if a node refused
// one of its steps: the refusal left that node stale, so the second
// partition probes it first and places on the survivors if it died or filled
// up since its last probe. Callers hold o.mu.
func replanned(attempt func() error) error {
	err := attempt()
	if _, ok := refusal(err); ok {
		err = attempt()
	}
	return err
}

// refusal returns the step a node refused, if err reports one. It allocates
// only when there is an error to inspect.
func refusal(err error) (*stepError, bool) {
	if err == nil {
		return nil, false
	}
	var refused *stepError
	ok := errors.As(err, &refused)
	return refused, ok
}

// move is one attempt of reassign, on the value that becomes desired. A node
// whose piece is unchanged keeps its very subgraph (see splitGraph), so plan
// leaves it alone. Callers hold o.mu.
func (o *Orchestrator) move(g *nffg.Graph) error {
	have := o.graphs[g.ID]
	pl, subs, stitches, err := o.partition(g, have)
	if err != nil {
		return err
	}
	want := &deployment{Desired: g, Subs: subs, Stitches: stitches, Placement: pl}
	if m, ok := o.members[have.StandbyNode]; ok && m.alive && len(subs) == 1 && subs[have.StandbyNode] == nil {
		want.StandbyNode = have.StandbyNode
	}
	err = o.transition(cluster.OpUpdate, g.ID, want)
	if refused, ok := refusal(err); ok && refused.node == want.StandbyNode {
		// The spare would not take the new version. It is never worth
		// failing the serving move: let it go and move without it.
		o.dropStandby(g.ID)
		return o.move(g)
	}
	if err == nil {
		o.journal.Recordf(telemetry.EventUpdate, "", g.ID,
			"re-placed across "+nodeList(subs))
	}
	return err
}

// hostOf finds the deployment of a graph and the reachable member hosting one
// of its NFs. Callers hold o.mu.
func (o *Orchestrator) hostOf(graphID, nfID string) (*deployment, *member, error) {
	dep, ok := o.graphs[graphID]
	if !ok {
		return nil, nil, fmt.Errorf("global: graph %q not deployed", graphID)
	}
	node, placed := dep.Placement.NFNode[nfID]
	if !placed {
		return nil, nil, fmt.Errorf("global: graph %q has no NF %q", graphID, nfID)
	}
	m, registered := o.members[node]
	if !registered || !m.alive {
		return nil, nil, fmt.Errorf("global: node %q hosting %s/%s is unreachable", node, graphID, nfID)
	}
	return dep, m, nil
}

// Reflavor hot-swaps one NF of a deployed global graph onto a different
// execution technology, on whichever node currently hosts it. The swap is
// make-before-break on the node: the graph keeps forwarding throughout.
func (o *Orchestrator) Reflavor(graphID, nfID string, tech nffg.Technology) error {
	return o.mutate(func() error {
		_, m, err := o.hostOf(graphID, nfID)
		if err != nil {
			return err
		}
		m.stale()
		if err := m.node.Reflavor(graphID, nfID, tech); err != nil {
			o.metrics.reflavorFails.Inc()
			return err
		}
		o.metrics.reflavors.Inc()
		o.journal.Recordf(telemetry.EventReflavor, m.node.Name(), graphID,
			fmt.Sprintf("%s -> %s", nfID, tech))
		return nil
	})
}

// Scale resizes one NF's replica set on whichever node hosts it. The node's
// local orchestrator performs the live flow-state migration; the fleet view
// records the new replica count in the desired graph so reschedules and
// drift repairs reproduce it.
func (o *Orchestrator) Scale(graphID, nfID string, replicas int) error {
	return o.mutate(func() error {
		dep, m, err := o.hostOf(graphID, nfID)
		if err != nil {
			return err
		}
		m.stale()
		if err := m.node.Scale(graphID, nfID, replicas); err != nil {
			o.metrics.scaleFails.Inc()
			return err
		}
		// The node has resized the set itself: a deployment whose desired
		// graph and piece carry the new count is adopted with no step to run.
		node := m.node.Name()
		want := *dep
		want.Desired = dep.Desired.WithReplicas(nfID, replicas)
		want.Subs = maps.Clone(dep.Subs)
		if sub, ok := dep.Subs[node]; ok {
			want.Subs[node] = sub.WithReplicas(nfID, replicas)
		}
		o.metrics.scales.Inc()
		o.journal.Recordf(telemetry.EventScale, node, graphID,
			fmt.Sprintf("%s -> %d replicas", nfID, replicas))
		o.adopt(cluster.OpScale, graphID, dep, &want, nil)
		return nil
	})
}

// Plan is the global dry-run: validate the graph and partition it across
// the currently-alive fleet — replica resource demand included — without
// deploying anything or keeping any allocation.
type Plan struct {
	Graph string `json:"graph"`
	// Exists reports whether the graph is already deployed fleet-wide (the
	// PUT would be an update rather than a first deploy).
	Exists bool `json:"exists"`
	// NFs maps NF id -> hosting node; Endpoints maps endpoint id -> node.
	NFs       map[string]string `json:"nfs"`
	Endpoints map[string]string `json:"endpoints"`
	// Subgraphs maps node -> the NF ids its subgraph would carry.
	Subgraphs map[string][]string `json:"subgraphs"`
}

// PlanDeploy computes the would-be placement of a graph over the fleet.
func (o *Orchestrator) PlanDeploy(g *nffg.Graph) (*Plan, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	dep := o.graphs[g.ID]
	pl, subs, stitches, err := o.partition(g, dep)
	if err != nil {
		return nil, err
	}
	// Nothing is deployed: hand back the VLANs this plan took, not the ones
	// it shares with the live deployment.
	releaseHops(o.alloc, hopsNotIn(stitches, dep.stitchSet()))
	plan := &Plan{
		Graph:     g.ID,
		Exists:    dep != nil,
		NFs:       pl.NFNode,
		Endpoints: pl.EPNode,
		Subgraphs: make(map[string][]string, len(subs)),
	}
	for node, sub := range subs {
		ids := make([]string, 0, len(sub.NFs))
		for _, n := range sub.NFs {
			ids = append(ids, n.ID)
		}
		sort.Strings(ids)
		plan.Subgraphs[node] = ids
	}
	return plan, nil
}

// relievePressure shifts flavors on resource-pressured nodes: a node whose
// free CPU dropped below the pressure threshold gets one NF hot-swapped to
// the cheapest cheaper flavor its template packages — freeing capacity in
// place, before the scheduler has to move whole subgraphs across nodes.
// Pinned NFs are not the policy's to move. One reflavor per node per pass
// keeps the loop gentle. Callers hold o.mu.
func (o *Orchestrator) relievePressure() {
	if o.cfg.PressureFreeCPUFraction < 0 {
		return
	}
	for _, name := range sortedKeys(o.members) {
		m := o.members[name]
		if !m.alive || m.last.TotalCPUMillis == 0 {
			continue
		}
		free := float64(m.last.FreeCPUMillis) / float64(m.last.TotalCPUMillis)
		if free >= o.cfg.PressureFreeCPUFraction {
			continue
		}
		// Try candidates best-gain first: the top pick can be transiently
		// undeployable on the node (e.g. a non-sharable NNF held by
		// another graph), in which case the next one still relieves.
		for _, c := range o.cheaperFlavorsOn(m) {
			o.cfg.Logf("global: node %q under CPU pressure (%.0f%% free), reflavoring %s/%s %s -> %s",
				name, free*100, c.nf.Graph, c.nf.NF, c.nf.Technology, c.tech)
			m.stale()
			if err := m.node.Reflavor(c.nf.Graph, c.nf.NF, c.tech); err != nil {
				o.metrics.reflavorFails.Inc()
				o.cfg.Logf("global: pressure reflavor of %s/%s on %q: %v", c.nf.Graph, c.nf.NF, name, err)
				continue
			}
			o.metrics.reflavors.Inc()
			o.journal.Recordf(telemetry.EventReflavor, name, c.nf.Graph,
				fmt.Sprintf("%s %s -> %s (CPU pressure)", c.nf.NF, c.nf.Technology, c.tech))
			break
		}
	}
}

// reliefCandidate is one possible pressure-relief swap on a node.
type reliefCandidate struct {
	nf   NFStatus
	tech nffg.Technology
	gain int // CPU millicores freed
}

// cheaperFlavorsOn scans a pressured member's reported NF instances for
// reflavor candidates — unpinned NFs of graphs we own whose template
// packages a flavor with a smaller CPU reservation than the one they run
// as — ordered by CPU gain, largest first. Callers hold o.mu.
func (o *Orchestrator) cheaperFlavorsOn(m *member) []reliefCandidate {
	caps := make(map[string]bool, len(m.last.Capabilities))
	for _, c := range m.last.Capabilities {
		caps[c] = true
	}
	var out []reliefCandidate
	for _, nfSt := range m.last.NFs {
		dep, ours := o.graphs[nfSt.Graph]
		if !ours {
			continue
		}
		n := dep.Desired.FindNF(nfSt.NF)
		if n == nil || n.TechnologyPreference != nffg.TechAny {
			continue
		}
		tpl, ok := o.cfg.Repo.Lookup(n.Name)
		if !ok {
			continue
		}
		cur, running := tpl.Flavors[nffg.Technology(nfSt.Technology)]
		if !running {
			continue
		}
		for _, tech := range tpl.SupportedTechnologies() {
			fl := tpl.Flavors[tech]
			if !caps[string(fl.Capability)] {
				continue
			}
			if gain := cur.CPUMillis - fl.CPUMillis; gain > 0 {
				out = append(out, reliefCandidate{nf: nfSt, tech: tech, gain: gain})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].gain > out[j].gain })
	return out
}

// Undeploy removes a global graph. The desired-state removal always takes
// effect; a node that cannot be told to drop its piece has the cleanup
// deferred to the reconcile loop (and blocks reuse of the graph's stitch
// VLANs until then), which is why node failures are not reported as errors
// here.
func (o *Orchestrator) Undeploy(id string) error {
	return o.mutate(func() error {
		if _, ok := o.graphs[id]; !ok {
			return fmt.Errorf("global: graph %q not deployed", id)
		}
		err := o.transition(cluster.OpUndeploy, id, nil)
		if err == nil {
			o.journal.Recordf(telemetry.EventUndeploy, "", id, "")
		}
		return err
	})
}

// Start launches the background loops: reconcile every ReconcileInterval
// and standby flow-state refresh every StandbySyncInterval.
func (o *Orchestrator) Start() {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.started {
		return
	}
	o.started = true
	o.stop = make(chan struct{})
	o.wg.Add(1)
	go func() {
		defer o.wg.Done()
		reconcile := time.NewTicker(o.cfg.ReconcileInterval)
		defer reconcile.Stop()
		standby := time.NewTicker(o.cfg.StandbySyncInterval)
		defer standby.Stop()
		for {
			select {
			case <-o.stop:
				return
			case <-reconcile.C:
				o.ReconcileOnce()
			case <-standby.C:
				o.SyncStandbys()
			}
		}
	}()
}

// Close stops the reconcile loop. Deployed graphs are left running.
func (o *Orchestrator) Close() {
	o.mu.Lock()
	if !o.started {
		o.mu.Unlock()
		return
	}
	o.started = false
	close(o.stop)
	o.mu.Unlock()
	o.wg.Wait()
}

// ReconcileOnce runs one probe-and-repair pass: every node is health-probed,
// graphs with subgraphs on dead nodes are rescheduled onto survivors, and
// per-node drift (missing, stale or diverged subgraphs) is repaired with
// nffg-diff-driven updates. The background loop calls this every
// ProbeInterval; tests call it directly.
func (o *Orchestrator) ReconcileOnce() {
	// Followers hold no authority over the fleet: only the HA leader (or a
	// standalone orchestrator) probes, repairs and mutates node state. A
	// follower instead refreshes its read-only view from the replicated
	// intent store so its API answers track the leader.
	if !o.IsLeader() {
		o.refreshFollower()
		return
	}
	start := time.Now()
	defer func() {
		o.metrics.reconciles.Inc()
		o.metrics.reconcileLatency.Observe(time.Since(start).Seconds())
	}()
	// Probe outside the lock: a hung node must not stall the control
	// plane.
	o.mu.Lock()
	results := o.probing(func(*member) bool { return true })
	o.mu.Unlock()
	probe(results)

	err := o.mutate(func() error {
		o.reconcileLocked(results)
		return nil
	})
	// Reconcile repairs are best-effort, so a commit wait that fails (quorum
	// loss mid-pass) is logged rather than surfaced: the ops stay in the
	// leader log, and a record that could not even be staged stays queued
	// for the next pass.
	if err != nil {
		o.cfg.Logf("global: reconcile: %v", err)
	}
}

// reconcileLocked is the repair half of a reconcile pass, run on the probe
// results under o.mu.
func (o *Orchestrator) reconcileLocked(results []probeResult) {
	o.absorb(results)

	for _, id := range sortedKeys(o.graphs) {
		dep := o.graphs[id]
		stranded := false
		for node := range dep.Subs {
			m, registered := o.members[node]
			if !registered || !m.alive {
				stranded = true
				break
			}
		}
		if !stranded {
			o.repairDrift(id, dep)
			continue
		}
		// Reschedule a graph stranded on dead (or withdrawn) nodes. A warm
		// shadow beats a cold reassign: the standby already runs the
		// subgraph with the last-synced flow state.
		if o.promoteStandby(id) {
			continue
		}
		if err := o.reassign(dep.Desired); err != nil {
			o.metrics.rescheduleFails.Inc()
			o.cfg.Logf("global: rescheduling %q: %v (will retry)", id, err)
			continue
		}
		now := sortedKeys(o.graphs[id].Subs)
		o.metrics.reschedules.Inc()
		o.cfg.Logf("global: rescheduled %q onto %v", id, now)
		o.journal.Recordf(telemetry.EventResched, "", id, fmt.Sprintf("now on %v", now))
	}

	// Resource pressure: shift flavors in place on packed nodes before any
	// cross-node move becomes necessary.
	o.relievePressure()

	// Anti-entropy: drop subgraphs of graphs we own from nodes outside their
	// footprint (e.g. after a failover the old host came back holding stale
	// state), and retire deferred removals — graphs undeployed or moved while
	// their node was unreachable.
	for name, m := range o.members {
		if !m.alive {
			continue
		}
		holds := make(map[string]bool, len(m.last.Graphs))
		for _, gid := range m.last.Graphs {
			holds[gid] = true
			dep, ours := o.graphs[gid]
			if ours && dep.holds(name) {
				continue
			}
			if !ours && !o.pending[name][gid] {
				continue // another tenant's
			}
			reason := "deferred removal completed"
			if ours {
				reason = "stale subgraph removed"
			}
			o.cfg.Logf("global: node %q holds graph %q it should not, removing", name, gid)
			if o.run(gid, step{verb: verbUndeploy, node: name}) == nil {
				delete(o.pending[name], gid)
				o.metrics.retired.Inc()
				o.journal.Recordf(telemetry.EventRetire, name, gid, reason)
			}
		}
		// A deferred removal is moot once the node no longer holds the
		// graph, or the graph moved back onto it (as primary or shadow).
		for gid := range o.pending[name] {
			if dep, ours := o.graphs[gid]; !holds[gid] || ours && dep.holds(name) {
				delete(o.pending[name], gid)
			}
		}
		if len(o.pending[name]) == 0 {
			// Nothing left to retire here: stitch VLANs parked on this
			// node's cleanup may now be releasable.
			o.nodeCleaned(name)
		}
	}

	// Availability: keep every active-standby graph's shadow armed and
	// refresh its flow state from the primary. After anti-entropy, so a
	// node returning from the dead has its stale copy retired above and
	// can be re-armed as the new shadow in the same pass.
	o.maintainStandbys()
}

// repairDrift converges the nodes of a healthy footprint on it: what each
// node runs is observed, and the plan from there to the footprint — a deploy
// for a lost subgraph, shadow included, an update for a diverged one — is run
// step by step, best effort. Callers hold o.mu.
func (o *Orchestrator) repairDrift(id string, dep *deployment) {
	want := dep.footprint()
	observed := make(map[string]*nffg.Graph, len(want))
	for node, sub := range want {
		// Converged until seen otherwise: a node that cannot be asked is the
		// next probe's to catch (a lost shadow node, maintainStandbys').
		observed[node] = sub
		m, registered := o.members[node]
		if !registered || !m.alive {
			continue
		}
		got, present, err := m.node.GraphSpec(id)
		switch {
		case err != nil:
		case !present:
			delete(observed, node)
		case !nffg.Equal(got, sub):
			observed[node] = got
		}
	}
	for _, s := range plan(observed, want) {
		detail := "lost subgraph redeployed"
		if s.verb == verbUpdate {
			detail = "diverged subgraph updated"
		}
		o.cfg.Logf("global: node %q drifted on graph %q, %s", s.node, id, s.verb)
		if err := o.run(id, s); err != nil {
			o.cfg.Logf("%v", err)
			continue
		}
		o.metrics.driftRepairs.Inc()
		o.journal.Recordf(telemetry.EventRepair, s.node, id, detail)
	}
}
