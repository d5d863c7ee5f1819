package global

import (
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/nffg"
	"repro/internal/telemetry"
)

// Availability at the fleet tier: a graph carrying an active-standby NF gets
// a shadow deployment on a second node — same subgraph, warm and steered on
// its own interfaces, kept state-synced by the reconcile loop. When the
// primary node dies the reconcile pass flips the deployment onto the shadow
// instead of cold-redeploying: NAT bindings, IPsec SAs and other per-flow
// state replicated by the last sync survive the node loss. Shadows only form
// for single-node partitions (a multi-node graph already spreads its blast
// radius; its NFs use anti-affinity to avoid sharing a failure domain).

// wantsStandby reports whether the graph asks for a node-level shadow: any
// NF declaring active-standby redundancy.
func wantsStandby(g *nffg.Graph) bool {
	for _, n := range g.NFs {
		if n.Redundancy == nffg.RedundancyActiveStandby {
			return true
		}
	}
	return false
}

// StandbyNode returns the node currently holding a graph's shadow
// deployment, or "" when none is armed.
func (o *Orchestrator) StandbyNode(graphID string) string {
	o.mu.Lock()
	defer o.mu.Unlock()
	if dep, ok := o.graphs[graphID]; ok {
		return dep.StandbyNode
	}
	return ""
}

// primaryOf returns the single hosting node and subgraph of a one-node
// partition. Callers hold o.mu.
func primaryOf(dep *deployment) (string, *nffg.Graph, bool) {
	if len(dep.Subs) != 1 {
		return "", nil, false
	}
	for node, sub := range dep.Subs {
		return node, sub, true
	}
	return "", nil, false
}

// canShadow reports whether the node view can host the whole subgraph: every
// endpoint interface present, every NF demand charged in sequence.
func (o *Orchestrator) canShadow(v *nodeView, sub *nffg.Graph) bool {
	for _, ep := range sub.Endpoints {
		if ep.Type != nffg.EPInterface && ep.Type != nffg.EPVLAN {
			continue
		}
		if !slices.Contains(v.ifaces, ep.Interface) {
			return false
		}
	}
	for _, n := range sub.NFs {
		d, err := estimateDemand(o.cfg.Repo, n)
		if err != nil || !v.canHost(d) {
			return false
		}
		v.charge(d)
	}
	return true
}

// armStandby deploys a graph's shadow onto the best-named alive node that is
// not the primary and can host the whole subgraph. Best effort: a fleet with
// no spare capacity simply leaves the graph unprotected until one appears.
// Callers hold o.mu.
func (o *Orchestrator) armStandby(id string) {
	dep := o.graphs[id]
	primary, sub, single := primaryOf(dep)
	if !single {
		return
	}
	for _, name := range sortedKeys(o.members) {
		m := o.members[name]
		if v := newNodeView(m.last); name == primary || !m.alive || !o.canShadow(&v, sub) {
			continue
		}
		armed := *dep
		armed.StandbyNode = name
		if err := o.transition(cluster.OpUpdate, id, &armed); err != nil {
			o.cfg.Logf("global: arming standby for %q: %v", id, err)
			continue
		}
		o.journal.Recordf(telemetry.EventDeploy, name, id, "standby shadow deployed")
		o.syncStandby(&armed)
		return
	}
	o.cfg.Logf("global: graph %q wants a standby but no node can shadow it", id)
}

// syncStandby replicates the primary's per-flow NF state onto the shadow
// through the nodes' flow-state verbs. Stateless NFs export nothing and cost
// one RPC round-trip. Returns how many flow-state entries moved. Callers hold
// o.mu.
func (o *Orchestrator) syncStandby(dep *deployment) int {
	primary, _, single := primaryOf(dep)
	if !single || dep.StandbyNode == "" {
		return 0
	}
	pm, pOK := o.members[primary]
	sm, sOK := o.members[dep.StandbyNode]
	if !pOK || !sOK || !pm.alive || !sm.alive {
		return 0
	}
	id := dep.Desired.ID
	total := 0
	for _, n := range dep.Desired.NFs {
		states, err := pm.node.ExportNFState(id, n.ID)
		if err != nil || len(states) == 0 {
			continue
		}
		if err := sm.node.ImportNFState(id, n.ID, states); err != nil {
			o.cfg.Logf("global: syncing %s/%s state to standby %q: %v", id, n.ID, dep.StandbyNode, err)
			continue
		}
		total += len(states)
	}
	if total > 0 {
		o.metrics.stateSyncs.Add(uint64(total))
		o.journal.Recordf(telemetry.EventStateSync, dep.StandbyNode, id,
			fmt.Sprintf("%d flow-state entries replicated from %q", total, primary))
	}
	return total
}

// SyncStandbys runs one state-replication pass over every shadowed graph and
// returns the total flow-state entries moved. The reconcile loop calls it
// every pass; tests and the chaos harness call it directly to bound the
// state gap before injecting a fault.
func (o *Orchestrator) SyncStandbys() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.leaderErr() != nil {
		return 0
	}
	total := 0
	for _, id := range sortedKeys(o.graphs) {
		total += o.syncStandby(o.graphs[id])
	}
	return total
}

// promoteStandby flips a stranded deployment onto its warm shadow. The
// shadow already runs the subgraph with the last-synced flow state, so the
// flip is pure bookkeeping: no cold restart, and the only step of the
// transition is the lost primary's removal, which cannot be delivered and is
// deferred — anti-entropy retires the copy if the node comes back still
// running it. Returns false when the graph has no live standby to promote
// (the caller falls back to a cold reassign). Callers hold o.mu.
func (o *Orchestrator) promoteStandby(id string) bool {
	dep := o.graphs[id]
	standby := dep.StandbyNode
	if sm, ok := o.members[standby]; !ok || !sm.alive {
		return false
	}
	primary, sub, single := primaryOf(dep)
	if !single {
		return false
	}
	o.metrics.outages.Inc()
	o.journal.Recordf(telemetry.EventOutage, primary, id, "primary node lost")
	onto := func(of map[string]string) map[string]string {
		out := make(map[string]string, len(of))
		for id := range of {
			out[id] = standby
		}
		return out
	}
	flipped := &deployment{Desired: dep.Desired, Subs: map[string]*nffg.Graph{standby: sub},
		Placement: Placement{NFNode: onto(dep.Placement.NFNode), EPNode: onto(dep.Placement.EPNode)}}
	if err := o.transition(cluster.OpUpdate, id, flipped); err != nil {
		o.cfg.Logf("global: promoting standby of %q: %v", id, err)
		return false
	}
	o.metrics.promotions.Inc()
	o.cfg.Logf("global: promoted standby %q for graph %q (primary %q lost)", standby, id, primary)
	o.journal.Recordf(telemetry.EventPromote, standby, id,
		fmt.Sprintf("standby promoted after losing %q", primary))
	// Re-arm immediately if a spare node exists; otherwise the reconcile
	// loop keeps trying.
	o.armStandby(id)
	return true
}

// maintainStandbys is the reconcile phase keeping every shadow armed and
// state-synced: shadows on dead nodes are dropped (and re-armed elsewhere),
// missing ones deployed, live ones refreshed with the primary's flow state.
// Callers hold o.mu.
func (o *Orchestrator) maintainStandbys() {
	for _, id := range sortedKeys(o.graphs) {
		dep := o.graphs[id]
		if !wantsStandby(dep.Desired) {
			continue
		}
		if dep.StandbyNode != "" {
			if m, ok := o.members[dep.StandbyNode]; ok && m.alive {
				o.syncStandby(dep)
				continue
			}
			o.metrics.outages.Inc()
			o.journal.Recordf(telemetry.EventOutage, dep.StandbyNode, id, "standby node lost")
			o.dropStandby(id)
		}
		o.armStandby(id) // syncs what it arms
	}
}

// dropStandby takes a graph's shadow out of its footprint; a shadow node
// that cannot be told has the removal deferred. Callers hold o.mu.
func (o *Orchestrator) dropStandby(id string) {
	bare := *o.graphs[id]
	bare.StandbyNode = ""
	if err := o.transition(cluster.OpUpdate, id, &bare); err != nil {
		o.cfg.Logf("global: dropping standby of %q: %v", id, err)
	}
}

// Unlink withdraws a declared inter-node link: stitches may no longer ride
// it. Deployments whose current partition crosses the severed link are
// re-placed over the remaining topology on the spot (and by the reconcile
// loop if that fails).
func (o *Orchestrator) Unlink(aNode, aIf, bNode, bIf string) error {
	return o.mutate(func() error { return o.unlink(Link{A: aNode, AIf: aIf, B: bNode, BIf: bIf}) })
}

// unlink is Unlink under the lock. Callers hold o.mu.
func (o *Orchestrator) unlink(cut Link) error {
	found := slices.IndexFunc(o.links, func(l Link) bool { return l.key() == cut.key() })
	if found < 0 {
		return fmt.Errorf("global: link %s not declared", cut.key())
	}
	o.links = slices.Delete(o.links, found, found+1)
	o.metrics.linkDowns.Inc()
	o.journal.Recordf(telemetry.EventLinkDown, "", "", cut.key())
	o.propose(cluster.OpLinkRemove, cut.key(), nil)
	for _, id := range sortedKeys(o.graphs) {
		dep := o.graphs[id]
		if !slices.ContainsFunc(dep.Stitches, func(st stitch) bool {
			return slices.ContainsFunc(st.Hops, func(h stitchHop) bool { return h.Link.key() == cut.key() })
		}) {
			continue
		}
		if err := o.reassign(dep.Desired); err != nil {
			o.metrics.rescheduleFails.Inc()
			o.cfg.Logf("global: re-placing %q after link cut: %v (will retry)", id, err)
			continue
		}
		o.metrics.reschedules.Inc()
		o.journal.Recordf(telemetry.EventResched, "", id,
			fmt.Sprintf("re-placed off severed link %s onto %v", cut.key(), sortedKeys(o.graphs[id].Subs)))
	}
	return nil
}
