package orchestrator

import (
	"fmt"
	"sort"

	"repro/internal/nf"
	"repro/internal/nffg"
	"repro/internal/telemetry"
)

// Active-standby redundancy: an NF declaring redundancy "active-standby"
// keeps a standby in its instance set — a second, fully-attached instance
// that receives no traffic: it is absent from the steering compilation (only
// members are compiled) but its ports are wired to the graph LSI, so
// promotion is nothing but a transition that makes it a member. The
// standby's flow state is refreshed by SyncStandbys (periodically, from the
// reconcile loop or a chaos harness) and once more at promotion time by
// salvaging the failed member's in-memory tables, so a crash loses no state
// the member ever held.
//
// The standby is an instance of the set like any other: a graph update that
// changes the NF's configuration reconfigures or restarts it together with
// the members, so a promotion never puts stale configuration in service.

// PromoteStandby makes an active-standby NF's standby a member in place of
// the first member that no longer runs (or, when all do, of the first
// member, which is thereby retired) — a transition, so the outgoing
// instance's flow state is salvaged from its processor's in-memory tables
// and one commit repoints the steering. A fresh standby is re-armed
// best-effort afterwards.
func (o *Orchestrator) PromoteStandby(graphID, nfID string) error {
	gl := o.lockGraph(graphID)
	defer o.unlockGraph(graphID, gl)
	o.mu.Lock()
	defer o.mu.Unlock()
	d, n, set, err := o.findSet(graphID, nfID)
	if err != nil {
		return err
	}
	if set.standby == nil {
		return fmt.Errorf("orchestrator: graph %q: NF %q has no standby", graphID, nfID)
	}
	keep := append([]*nfAttachment(nil), set.members...)
	slot := 0
	for i, att := range keep {
		if !att.inst.Runtime.Running() {
			slot = i
			break
		}
	}
	keep[slot] = set.standby
	salvaged, err := o.transition(d, n, keep, nil, false)
	if err != nil {
		return fmt.Errorf("orchestrator: promote: %w", err)
	}
	o.metrics.promotions.Inc()
	o.journal.Recordf(telemetry.EventPromote, o.cfg.NodeName, graphID,
		fmt.Sprintf("%s: standby promoted, %d flows salvaged", nfID, salvaged))
	// Re-arm: redundancy should survive more than one failure. A node too
	// full to hold a new standby degrades to unprotected rather than
	// failing the promotion that already succeeded.
	if n.Redundancy == nffg.RedundancyActiveStandby {
		if err := o.apply(d, d.Graph); err != nil {
			o.journal.Recordf(telemetry.EventOutage, o.cfg.NodeName, graphID,
				fmt.Sprintf("%s: re-arming standby: %v", nfID, err))
		}
	}
	return nil
}

// KillNF simulates a crash of an NF's first member by stopping its runtime
// out from under the orchestrator — the fault-injection hook the chaos
// harness drives. Bookkeeping is deliberately left stale, exactly as a real
// crash would leave it; RepairNF (or RepairReplicas) is the recovery path.
func (o *Orchestrator) KillNF(graphID, nfID string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	_, _, set, err := o.findSet(graphID, nfID)
	if err != nil {
		return err
	}
	set.members[0].inst.Runtime.Stop()
	o.journal.Recordf(telemetry.EventOutage, o.cfg.NodeName, graphID,
		fmt.Sprintf("%s: instance killed (fault injection)", nfID))
	return nil
}

// RepairNF recovers an NF whose instance died, choosing the strongest
// available path: promote the pre-attached standby (zero state loss),
// re-home the dead member's buckets onto surviving members (state
// salvaged), or restart it in place, a plan of one restarted set (state
// since the last sync is lost).
func (o *Orchestrator) RepairNF(graphID, nfID string) error {
	o.mu.Lock()
	_, _, set, err := o.findSet(graphID, nfID)
	if err != nil {
		o.mu.Unlock()
		return err
	}
	hasStandby, replicated := set.standby != nil, len(set.members) > 1
	o.mu.Unlock()
	if hasStandby {
		return o.PromoteStandby(graphID, nfID)
	}
	if replicated {
		_, err := o.RepairReplicas(graphID, nfID)
		return err
	}
	gl := o.lockGraph(graphID)
	defer o.unlockGraph(graphID, gl)
	o.mu.Lock()
	defer o.mu.Unlock()
	d, n, set, err := o.findSet(graphID, nfID)
	if err != nil {
		return err
	}
	pls, err := o.relaunches(*n, set)
	if err != nil {
		return err
	}
	_, err = o.execute(d, d.Graph, &nodePlan{launch: pls, steps: []nfStep{{
		n: n, set: set, keep: set.members, standby: set.standby != nil, restart: len(pls), at: len(pls),
	}}})
	return err
}

// SyncStandbys replicates each active-standby NF's per-flow state from its
// members into its standby, graph by graph. Imports are idempotent, so
// running this on every reconcile tick keeps the standby's state gap
// bounded by one tick. Returns the number of flow-state entries copied.
func (o *Orchestrator) SyncStandbys() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	total := 0
	for id, d := range o.graphs {
		for nfID, set := range d.nfs {
			if set.standby == nil {
				continue
			}
			dst, ok := statefulNF(set.standby)
			if !ok {
				continue
			}
			states := exportAll(set.members)
			if len(states) == 0 {
				continue
			}
			if err := dst.ImportFlowState(states); err != nil {
				o.journal.Recordf(telemetry.EventStateSync, o.cfg.NodeName, id,
					fmt.Sprintf("%s: syncing %d flows to standby: %v", nfID, len(states), err))
				continue
			}
			total += len(states)
			o.metrics.standbySyncedFlows.Add(uint64(len(states)))
			o.journal.Recordf(telemetry.EventStateSync, o.cfg.NodeName, id,
				fmt.Sprintf("%s: %d flows synced to standby", nfID, len(states)))
		}
	}
	return total
}

// exportAll snapshots the full per-flow state held by the given instances;
// stateless processors contribute nothing.
func exportAll(atts []*nfAttachment) []nf.FlowState {
	var out []nf.FlowState
	for _, att := range atts {
		if s, ok := statefulNF(att); ok {
			out = append(out, s.ExportFlowState(nil)...)
		}
	}
	return out
}

// StandbyNFs returns the ids of the graph's NFs that currently hold a
// standby, sorted.
func (o *Orchestrator) StandbyNFs(graphID string) []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	d, ok := o.graphs[graphID]
	if !ok {
		return nil
	}
	out := []string{}
	for nfID, set := range d.nfs {
		if set.standby != nil {
			out = append(out, nfID)
		}
	}
	sort.Strings(out)
	return out
}

// ExportNFState snapshots the full per-flow state of one NF across its
// members. A stateless NF exports nil. This is the node-level verb the
// global tier uses to replicate state onto a standby node.
func (o *Orchestrator) ExportNFState(graphID, nfID string) ([]nf.FlowState, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	_, _, set, err := o.findSet(graphID, nfID)
	if err != nil {
		return nil, err
	}
	return exportAll(set.members), nil
}

// ImportNFState installs exported flow state into every instance of the
// NF's set (members and standby alike). Imports overwrite and a member
// holding state for buckets it does not own merely wastes the memory, so
// fanning the full dump out is correct, if not minimal — the price of
// keeping the node verb simple enough for a remote caller.
func (o *Orchestrator) ImportNFState(graphID, nfID string, states []nf.FlowState) error {
	if len(states) == 0 {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	_, _, set, err := o.findSet(graphID, nfID)
	if err != nil {
		return err
	}
	imported := false
	for _, t := range set.all() {
		s, ok := statefulNF(t)
		if !ok {
			continue
		}
		if err := s.ImportFlowState(states); err != nil {
			return fmt.Errorf("orchestrator: importing %d flows into %q: %w", len(states), nfID, err)
		}
		imported = true
	}
	if imported {
		o.journal.Recordf(telemetry.EventStateSync, o.cfg.NodeName, graphID,
			fmt.Sprintf("%s: %d flows imported", nfID, len(states)))
	}
	return nil
}

// TotalRatePPS reports the node's aggregate observed datapath packet rate
// across its deployed graphs — the arrival-rate input of the placement
// tier's M/M/1 latency predictor.
func (o *Orchestrator) TotalRatePPS() float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	var total float64
	for id := range o.graphs {
		total += o.observedRateLocked(id)
	}
	return total
}
