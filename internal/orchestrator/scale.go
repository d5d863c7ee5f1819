package orchestrator

import (
	"fmt"

	"repro/internal/compute"
	"repro/internal/nffg"
)

// findSet resolves one NF of a deployed graph to its spec and instance set.
// Callers hold o.mu.
func (o *Orchestrator) findSet(graphID, nfID string) (*DeployedGraph, *nffg.NF, *nfSet, error) {
	d, ok := o.graphs[graphID]
	if !ok {
		return nil, nil, nil, fmt.Errorf("orchestrator: graph %q not deployed", graphID)
	}
	set, ok := d.nfs[nfID]
	n := d.Graph.FindNF(nfID)
	if !ok || n == nil {
		return nil, nil, nil, fmt.Errorf("orchestrator: graph %q has no NF %q", graphID, nfID)
	}
	return d, n, set, nil
}

// Scale reshapes one NF of a deployed graph to the given replica count: an
// update of the NF's replicas, which keeps the first members, launches the
// missing ones in the set's technology or drains the surplus. Per-flow
// state follows its consistent-hash bucket (see transition).
func (o *Orchestrator) Scale(graphID, nfID string, replicas int) error {
	return o.metrics.scale.run(func() error { return o.scale(graphID, nfID, replicas) })
}

func (o *Orchestrator) scale(graphID, nfID string, target int) error {
	if target < 1 || target > nffg.MaxReplicas {
		return fmt.Errorf("orchestrator: scale: replica count %d out of range [1,%d]", target, nffg.MaxReplicas)
	}
	gl := o.lockGraph(graphID)
	defer o.unlockGraph(graphID, gl)
	o.mu.Lock()
	defer o.mu.Unlock()
	d, _, _, err := o.findSet(graphID, nfID)
	if err != nil {
		return err
	}
	return o.apply(d, d.Graph.WithReplicas(nfID, target))
}

// Replicas reports how many instances currently serve an NF.
func (o *Orchestrator) Replicas(graphID, nfID string) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	_, _, set, err := o.findSet(graphID, nfID)
	if err != nil {
		return 0, err
	}
	return len(set.members), nil
}

// ReplicaInstances returns the instances serving an NF, in member order.
func (o *Orchestrator) ReplicaInstances(graphID, nfID string) []*compute.Instance {
	o.mu.Lock()
	defer o.mu.Unlock()
	_, _, set, err := o.findSet(graphID, nfID)
	if err != nil {
		return nil
	}
	out := make([]*compute.Instance, len(set.members))
	for i, att := range set.members {
		out[i] = att.inst
	}
	return out
}

// RepairReplicas re-homes the buckets of dead members (instances whose
// runtime stopped outside the orchestrator's control) onto the survivors: a
// transition that keeps exactly the members still running, so the dead
// ones' state is salvaged from their stopped runtimes before they are
// detached. Returns the surviving member count.
func (o *Orchestrator) RepairReplicas(graphID, nfID string) (int, error) {
	gl := o.lockGraph(graphID)
	defer o.unlockGraph(graphID, gl)
	o.mu.Lock()
	defer o.mu.Unlock()
	d, n, set, err := o.findSet(graphID, nfID)
	if err != nil {
		return 0, err
	}
	var alive []*nfAttachment
	for _, att := range set.members {
		if att.inst.Runtime.Running() {
			alive = append(alive, att)
		}
	}
	dead := len(set.members) - len(alive)
	if len(alive) == 0 {
		return 0, fmt.Errorf("orchestrator: graph %q: NF %q has no surviving replica", graphID, nfID)
	}
	if dead == 0 {
		return len(alive), nil
	}
	if _, err := o.transition(d, n, alive, nil, set.standby != nil); err != nil {
		return 0, fmt.Errorf("orchestrator: repair: %w", err)
	}
	d.Graph = d.Graph.WithReplicas(nfID, len(alive))
	o.metrics.scale.ok.Inc()
	return len(alive), nil
}
