package orchestrator

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"time"

	"repro/internal/compute"
	"repro/internal/nffg"
	"repro/internal/telemetry"
)

// AutoscaleRateKey is the NF configuration key that opts an NF into
// rate-driven autoscaling: the packets-per-second one replica is expected to
// sustain. AutoscaleTick scales the NF toward ceil(observed_rate / key).
const AutoscaleRateKey = "autoscale_rate_pps"

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

// Scale reshapes one NF of a deployed graph to the given replica count: a
// transition that keeps the first members, launches the missing ones in the
// set's technology or drains the surplus. Per-flow state follows its
// consistent-hash bucket (see transition).
func (o *Orchestrator) Scale(graphID, nfID string, replicas int) error {
	start := time.Now()
	err := o.scale(graphID, nfID, replicas)
	o.metrics.scaleLatency.Observe(time.Since(start).Seconds())
	if err != nil {
		o.metrics.scaleFailures.Inc()
		return err
	}
	o.metrics.scales.Inc()
	return nil
}

func (o *Orchestrator) scale(graphID, nfID string, target int) error {
	if target < 1 || target > nffg.MaxReplicas {
		return fmt.Errorf("orchestrator: scale: replica count %d out of range [1,%d]", target, nffg.MaxReplicas)
	}
	gl := o.lockGraph(graphID)
	defer o.unlockGraph(graphID, gl)
	o.mu.Lock()
	defer o.mu.Unlock()
	d, n, set, err := o.findSet(graphID, nfID)
	if err != nil {
		return err
	}
	return o.resize(d, *n, set, target, set.standby != nil)
}

// resize moves one NF's set to target members, with or without a standby.
// Callers hold the graph's operation lock and o.mu.
func (o *Orchestrator) resize(d *DeployedGraph, n nffg.NF, set *nfSet, target int, standby bool) error {
	if target < 1 {
		target = 1
	}
	cur := len(set.members)
	if target == cur && standby == (set.standby != nil) {
		return nil
	}
	want := wantedSet{keep: set.members, standby: standby}
	if target < cur {
		want.keep = set.members[:target]
	} else if target > cur {
		pl, err := o.placementAs(d.Graph.ID, n, set.members[0].inst.Technology)
		if err != nil {
			return fmt.Errorf("orchestrator: resizing %q to %d member(s): %w", n.ID, target, err)
		}
		want.fresh = repeatPlacement(pl, target-cur)
	}
	moved, err := o.transition(d, n, want)
	if err != nil {
		return fmt.Errorf("orchestrator: resizing %q to %d member(s): %w", n.ID, target, err)
	}
	if target != cur {
		o.journal.Recordf(telemetry.EventScale, o.cfg.NodeName, d.Graph.ID,
			fmt.Sprintf("%s: %d -> %d replicas, %d flows migrated", n.ID, cur, target, moved))
	}
	return nil
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
	moved, err := o.transition(d, *n, wantedSet{keep: alive, standby: set.standby != nil})
	if err != nil {
		return 0, fmt.Errorf("orchestrator: repair: %w", err)
	}
	o.metrics.scales.Inc()
	o.journal.Recordf(telemetry.EventScale, o.cfg.NodeName, graphID,
		fmt.Sprintf("%s: %d dead replica(s) re-homed onto %d survivor(s), %d flows salvaged",
			nfID, dead, len(alive), moved))
	return len(alive), nil
}

// AutoscaleTick evaluates every deployed graph once against its observed
// packet rate and scales each NF that opted in (AutoscaleRateKey in its
// configuration) toward ceil(rate / per-replica-rate), clamped to
// [1, MaxReplicas]. Returns how many scale operations ran.
func (o *Orchestrator) AutoscaleTick() int {
	type want struct {
		graphID, nfID string
		replicas      int
	}
	var wants []want
	o.mu.Lock()
	for id, d := range o.graphs {
		rate := o.observedRateLocked(id)
		for i := range d.Graph.NFs {
			n := &d.Graph.NFs[i]
			perReplica, ok := n.Config[AutoscaleRateKey]
			if !ok {
				continue
			}
			th, err := strconv.ParseFloat(perReplica, 64)
			if err != nil || th <= 0 {
				continue
			}
			target := int(math.Ceil(rate / th))
			if target < 1 {
				target = 1
			}
			if target > nffg.MaxReplicas {
				target = nffg.MaxReplicas
			}
			if set := d.nfs[n.ID]; set != nil && target != len(set.members) {
				wants = append(wants, want{graphID: id, nfID: n.ID, replicas: target})
			}
		}
	}
	o.mu.Unlock()
	done := 0
	for _, w := range wants {
		if err := o.Scale(w.graphID, w.nfID, w.replicas); err == nil {
			done++
		} else {
			o.journal.Recordf(telemetry.EventScale, o.cfg.NodeName, w.graphID,
				fmt.Sprintf("autoscale %s -> %d: %v", w.nfID, w.replicas, err))
		}
	}
	return done
}

// equalIgnoringReplicas reports whether two NF specs differ only in their
// replica count: such a change is a scale operation, not a config change,
// and must not restart the instances.
func equalIgnoringReplicas(a, b nffg.NF) bool {
	b.Replicas = a.Replicas
	return reflect.DeepEqual(a, b)
}
