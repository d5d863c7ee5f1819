package orchestrator

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/nffg"
	"repro/internal/policy"
	"repro/internal/telemetry"
)

// Reflavor hot-swaps one NF of a deployed graph onto a different execution
// technology: a transition to a set of the same size in which every member
// is a fresh instance of the incoming flavor. The outgoing members keep
// serving while the incoming ones boot, the steering is repointed with one
// commit, and the outgoing ones drain and stop (see transition); on
// failure the old set keeps serving.
//
// Swapping to the NF's current technology is a no-op. The paper's
// deploy-time flavor decision thereby becomes revisable at runtime: the
// same NF migrates between a VM, a container, a DPDK process and a native
// process while its graph carries traffic.
func (o *Orchestrator) Reflavor(graphID, nfID string, tech nffg.Technology) error {
	start := time.Now()
	swapped, err := o.reflavor(graphID, nfID, tech)
	o.metrics.reflavor.latency.Observe(time.Since(start).Seconds())
	if err != nil {
		o.metrics.reflavor.failed.Inc()
		return err
	}
	if swapped {
		o.metrics.reflavor.ok.Inc()
		o.journal.Recordf(telemetry.EventReflavor, o.cfg.NodeName, graphID,
			fmt.Sprintf("%s -> %s", nfID, tech))
	}
	return nil
}

// ReflavorAuto is the policy-triggered variant: it asks the placement
// policy to re-rank the NF's packaged flavors at the graph's currently
// observed traffic rate and hot-swaps to the winner when it differs from
// the running technology. The chosen technology is returned either way.
func (o *Orchestrator) ReflavorAuto(graphID, nfID string) (nffg.Technology, error) {
	o.mu.Lock()
	_, n, set, err := o.findSet(graphID, nfID)
	if err != nil {
		o.mu.Unlock()
		return "", err
	}
	current := set.members[0].inst.Technology
	if n.TechnologyPreference != nffg.TechAny {
		// A pinned NF is not the policy's to move.
		o.mu.Unlock()
		return current, nil
	}
	tpl, ok := o.cfg.Repo.Lookup(n.Name)
	if !ok {
		o.mu.Unlock()
		return "", fmt.Errorf("orchestrator: NF %q not in repository", n.Name)
	}
	req := policy.Request{GraphID: graphID, NFID: nfID, RatePPS: o.observedRateLocked(graphID)}
	chosen := current
	for _, c := range o.cfg.Policy.Rank(req, o.flavorCandidates(tpl, nffg.TechAny)) {
		if c.Tech == current {
			// Keeping the running flavor needs no driver availability
			// check (it already runs) — unless its capability was
			// withdrawn, in which case the policy moves the NF off it.
			if o.cfg.Resources.Has(tpl.Flavors[c.Tech].Capability) {
				chosen = current
				break
			}
			continue
		}
		drv, registered := o.cfg.Compute.Driver(c.Tech)
		if registered && drv.Available(graphID, tpl) {
			chosen = c.Tech
			break
		}
	}
	o.mu.Unlock()
	if chosen == current {
		return current, nil
	}
	return chosen, o.Reflavor(graphID, nfID, chosen)
}

// reflavor implements Reflavor; it reports whether a swap actually ran.
func (o *Orchestrator) reflavor(graphID, nfID string, tech nffg.Technology) (bool, error) {
	if !tech.Valid() || tech == nffg.TechAny {
		return false, fmt.Errorf("orchestrator: reflavor needs a concrete technology, got %q", tech)
	}
	gl := o.lockGraph(graphID)
	defer o.unlockGraph(graphID, gl)
	o.mu.Lock()
	defer o.mu.Unlock()
	d, n, set, err := o.findSet(graphID, nfID)
	if err != nil {
		return false, err
	}
	if set.members[0].inst.Technology == tech {
		return false, nil
	}
	pl, err := o.placementAs(graphID, *n, tech)
	if err != nil {
		return false, fmt.Errorf("orchestrator: reflavor: %w", err)
	}
	size := len(set.members)
	if set.standby != nil {
		size++
	}
	if _, err := shares(graphID, pl, size); err != nil {
		return false, fmt.Errorf("orchestrator: reflavor: %w", err)
	}
	if _, err := o.transition(d, n, nil, slices.Repeat([]Placement{pl}, len(set.members)), set.standby != nil); err != nil {
		return false, fmt.Errorf("orchestrator: reflavor: %w", err)
	}
	return true, nil
}
