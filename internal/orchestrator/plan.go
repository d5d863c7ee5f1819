package orchestrator

import (
	"repro/internal/nffg"
	"repro/internal/policy"
)

// NFPlan is the dry-run scheduling decision for one NF: the flavor the
// placement policy would pick right now and the total resource demand of
// its replica set.
type NFPlan struct {
	NF         string          `json:"nf"`
	Template   string          `json:"template"`
	Technology nffg.Technology `json:"technology"`
	Replicas   int             `json:"replicas"`
	// CPUMillis and RAMBytes are the demand summed across all replicas.
	CPUMillis int    `json:"cpu-millicores"`
	RAMBytes  uint64 `json:"ram-bytes"`
}

// DeployPlan is what a deploy or update of a graph WOULD do: the outcome of
// validation, flavor scheduling and an admission check against the node's
// free capacity, with nothing instantiated.
type DeployPlan struct {
	Graph string `json:"graph"`
	// Exists reports whether the graph is already deployed (the PUT would
	// be an update rather than a first deploy).
	Exists bool     `json:"exists"`
	NFs    []NFPlan `json:"nfs"`
	// NewCPUMillis/NewRAMBytes are the additional demand over what the
	// graph's current deployment (if any) already holds: new NFs count in
	// full, already-running NFs only their replica growth.
	NewCPUMillis  int    `json:"new-cpu-millicores"`
	NewRAMBytes   uint64 `json:"new-ram-bytes"`
	FreeCPUMillis int    `json:"free-cpu-millicores"`
	FreeRAMBytes  uint64 `json:"free-ram-bytes"`
	// Fits reports whether the additional demand is admissible within the
	// node's free capacity at planning time.
	Fits bool `json:"fits"`
}

// Plan dry-runs a deploy or update: full graph validation, a real pass of
// the placement policy over every NF, and a replica-aware resource
// admission check — without mutating any state. It backs the REST API's
// ?dry-run=true deploys.
func (o *Orchestrator) Plan(g *nffg.Graph) (*DeployPlan, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	placements, err := o.schedule(g)
	if err != nil {
		return nil, err
	}
	d := o.graphs[g.ID]
	usedCPU, totalCPU, usedRAM, totalRAM := o.cfg.Resources.Usage()
	plan := &DeployPlan{
		Graph:         g.ID,
		Exists:        d != nil,
		FreeCPUMillis: totalCPU - usedCPU,
		FreeRAMBytes:  totalRAM - usedRAM,
	}
	model := *o.cfg.Model
	for _, p := range placements {
		reps := p.NF.Replicas
		if reps < 1 {
			reps = 1
		}
		perCPU := p.Template.Flavors[p.Technology].CPUMillis
		perRAM := model.BaseRAM(policy.FlavorOf(p.Technology)) + p.Template.WorkloadRAM
		plan.NFs = append(plan.NFs, NFPlan{
			NF:         p.NF.ID,
			Template:   p.Template.Name,
			Technology: p.Technology,
			Replicas:   reps,
			CPUMillis:  perCPU * reps,
			RAMBytes:   perRAM * uint64(reps),
		})
		cur := 0
		if d != nil {
			if set, running := d.nfs[p.NF.ID]; running {
				cur = len(set.members)
			}
		}
		if add := reps - cur; add > 0 {
			plan.NewCPUMillis += perCPU * add
			plan.NewRAMBytes += perRAM * uint64(add)
		}
	}
	plan.Fits = plan.NewCPUMillis <= plan.FreeCPUMillis && plan.NewRAMBytes <= plan.FreeRAMBytes
	return plan, nil
}
