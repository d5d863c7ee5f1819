package orchestrator

import (
	"fmt"
	"slices"

	"repro/internal/compute"
	"repro/internal/nffg"
	"repro/internal/policy"
	"repro/internal/repository"
)

// defaultPreference is the static technology order submitted to the
// placement policy when the NF-FG does not pin one: native functions first
// (the paper's thesis: lowest overhead on CPE-class hardware), then
// containers, then DPDK processes, then VMs. FirstFit keeps this order
// verbatim; the other policies re-rank it.
var defaultPreference = []nffg.Technology{
	nffg.TechNative, nffg.TechDocker, nffg.TechDPDK, nffg.TechVM,
}

// Placement is the scheduler's decision for one NF.
type Placement struct {
	NF         nffg.NF
	Template   *repository.Template
	Technology nffg.Technology
	Driver     compute.Driver
}

// flavorCandidates builds the policy candidates for one NF: every packaged
// flavor with a registered driver, in static preference order, each priced
// with its ledger charge, runtime footprint and modeled per-packet cost.
// Callers hold o.mu.
func (o *Orchestrator) flavorCandidates(tpl *repository.Template, pref nffg.Technology) []policy.Candidate {
	order := defaultPreference
	if pref != nffg.TechAny {
		order = []nffg.Technology{pref}
	}
	usedCPU, totalCPU, usedRAM, totalRAM := o.cfg.Resources.Usage()
	freeCPU := totalCPU - usedCPU
	freeRAM := totalRAM - usedRAM
	model := *o.cfg.Model
	cands := make([]policy.Candidate, 0, len(order))
	for _, tech := range order {
		fl, packaged := tpl.Flavors[tech]
		if !packaged {
			continue
		}
		if _, registered := o.cfg.Compute.Driver(tech); !registered {
			continue
		}
		flavor := policy.FlavorOf(tech)
		cands = append(cands, policy.Candidate{
			Tech:          tech,
			CPUMillis:     fl.CPUMillis,
			RAMBytes:      model.BaseRAM(flavor) + tpl.WorkloadRAM,
			CostNs:        float64(model.PacketCost(flavor, policy.RefFrameBytes, 0)),
			FreeCPUMillis: freeCPU,
			FreeRAMBytes:  freeRAM,
			Linked:        true,
		})
	}
	return cands
}

// schedule resolves every NF of a graph against the repository (the VNF
// resolver) and picks an execution technology per NF (the VNF scheduler):
// the configured placement policy ranks the packaged flavors — by static
// preference, capacity fit or modeled cost at the graph's observed traffic
// rate — and the first ranked flavor whose driver is deployable right now
// (capability present, NNF not busy: the status check of paper §2) wins.
// The same policy engine ranks hosting nodes in the global orchestrator.
// Callers hold o.mu.
func (o *Orchestrator) schedule(g *nffg.Graph) ([]Placement, error) {
	pol := o.cfg.Policy
	rate := o.observedRateLocked(g.ID)
	placements := make([]Placement, 0, len(g.NFs))
	for _, n := range g.NFs {
		tpl, ok := o.cfg.Repo.Lookup(n.Name)
		if !ok {
			return nil, fmt.Errorf("orchestrator: graph %q: NF %q not in repository", g.ID, n.Name)
		}
		if len(n.Ports) != tpl.Ports {
			return nil, fmt.Errorf("orchestrator: graph %q: NF %q declares %d ports, template has %d",
				g.ID, n.ID, len(n.Ports), tpl.Ports)
		}
		req := policy.Request{GraphID: g.ID, NFID: n.ID, RatePPS: rate}
		placed := false
		for _, c := range pol.Rank(req, o.flavorCandidates(tpl, n.TechnologyPreference)) {
			// A graph attaches to a native function once: an earlier NF of
			// this pass that took the template natively holds that
			// attachment, which the driver cannot see until it launches.
			if c.Tech == nffg.TechNative && slices.ContainsFunc(placements, func(p Placement) bool {
				return p.Technology == nffg.TechNative && p.Template == tpl
			}) {
				continue
			}
			drv, registered := o.cfg.Compute.Driver(c.Tech)
			if !registered || !drv.Available(g.ID, tpl) {
				continue
			}
			placements = append(placements, Placement{NF: n, Template: tpl, Technology: c.Tech, Driver: drv})
			placed = true
			break
		}
		if !placed {
			return nil, fmt.Errorf("orchestrator: graph %q: no deployable flavor for NF %q (preference %q, policy %q)",
				g.ID, n.ID, n.TechnologyPreference, pol.Name())
		}
	}
	return placements, nil
}

// placementAs resolves one NF onto a given technology instead of asking the
// policy: the template must package that flavor and its driver must be able
// to deploy one more instance right now. Callers hold o.mu.
func (o *Orchestrator) placementAs(graphID string, n nffg.NF, tech nffg.Technology) (Placement, error) {
	tpl, ok := o.cfg.Repo.Lookup(n.Name)
	if !ok {
		return Placement{}, fmt.Errorf("NF %q not in repository", n.Name)
	}
	if _, packaged := tpl.Flavors[tech]; !packaged {
		return Placement{}, fmt.Errorf("template %q has no %q flavor", tpl.Name, tech)
	}
	drv, registered := o.cfg.Compute.Driver(tech)
	if !registered {
		return Placement{}, fmt.Errorf("no %q driver registered", tech)
	}
	if !drv.Available(graphID, tpl) {
		return Placement{}, fmt.Errorf("%q flavor of %q not deployable right now", tech, tpl.Name)
	}
	return Placement{NF: n, Template: tpl, Technology: tech, Driver: drv}, nil
}
