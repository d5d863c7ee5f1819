package orchestrator

import (
	"fmt"

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
	// Standby places the NF's standby rather than a member.
	Standby bool
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

// schedule resolves one NF that is not running against the repository (the
// VNF resolver) and picks its execution technology (the VNF scheduler): the
// configured placement policy ranks the packaged flavors — by static
// preference, capacity fit or modeled cost at the graph's observed traffic
// rate — and the first ranked flavor whose driver is deployable right now
// (capability present, NNF not busy: the status check of paper §2) wins. A
// graph attaches to a native function once, so the native flavor is out
// when count instances would share the placement or when held says the
// graph holds, or has just placed, that native function. The same policy
// engine ranks hosting nodes in the global orchestrator. Callers hold o.mu.
func (o *Orchestrator) schedule(graphID string, n nffg.NF, rate float64, count int, held func(*repository.Template) bool) (Placement, error) {
	pol := o.cfg.Policy
	tpl, ok := o.cfg.Repo.Lookup(n.Name)
	if !ok {
		return Placement{}, fmt.Errorf("orchestrator: graph %q: NF %q not in repository", graphID, n.Name)
	}
	if len(n.Ports) != tpl.Ports {
		return Placement{}, fmt.Errorf("orchestrator: graph %q: NF %q declares %d ports, template has %d",
			graphID, n.ID, len(n.Ports), tpl.Ports)
	}
	req := policy.Request{GraphID: graphID, NFID: n.ID, RatePPS: rate}
	for _, c := range pol.Rank(req, o.flavorCandidates(tpl, n.TechnologyPreference)) {
		if c.Tech == nffg.TechNative && (count > 1 || held(tpl)) {
			continue
		}
		drv, registered := o.cfg.Compute.Driver(c.Tech)
		if registered && drv.Available(graphID, tpl) {
			return Placement{NF: n, Template: tpl, Technology: c.Tech, Driver: drv}, nil
		}
	}
	return Placement{}, fmt.Errorf("orchestrator: graph %q: no deployable flavor for NF %q (preference %q, policy %q)",
		graphID, n.ID, n.TechnologyPreference, pol.Name())
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
