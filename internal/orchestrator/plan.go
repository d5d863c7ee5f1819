package orchestrator

import (
	"fmt"
	"slices"

	"repro/internal/nffg"
	"repro/internal/policy"
	"repro/internal/repository"
	"repro/internal/telemetry"
)

// nodePlan is what one graph change does to the node: Deploy, Update,
// Scale and the set transitions execute it, Plan renders it. plan computes
// it under o.mu and mutates nothing.
type nodePlan struct {
	// steps holds one step per NF of the wanted graph, in its order.
	steps []nfStep
	// launch is every instance to boot, in one batch: per step, its
	// restarted instances, its fresh members, then its standby.
	launch []Placement
	// retire lists the running NFs the wanted graph drops; detach the
	// attached endpoints it drops or changes; attach the endpoints it adds
	// or changes.
	retire []string
	detach []*epAttachment
	attach []nffg.Endpoint
	// cpu and ram are what the launches charge the ledger. Nothing retired
	// is credited: launches precede retires.
	cpu int
	ram uint64
}

// nfStep is the plan for one NF of the wanted graph.
type nfStep struct {
	n *nffg.NF // in the wanted graph
	// set is the running set; nil for an NF the plan starts.
	set *nfSet
	// tech is the NF's technology: a running NF keeps the one it runs in.
	tech nffg.Technology
	// keep are the running instances in service afterwards, in member
	// order; grow fresh members, launched from the plan's launch[at:],
	// follow them.
	keep     []*nfAttachment
	grow, at int
	// standby keeps the running standby; spare launches one after the
	// fresh members.
	standby, spare bool
	// apply reconfigures every instance of a running set in place; restart
	// counts the relaunches, launch[at-restart:at], of a set restarted instead.
	apply   []func(map[string]string) error
	restart int
	// cpu and ram are what the step's launches charge.
	cpu int
	ram uint64
}

// NFPlan is the dry-run scheduling decision for one NF: the flavor it runs
// in (a running NF keeps its own) and what its launches would charge.
type NFPlan struct {
	NF         string          `json:"nf"`
	Template   string          `json:"template"`
	Technology nffg.Technology `json:"technology"`
	Replicas   int             `json:"replicas"`
	// CPUMillis and RAMBytes are summed across the instances the NF would
	// launch: new replicas and a new standby. A join of a running shared
	// instance charges nothing.
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
	// NewCPUMillis/NewRAMBytes are what the deploy or update would charge:
	// the sum over its NFs.
	NewCPUMillis  int    `json:"new-cpu-millicores"`
	NewRAMBytes   uint64 `json:"new-ram-bytes"`
	FreeCPUMillis int    `json:"free-cpu-millicores"`
	FreeRAMBytes  uint64 `json:"free-ram-bytes"`
	// Fits reports whether the demand is admissible within the node's free
	// capacity at planning time; a deploy or update is refused exactly when
	// it is not.
	Fits bool `json:"fits"`
}

// Plan dry-runs a deploy or update: the plan a Deploy or Update of g would
// execute, rendered without executing it. It backs the REST API's
// ?dry-run=true deploys.
func (o *Orchestrator) Plan(g *nffg.Graph) (*DeployPlan, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	d, exists := o.graphs[g.ID]
	if !exists {
		d = &DeployedGraph{Graph: g}
	}
	p, err := o.plan(d, g)
	if err != nil {
		return nil, err
	}
	usedCPU, totalCPU, usedRAM, totalRAM := o.cfg.Resources.Usage()
	out := &DeployPlan{Graph: g.ID, Exists: exists, NFs: make([]NFPlan, len(p.steps)),
		NewCPUMillis: p.cpu, NewRAMBytes: p.ram, FreeCPUMillis: totalCPU - usedCPU, FreeRAMBytes: totalRAM - usedRAM}
	for i, st := range p.steps {
		out.NFs[i] = NFPlan{NF: st.n.ID, Template: st.n.Name, Technology: st.tech,
			Replicas: len(st.keep) + st.grow, CPUMillis: st.cpu, RAMBytes: st.ram}
	}
	out.Fits = o.fits(g.ID, p) == nil
	return out, nil
}

// fits admits a plan's demand against the node's free capacity.
func (o *Orchestrator) fits(graphID string, p *nodePlan) error {
	usedCPU, totalCPU, usedRAM, totalRAM := o.cfg.Resources.Usage()
	if p.cpu > totalCPU-usedCPU || p.ram > totalRAM-usedRAM {
		return fmt.Errorf("orchestrator: graph %q does not fit: needs %dm CPU and %d MB RAM, node has %dm and %d MB free",
			graphID, p.cpu, p.ram/repository.MB, totalCPU-usedCPU, (totalRAM-usedRAM)/repository.MB)
	}
	return nil
}

// sharer is implemented by the native driver: it answers, touching nothing,
// whether an instance of the template comes up shared and whether it joins
// a running one.
type sharer interface {
	Shares(tpl *repository.Template) (shared, joins bool)
}

// shares reports whether pl joins a running shared instance, which charges
// the ledger nothing, and refuses a shared one in a set of size instances:
// a shared native NF is one node-wide runtime multiplexed on LSI-0 by marks,
// with no per-instance ports to shard over, and a second attachment would
// be the same instance, not a redundant one.
func shares(graphID string, pl Placement, size int) (bool, error) {
	s, ok := pl.Driver.(sharer)
	if !ok || pl.Technology != nffg.TechNative {
		return false, nil
	}
	shared, joins := s.Shares(pl.Template)
	if shared && size > 1 {
		return false, errServesAlone(graphID, pl.NF.ID, size)
	}
	return joins, nil
}

// errServesAlone refuses a set of size instances around a shared native NF.
func errServesAlone(graphID, nfID string, size int) error {
	return fmt.Errorf("orchestrator: graph %q: NF %q: a shared native instance can only serve alone, not beside %d other instance(s)",
		graphID, nfID, size-1)
}

// plan decides how the node moves d to g, over the whole graph at once:
//   - a running NF keeps the technology it runs in and is never
//     rescheduled; it grows in that technology, and a changed spec is
//     applied in place when every instance's driver can, else by restart;
//   - an NF that is not running is scheduled, and its replicas and its
//     standby are fresh placements of that decision;
//   - the demand is what the launches will charge.
//
// d may be an empty graph (a first deploy). Callers hold o.mu.
func (o *Orchestrator) plan(d *DeployedGraph, g *nffg.Graph) (*nodePlan, error) {
	p := &nodePlan{steps: make([]nfStep, len(g.NFs))}
	rate, rated := 0.0, false
	held := func(tpl *repository.Template) bool { return o.holdsNative(d, p.launch, tpl) }
	scheduled := func(n nffg.NF, count int) (Placement, error) {
		if !rated {
			rate, rated = o.observedRateLocked(g.ID), true
		}
		return o.schedule(g.ID, n, rate, count, held)
	}
	for i := range g.NFs {
		n, st := g.NFs[i], &p.steps[i]
		members, wantStandby := max(n.Replicas, 1), n.Redundancy == nffg.RedundancyActiveStandby
		size := members
		if wantStandby {
			size++
		}
		st.n, st.set, st.at = &g.NFs[i], d.nfs[n.ID], len(p.launch)
		var pl Placement
		var err error
		joins := false
		if st.set == nil {
			if pl, err = scheduled(n, members); err != nil {
				return nil, err
			}
			st.tech, st.grow = pl.Technology, members
			if joins, err = shares(g.ID, pl, size); err != nil {
				return nil, err
			}
		} else {
			running := st.set.members[0].inst
			if running.Shared && size > 1 {
				return nil, errServesAlone(g.ID, n.ID, size)
			}
			st.tech, st.keep = running.Technology, st.set.members[:min(members, len(st.set.members))]
			if st.grow = members - len(st.keep); st.grow > 0 {
				pl, err = o.placementAs(g.ID, n, st.tech)
				if err == nil && st.tech == nffg.TechNative {
					err = fmt.Errorf("graph %q holds its native %q already", g.ID, n.Name)
				}
				if err != nil {
					return nil, fmt.Errorf("orchestrator: scaling %q to %d member(s): %w", n.ID, members, err)
				}
			}
			st.standby = wantStandby && st.set.standby != nil
			if prev := d.Graph.FindNF(n.ID); prev != nil && !sameButReplicas(*prev, n) {
				if err := o.planConfig(p, st); err != nil {
					return nil, err
				}
			}
		}
		for k := 0; k < st.grow; k++ {
			o.add(p, st, pl, joins, len(g.NFs)-i)
		}
		if wantStandby && !st.standby {
			// The standby runs in the set's technology, unless the graph's
			// one native attachment is the set's: a standby elsewhere
			// beats none.
			spare, err := o.placementAs(g.ID, n, st.tech)
			if err != nil || st.tech == nffg.TechNative {
				spare, err = scheduled(n, 1)
			}
			if err != nil {
				return nil, fmt.Errorf("orchestrator: standby for %q: %w", n.ID, err)
			}
			spare.Standby, st.spare = true, true
			o.add(p, st, spare, false, len(g.NFs)-i)
		}
	}
	// Each list is sized on its first entry for the plan to nothing.
	for id := range d.nfs {
		if g.FindNF(id) == nil {
			if p.retire == nil {
				p.retire = make([]string, 0, len(d.nfs))
			}
			p.retire = append(p.retire, id)
		}
	}
	for id, att := range d.eps {
		if ep := g.FindEndpoint(id); ep == nil || *ep != att.ep {
			if p.detach == nil {
				p.detach = make([]*epAttachment, 0, len(d.eps))
			}
			p.detach = append(p.detach, att)
		}
	}
	if len(d.eps) == 0 {
		p.attach = g.Endpoints
	}
	for _, ep := range g.Endpoints {
		if att, ok := d.eps[ep.ID]; ok && att.ep != ep || !ok && len(d.eps) > 0 {
			p.attach = append(p.attach, ep)
		}
	}
	return p, nil
}

// add appends one launch of st to the plan and charges it what the launch
// will charge the ledger: nothing for a join of a running shared instance.
func (o *Orchestrator) add(p *nodePlan, st *nfStep, pl Placement, joins bool, rest int) {
	if p.launch == nil {
		p.launch = make([]Placement, 0, rest)
	}
	p.launch = append(p.launch, pl)
	if !joins {
		cpu, ram := pl.Template.Flavors[pl.Technology].CPUMillis, o.cfg.Model.BaseRAM(policy.FlavorOf(pl.Technology))+pl.Template.WorkloadRAM
		st.cpu, st.ram, p.cpu, p.ram = st.cpu+cpu, st.ram+ram, p.cpu+cpu, p.ram+ram
	}
}

// planConfig decides how a running NF takes a changed spec: in place when
// every instance of its set — members and standby alike — says how,
// otherwise by a restart of the set. A changed spec never leaves stale
// configuration running, in service or waiting to be promoted into it. The
// drivers answer before any instance is touched.
func (o *Orchestrator) planConfig(p *nodePlan, st *nfStep) error {
	all := st.set.all()
	st.apply = make([]func(map[string]string) error, 0, len(all))
	for _, att := range all {
		if drv, reg := o.cfg.Compute.Driver(att.inst.Technology); reg {
			if apply := drv.Reconfigurer(att.inst); apply != nil {
				st.apply = append(st.apply, apply)
			}
		}
	}
	if len(st.apply) < len(all) {
		pls, err := o.relaunches(*st.n, st.set)
		p.launch, st.apply, st.restart, st.at = append(p.launch, pls...), nil, len(pls), len(p.launch)+len(pls)
		return err
	}
	return nil
}

// relaunches places the restart of a running set with spec n: a relaunch
// of every instance — members, then the standby — in the technology it
// runs in (the policy places an NF's first instance only, and its answer
// need not host them all). Neither availability nor a charge is planned:
// an instance stops before its relaunch starts.
func (o *Orchestrator) relaunches(n nffg.NF, set *nfSet) ([]Placement, error) {
	tpl, ok := o.cfg.Repo.Lookup(n.Name)
	if !ok {
		return nil, fmt.Errorf("orchestrator: NF %q not in repository", n.Name)
	}
	var pls []Placement
	for _, att := range set.all() {
		drv, _ := o.cfg.Compute.Driver(att.inst.Technology) // registered: it runs the instance
		pls = append(pls, Placement{NF: n, Template: tpl, Technology: att.inst.Technology, Driver: drv, Standby: att == set.standby})
	}
	return pls, nil
}

// sameButReplicas reports whether two NF specs differ at most in their
// replica count: such a change is a scale operation, not a config change,
// and must not restart the instances.
func sameButReplicas(a, b nffg.NF) bool {
	b.Replicas = a.Replicas
	return nffg.EqualNF(a, b)
}

// holdsNative reports whether the graph holds the template's native
// function when the plan launches: a running instance (retires come after
// launches) or one of the launches placed so far. Callers hold o.mu.
func (o *Orchestrator) holdsNative(d *DeployedGraph, launch []Placement, tpl *repository.Template) bool {
	for _, n := range d.Graph.NFs {
		if set := d.nfs[n.ID]; set != nil && n.Name == tpl.Name && set.runsNative() {
			return true
		}
	}
	return slices.ContainsFunc(launch, func(pl Placement) bool {
		return pl.Technology == nffg.TechNative && pl.Template == tpl
	})
}

// savedSet is a running set as it stood before execute changed it.
type savedSet struct {
	nfID string
	set  *nfSet
	prev nfSet
}

// execute applies a plan to d and makes g its spec, make-before-break but
// for a restart, so live traffic sees neither a forwarding gap nor a state gap:
//
//  1. refuse a plan that does not fit, before anything boots;
//  2. retire the sets the plan restarts (a non-sharable NNF or an exhausted
//     flavor cannot run twice): each is out of the datapath until step 7,
//     and its flow state does not survive (the new config may invalidate it);
//  3. launch every fresh instance (members, standbys, relaunches) in one
//     batch, with o.mu released, while the current members keep serving;
//  4. give each restarted set its relaunches, keeping its size, bucket map
//     and member order, and reconfigure in place the other running NFs
//     whose spec changed;
//  5. detach and attach endpoints;
//  6. move every set to its wanted members, migrating the per-flow state of
//     the buckets whose owner changes — only those — to their new owner;
//  7. commit the whole steering once, one table publish: every rule now
//     outputs to the wanted members, while outgoing members keep the rules
//     whose ingress is the NF as their drain path. The plan to an empty
//     graph (Undeploy) commits nothing: its LSI closes;
//  8. drain the outgoing members with o.mu released, re-migrating what
//     raced the commit, drop the drain path (a second commit), and detach
//     them, the dropped standbys and the NFs g drops.
//
// A failure in steps 1-7 undoes all of it: the node is left with the
// instance sets, endpoints, VLAN slots, internal-group members and ledger
// usage it had, a restarted set relaunched with its previous spec. It
// returns the number of flow-state entries moved. Callers hold the graph's
// operation lock and o.mu.
func (o *Orchestrator) execute(d *DeployedGraph, g *nffg.Graph, p *nodePlan) (int, error) {
	if err := o.fits(g.ID, p); err != nil {
		return 0, err
	}
	old, steer := d.Graph, false // set once a restart or a change of g moves the steering
	for _, st := range p.steps {
		if st.restart > 0 {
			o.retire(d, st.n.ID)
			steer = true
		}
	}
	launched, err := o.launch(d, p.launch)
	var configured, detached, attached int
	var saved []savedSet
	undo := func(err error) (int, error) {
		d.Graph = old
		for _, s := range saved {
			*s.set = s.prev
		}
		for _, st := range p.steps {
			if st.set == nil {
				delete(d.nfs, st.n.ID)
			}
		}
		for i, att := range launched {
			o.detachNF(d, p.launch[i].NF.ID, att)
		}
		for _, ep := range p.attach[:attached] {
			o.detachEndpoint(d, d.eps[ep.ID])
			delete(d.eps, ep.ID)
		}
		for _, att := range p.detach[:detached] {
			if re, err := o.attachEndpoint(d, att.ep); err == nil {
				d.eps[att.ep.ID] = re
			}
		}
		for _, st := range p.steps[:configured] {
			prev := old.FindNF(st.n.ID)
			for _, apply := range st.apply {
				_ = apply(prev.Config)
			}
		}
		// A restarted set relaunches with its previous spec, so the graph
		// is not left with a hole its steering points into.
		for _, st := range p.steps {
			if st.restart == 0 {
				continue
			}
			delete(d.nfs, st.n.ID)
			pls, rerr := o.relaunches(*old.FindNF(st.n.ID), st.set)
			var atts []*nfAttachment
			if rerr == nil {
				atts, rerr = o.launch(d, pls)
			}
			detail := fmt.Sprintf("%s restored to previous config after failed restart", st.n.ID)
			if rerr == nil {
				o.reinstall(d, st.n.ID, st.set, atts)
			} else {
				detail = fmt.Sprintf("%s lost: restart failed (%v), recovery failed (%v)", st.n.ID, err, rerr)
			}
			o.journal.Recordf(telemetry.EventNFConfig, o.cfg.NodeName, g.ID, detail)
		}
		if steer {
			_ = o.program(d)
		}
		return 0, err
	}
	if err != nil {
		return undo(err)
	}
	steer = steer || !nffg.Equal(d.Graph, g)
	for i := range p.steps {
		st := &p.steps[i]
		if st.restart > 0 {
			o.reinstall(d, st.n.ID, st.set, launched[st.at-st.restart:st.at])
			st.keep = st.set.members[:len(st.keep)]
			o.journal.Recordf(telemetry.EventNFConfig, o.cfg.NodeName, g.ID,
				fmt.Sprintf("%s restarted (no in-place update path)", st.n.ID))
		} else if st.apply != nil {
			configured = i + 1
			for _, apply := range st.apply {
				if err := apply(st.n.Config); err != nil {
					return undo(fmt.Errorf("orchestrator: update: reconfiguring %q: %w", st.n.ID, err))
				}
			}
			o.journal.RecordNF(telemetry.EventNFConfig, o.cfg.NodeName, g.ID, renderReconfigured, st.n.ID, 0, 0)
		}
	}

	// A changed endpoint is detached and attached again, so its old
	// version's slot (a VLAN, an internal-group seat) is free for it.
	for _, att := range p.detach {
		steer = true
		o.detachEndpoint(d, att)
		delete(d.eps, att.ep.ID)
		detached++
	}
	for _, ep := range p.attach {
		steer = true
		att, err := o.attachEndpoint(d, ep)
		if err != nil {
			return undo(fmt.Errorf("orchestrator: graph %q: attaching endpoint %q: %w", g.ID, ep.ID, err))
		}
		d.eps[ep.ID] = att
		attached++
	}

	d.Graph = g
	var swaps []*swap
	for _, st := range p.steps {
		fresh := launched[st.at : st.at+st.grow : st.at+st.grow]
		var spare *nfAttachment
		if st.spare {
			spare = launched[st.at+st.grow]
		}
		if st.set == nil {
			d.nfs[st.n.ID], steer = &nfSet{members: fresh, assign: spread(len(fresh)), standby: spare}, true
			continue
		}
		next := nfSet{members: append(st.keep[:len(st.keep):len(st.keep)], fresh...), assign: st.set.assign, standby: spare}
		if st.standby {
			next.standby = st.set.standby
		}
		same := slices.Equal(next.members, st.set.members)
		if same && next.standby == st.set.standby {
			continue
		}
		saved = append(saved, savedSet{nfID: st.n.ID, set: st.set, prev: *st.set})
		if same {
			*st.set = next // only the standby changes
		} else {
			swaps, steer = append(swaps, o.beginSwap(d, st.n.ID, st.set, next)), true
		}
	}
	if steer && len(g.NFs)+len(g.Endpoints) > 0 {
		if err := o.program(d); err != nil {
			return undo(fmt.Errorf("orchestrator: graph %q: repointing steering: %w", g.ID, err))
		}
	}

	// Past the commit nothing is undone.
	moved := 0
	if len(swaps) > 0 {
		o.finishSwaps(d, swaps)
	}
	for _, sw := range swaps {
		moved += sw.moved
		if from, to := len(sw.prev), len(sw.set.members); from != to {
			o.journal.Recordf(telemetry.EventScale, o.cfg.NodeName, g.ID,
				fmt.Sprintf("%s: %d -> %d replicas, %d flows migrated", sw.nfID, from, to, sw.moved))
		}
	}
	for _, s := range saved {
		if sb := s.prev.standby; sb != nil && s.set.standby != sb && !slices.Contains(s.set.members, sb) {
			o.detachNF(d, s.nfID, sb)
		}
	}
	for _, id := range p.retire {
		o.retire(d, id)
	}
	return moved, nil
}

// reinstall gives a restarted set its relaunched instances, as set.all()
// listed those they replace: its size, bucket map and member order stay.
func (o *Orchestrator) reinstall(d *DeployedGraph, nfID string, set *nfSet, atts []*nfAttachment) {
	size := len(set.members)
	set.members, set.standby = atts[:size:size], nil
	if len(atts) > size {
		set.standby = atts[size]
	}
	d.nfs[nfID] = set
}

// transition moves one NF's set outside a graph update, by the same
// execute: keep stay in service, members launched from fresh follow them,
// and standby keeps the running standby (a kept one is promoted). A flavor
// hot-swap, a standby promotion and a replica repair are transitions.
// Callers hold the graph's operation lock and o.mu.
func (o *Orchestrator) transition(d *DeployedGraph, n *nffg.NF, keep []*nfAttachment, fresh []Placement, standby bool) (int, error) {
	return o.execute(d, d.Graph, &nodePlan{launch: fresh, steps: []nfStep{{
		n: n, set: d.nfs[n.ID], keep: keep, grow: len(fresh), standby: standby,
	}}})
}
