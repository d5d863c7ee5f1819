package orchestrator

import (
	"fmt"
	"time"

	"repro/internal/nf"
	"repro/internal/nffg"
	"repro/internal/telemetry"
	"repro/internal/vswitch"
)

// nfSet is the instance set of one NF of a deployed graph: every instance
// the orchestrator runs on the NF's behalf, by the role it plays. A
// single-instance NF is a set of one member owning every bucket; scale-out,
// a flavor hot-swap, a standby promotion and a replica repair are all
// transitions of this one structure.
type nfSet struct {
	// members are the instances in service. Steering shards the NF's
	// traffic over them by flow bucket; members[0] stands for the NF where
	// a single instance is reported (Instances, Topology). Never empty
	// while the set is recorded in DeployedGraph.nfs.
	members []*nfAttachment
	// assign maps flow bucket -> index into members. Steering compiles it
	// into a SelectBucket action, so both directions of a connection (the
	// bucket hash is symmetric) always reach the bucket's owner.
	assign [vswitch.NumStateBuckets]int
	// standby is wired to the LSI but never steered at (active-standby NFs
	// only); it idles in the attaching state until a promotion makes it a
	// member.
	standby *nfAttachment
	// draining are former members on their way out: no rule outputs to
	// them any more, but the rules whose ingress is the NF stay compiled
	// against them, so packets they already hold finish their traversal.
	draining []*nfAttachment
}

// all returns every instance the set must stop when the NF goes away and
// must reconfigure when the NF's configuration changes.
func (s *nfSet) all() []*nfAttachment {
	out := append(append([]*nfAttachment(nil), s.members...), s.draining...)
	if s.standby != nil {
		out = append(out, s.standby)
	}
	return out
}

// wantedSet says which instances should serve an NF after a transition.
// This is all a public verb decides; how the set gets there is transition's
// business.
type wantedSet struct {
	// keep lists the instances of the current set (members, or the standby
	// being promoted) that are in service afterwards, in member order.
	keep []*nfAttachment
	// fresh lists the instances to launch; they follow keep.
	fresh []Placement
	// standby asks for a wired-but-unsteered standby next to the members:
	// the current one stays, a missing (or promoted) one is launched.
	standby bool
}

// repeatPlacement wants n instances of one placement.
func repeatPlacement(pl Placement, n int) []Placement {
	out := make([]Placement, n)
	for i := range out {
		out[i] = pl
	}
	return out
}

// statefulNF extracts the instance's flow-state interface, if its processor
// migrates per-flow state.
func statefulNF(att *nfAttachment) (nf.StatefulNF, bool) {
	s, ok := att.inst.Runtime.Processor().(nf.StatefulNF)
	return s, ok
}

// flowStateDropper is the optional third verb of StatefulNF: donors that
// implement it release migrated state once the new owner holds it.
type flowStateDropper interface {
	DropFlowState(filter func(nf.FlowTuple) bool)
}

// rebalanceAssign reassigns buckets so every member in [0,n) owns an
// almost-equal share, moving as few buckets as possible: only buckets whose
// owner is gone (index outside [0,n)) or above its fair-share quota change
// hands.
func rebalanceAssign(assign *[vswitch.NumStateBuckets]int, n int) {
	quota := make([]int, n)
	base, extra := vswitch.NumStateBuckets/n, vswitch.NumStateBuckets%n
	for i := range quota {
		quota[i] = base
		if i < extra {
			quota[i]++
		}
	}
	counts := make([]int, n)
	var pool []int
	for b, owner := range assign {
		if owner >= n || owner < 0 {
			pool = append(pool, b)
			continue
		}
		counts[owner]++
	}
	for b := vswitch.NumStateBuckets - 1; b >= 0; b-- {
		owner := assign[b]
		if owner >= 0 && owner < n && counts[owner] > quota[owner] {
			counts[owner]--
			pool = append(pool, b)
		}
	}
	next := 0
	for _, b := range pool {
		for counts[next] >= quota[next] {
			next++
		}
		assign[b] = next
		counts[next]++
	}
}

// bucketMoves is the state-migration plan of a transition: per donor
// instance, the buckets it gives up.
type bucketMoves map[*nfAttachment]map[int]bool

// reassign computes the bucket map of the wanted members from the current
// one — a bucket whose owner stays in service keeps it, the rest are
// rebalanced with minimal movement — and the buckets that change owner.
func reassign(cur *nfSet, members []*nfAttachment) ([vswitch.NumStateBuckets]int, bucketMoves) {
	index := make(map[*nfAttachment]int, len(members))
	for i, m := range members {
		index[m] = i
	}
	var assign [vswitch.NumStateBuckets]int
	for b, owner := range cur.assign {
		if i, stays := index[cur.members[owner]]; stays {
			assign[b] = i
		} else {
			assign[b] = -1
		}
	}
	rebalanceAssign(&assign, len(members))
	moves := make(bucketMoves)
	for b, owner := range assign {
		if from := cur.members[cur.assign[b]]; from != members[owner] {
			if moves[from] == nil {
				moves[from] = make(map[int]bool)
			}
			moves[from][b] = true
		}
	}
	return assign, moves
}

// migrate exports the state of the moving buckets from each donor and
// imports it into the buckets' owners under assign. Stateless processors
// are skipped. A stopped donor's processor still holds its flow tables in
// memory (Runtime.Stop only parks the execution environment), so a crashed
// instance's state is salvaged, not lost. Imports overwrite, so running
// this again as a catch-up pass after the steering swap is idempotent.
// Returns the number of flow-state entries moved. Callers hold o.mu.
func (o *Orchestrator) migrate(graphID, nfID string, moves bucketMoves, members []*nfAttachment, assign *[vswitch.NumStateBuckets]int) int {
	moved := 0
	for donor, buckets := range moves {
		src, ok := statefulNF(donor)
		if !ok {
			continue
		}
		byOwner := make(map[*nfAttachment][]nf.FlowState)
		for _, st := range src.ExportFlowState(nf.BucketFilter(buckets)) {
			owner := members[assign[st.Tuple.Bucket()]]
			byOwner[owner] = append(byOwner[owner], st)
		}
		for owner, batch := range byOwner {
			dst, ok := statefulNF(owner)
			if !ok {
				continue
			}
			if err := dst.ImportFlowState(batch); err != nil {
				o.journal.Recordf(telemetry.EventMigrate, o.cfg.NodeName, graphID,
					fmt.Sprintf("%s: importing %d flows into %s: %v", nfID, len(batch), owner.inst.Name, err))
				continue
			}
			moved += len(batch)
		}
	}
	return moved
}

// traffic sums the packet counters of the given instances. Counters only
// grow, so two equal sums mean none of the instances saw a packet between.
func traffic(atts []*nfAttachment) (sum nf.Stats) {
	for _, att := range atts {
		s := att.inst.Runtime.Stats()
		sum.RxPackets += s.RxPackets
		sum.TxPackets += s.TxPackets
		sum.Errors += s.Errors
	}
	return sum
}

// holds reports whether att is one of atts.
func holds(atts []*nfAttachment, att *nfAttachment) bool {
	for _, a := range atts {
		if a == att {
			return true
		}
	}
	return false
}

// standbyPlacement places the standby of a wanted set. Everything that joins
// a set after the NF's first launch runs in the set's technology (resize,
// restart and this); the one exception is a standby whose set's technology
// cannot host another instance right now — one graph holds a single
// non-sharable NNF — which goes where the policy puts it: a standby in
// another technology still beats none. Callers hold o.mu.
func (o *Orchestrator) standbyPlacement(graphID string, n nffg.NF, want wantedSet) (Placement, error) {
	var tech nffg.Technology // a wanted set has at least one member
	if len(want.keep) > 0 {
		tech = want.keep[0].inst.Technology
	} else {
		tech = want.fresh[0].Technology
	}
	if pl, err := o.placementAs(graphID, n, tech); err == nil {
		return pl, nil
	}
	pls, err := o.schedule(&nffg.Graph{ID: graphID, NFs: []nffg.NF{n}})
	if err != nil {
		return Placement{}, err
	}
	return pls[0], nil
}

// transition is the only way an instance enters or leaves the service of a
// deployed NF. It moves the NF's set to the wanted members make-before-break,
// so live traffic sees neither a forwarding gap nor a state gap:
//
//  1. launch what is missing (fresh members, a standby) while the current
//     members keep serving;
//  2. move the per-flow state of the buckets whose owner changes — only
//     those — from their donor to their new owner;
//  3. repoint the steering with ONE atomic snapshot swap: every rule now
//     outputs to the wanted members, while outgoing members keep the rules
//     whose ingress is the NF as their drain path;
//  4. catch-up: re-migrate what raced the swap into a donor;
//  5. drain: wait for the outgoing members' counters to quiesce;
//  6. final catch-up, unless no previous member saw a packet since step 4;
//     then release the migrated state from donors that stay;
//  7. drop the drain path and detach the outgoing members.
//
// A failure in steps 1-3 undoes what was launched and leaves the previous
// set serving. It returns the number of flow-state entries moved. Callers
// hold the graph's operation lock and o.mu; o.mu is released while instances
// boot (step 1) and drain (step 5).
func (o *Orchestrator) transition(d *DeployedGraph, n nffg.NF, want wantedSet) (int, error) {
	graphID, set := d.Graph.ID, d.nfs[n.ID]
	prev := *set
	promoted := prev.standby != nil && holds(want.keep, prev.standby)
	arm := want.standby && (prev.standby == nil || promoted)
	// A shared native NF is one node-wide runtime multiplexed on LSI-0 by
	// marks: it has no per-instance ports to shard over, and a second
	// attachment would be the same instance, not a redundant one. For the
	// instances that stay this is known before anything boots.
	size := len(want.keep) + len(want.fresh)
	if want.standby {
		size++
	}
	alone := func(atts []*nfAttachment) error {
		for _, att := range atts {
			if att.inst.Shared && size > 1 {
				return fmt.Errorf("orchestrator: graph %q: NF %q: a shared native instance can only serve alone, not beside %d other instance(s)",
					graphID, n.ID, size-1)
			}
		}
		return nil
	}
	if err := alone(want.keep); err != nil {
		return 0, err
	}
	pls := want.fresh
	if arm {
		sb, err := o.standbyPlacement(graphID, n, want)
		if err != nil {
			return 0, fmt.Errorf("orchestrator: standby for %q: %w", n.ID, err)
		}
		pls = append(pls[:len(pls):len(pls)], sb)
	}
	launched, err := o.launch(d, pls, len(want.fresh))
	if err != nil {
		return 0, err
	}
	undo := func(err error) (int, error) {
		*set = prev
		for _, att := range launched {
			o.detachNF(d, n.ID, att)
		}
		return 0, err
	}
	if err := alone(launched); err != nil {
		return undo(err)
	}
	next := nfSet{
		members: append(append([]*nfAttachment(nil), want.keep...), launched[:len(want.fresh)]...),
		assign:  prev.assign,
		standby: prev.standby,
	}
	switch {
	case arm:
		next.standby = launched[len(want.fresh)]
	case promoted || !want.standby:
		next.standby = nil
	}
	for _, att := range prev.members {
		if !holds(next.members, att) {
			next.draining = append(next.draining, att)
		}
	}
	moved := 0
	if len(next.draining) == 0 && len(next.members) == len(prev.members) {
		*set = next // same members: only the standby changes
	} else if moved, err = o.swapMembers(d, n.ID, set, next); err != nil {
		return undo(err)
	}
	if prev.standby != nil && !promoted && !want.standby {
		o.detachNF(d, n.ID, prev.standby)
	}
	return moved, nil
}

// swapMembers runs steps 2-7 of a transition: it replaces the set's members
// by next's, with next.draining the members on their way out. An error
// means the steering was not repointed; the caller restores the set.
func (o *Orchestrator) swapMembers(d *DeployedGraph, nfID string, set *nfSet, next nfSet) (int, error) {
	graphID, prev := d.Graph.ID, set.members
	migStart := time.Now()
	assign, moves := reassign(set, next.members)
	next.assign = assign
	migrate := func() int { return o.migrate(graphID, nfID, moves, next.members, &assign) }
	moved := migrate()
	*set = next
	if err := o.reprogram(d); err != nil {
		return 0, fmt.Errorf("orchestrator: graph %q: NF %q: repointing steering: %w", graphID, nfID, err)
	}
	seen := traffic(prev) // sampled before the catch-up reads them
	moved += migrate()
	for _, att := range next.members {
		o.setState(graphID, nfID, att, StateRunning) // a promoted standby idled in attaching
	}
	if len(next.draining) > 0 {
		for _, att := range next.draining {
			o.setState(graphID, nfID, att, StateDraining)
		}
		o.drain(next.draining)
		// A packet delivered to a donor just before the swap may have
		// minted state while we were waiting — unless no previous member
		// saw a packet since before the catch-up.
		if traffic(prev) != seen {
			moved += migrate()
		}
		set.draining = nil
		if err := o.reprogram(d); err != nil {
			// The members' steering is intact (same entries minus the
			// drain path); record and continue the teardown.
			o.journal.Recordf(telemetry.EventFlowMod, o.cfg.NodeName, graphID,
				fmt.Sprintf("%s: dropping drain entries: %v", nfID, err))
		}
	}
	for donor, buckets := range moves {
		dropper, ok := donor.inst.Runtime.Processor().(flowStateDropper)
		if ok && holds(next.members, donor) {
			dropper.DropFlowState(nf.BucketFilter(buckets))
		}
	}
	for _, att := range next.draining {
		o.detachNF(d, nfID, att)
	}
	o.metrics.migratedFlows.Add(uint64(moved))
	o.metrics.migrationLatency.Observe(time.Since(migStart).Seconds())
	if spec := d.Graph.FindNF(nfID); spec != nil && len(next.members) != len(prev) {
		spec.Replicas = len(next.members)
	}
	return moved, nil
}
