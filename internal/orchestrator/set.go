package orchestrator

import (
	"fmt"
	"slices"
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
	// bucket hash is symmetric) always reach the bucket's owner. It is nil
	// while the set has one member, which owns every bucket.
	assign *[vswitch.NumStateBuckets]int
	// standby is wired to the LSI but never steered at (active-standby NFs
	// only); it idles in the attaching state until a promotion makes it a
	// member.
	standby *nfAttachment
	// draining are former members on their way out: no rule outputs to
	// them any more, but the rules whose ingress is the NF stay compiled
	// against them, so packets they already hold finish their traversal.
	draining []*nfAttachment
}

// owner returns the index into members of bucket b's owner.
func (s *nfSet) owner(b int) int {
	if s.assign == nil {
		return 0
	}
	return s.assign[b]
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

// runsNative reports whether any instance of the set runs natively.
func (s *nfSet) runsNative() bool {
	native := func(att *nfAttachment) bool { return att.inst.Technology == nffg.TechNative }
	return slices.ContainsFunc(s.members, native) || slices.ContainsFunc(s.draining, native) ||
		s.standby != nil && native(s.standby)
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

// spread returns the bucket map of n fresh members (nil for one).
func spread(n int) *[vswitch.NumStateBuckets]int {
	if n == 1 {
		return nil
	}
	assign := new([vswitch.NumStateBuckets]int)
	for b := range assign {
		assign[b] = -1
	}
	rebalanceAssign(assign, n)
	return assign
}

// bucketMoves is the state-migration plan of a transition: per donor
// instance, the buckets it gives up.
type bucketMoves map[*nfAttachment]map[int]bool

// reassign computes the bucket map of the wanted members from the current
// one — a bucket whose owner stays in service keeps it, the rest are
// rebalanced with minimal movement — and the buckets that change owner.
// The map is nil for one member.
func reassign(cur *nfSet, members []*nfAttachment) (*[vswitch.NumStateBuckets]int, bucketMoves) {
	next := nfSet{members: members}
	if len(members) > 1 {
		index := make(map[*nfAttachment]int, len(members))
		for i, m := range members {
			index[m] = i
		}
		next.assign = new([vswitch.NumStateBuckets]int)
		for b := range next.assign {
			if i, stays := index[cur.members[cur.owner(b)]]; stays {
				next.assign[b] = i
			} else {
				next.assign[b] = -1
			}
		}
		rebalanceAssign(next.assign, len(members))
	}
	moves := make(bucketMoves)
	for b := range vswitch.NumStateBuckets {
		if from := cur.members[cur.owner(b)]; from != members[next.owner(b)] {
			if moves[from] == nil {
				moves[from] = make(map[int]bool)
			}
			moves[from][b] = true
		}
	}
	return next.assign, moves
}

// migrate exports the state of the moving buckets from each donor and
// imports it into the buckets' owners under assign. Stateless processors
// are skipped. A stopped donor's processor still holds its flow tables in
// memory (Runtime.Stop only parks the execution environment), so a crashed
// instance's state is salvaged, not lost. Imports overwrite, so running
// this again as a catch-up pass after the steering swap is idempotent.
// Returns the number of flow-state entries moved. Callers hold o.mu.
func (o *Orchestrator) migrate(graphID, nfID string, moves bucketMoves, set *nfSet) int {
	moved := 0
	for donor, buckets := range moves {
		src, ok := statefulNF(donor)
		if !ok {
			continue
		}
		byOwner := make(map[*nfAttachment][]nf.FlowState)
		for _, st := range src.ExportFlowState(nf.BucketFilter(buckets)) {
			owner := set.members[set.owner(st.Tuple.Bucket())]
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

// swap is one NF's member change between the commit that repoints its
// steering and the end of its drain (steps 5-7 of execute).
type swap struct {
	nfID  string
	set   *nfSet
	prev  []*nfAttachment // the members before the swap
	out   []*nfAttachment // the outgoing members
	moves bucketMoves
	moved int
	seen  nf.Stats
}

func (s *swap) migrate(o *Orchestrator, graphID string) int {
	return o.migrate(graphID, s.nfID, s.moves, s.set)
}

// beginSwap moves the set to next and migrates the state of the buckets
// that change owner; the members leaving become next's draining. The caller
// commits the steering; if that fails it restores the set.
func (o *Orchestrator) beginSwap(d *DeployedGraph, nfID string, set *nfSet, next nfSet) *swap {
	for _, att := range set.members {
		if !slices.Contains(next.members, att) {
			next.draining = append(next.draining, att)
		}
	}
	var moves bucketMoves
	next.assign, moves = reassign(set, next.members)
	sw := &swap{nfID: nfID, set: set, prev: set.members, out: next.draining, moves: moves}
	*set = next
	sw.moved = sw.migrate(o, d.Graph.ID)
	return sw
}

// finishSwaps ends the swaps whose steering one commit has just repointed:
// a catch-up migration of what raced the commit into a donor, then the
// outgoing members of every swap drain together, a final catch-up unless no
// previous member saw a packet since the first, the migrated state is
// released from donors that stay, one more commit drops the drain path, and
// the outgoing members are detached.
func (o *Orchestrator) finishSwaps(d *DeployedGraph, swaps []*swap) {
	graphID := d.Graph.ID
	start := time.Now()
	var out []*nfAttachment
	for _, sw := range swaps {
		sw.seen = traffic(sw.prev) // sampled before the catch-up reads them
		sw.moved += sw.migrate(o, graphID)
		for _, att := range sw.set.members {
			o.setState(graphID, sw.nfID, att, StateRunning) // a promoted standby idled in attaching
		}
		for _, att := range sw.out {
			o.setState(graphID, sw.nfID, att, StateDraining)
		}
		out = append(out, sw.out...)
	}
	if len(out) > 0 {
		o.drain(out)
		for _, sw := range swaps {
			// A packet delivered to a donor just before the swap may have
			// minted state while we were waiting — unless no previous
			// member saw a packet since before the catch-up.
			if traffic(sw.prev) != sw.seen {
				sw.moved += sw.migrate(o, graphID)
			}
			sw.set.draining = nil
		}
		if err := o.program(d); err != nil {
			// The members' steering is intact (same entries minus the
			// drain path); record and continue the teardown.
			o.journal.Recordf(telemetry.EventFlowMod, o.cfg.NodeName, graphID,
				fmt.Sprintf("dropping drain entries: %v", err))
		}
	}
	for _, sw := range swaps {
		for donor, buckets := range sw.moves {
			dropper, ok := donor.inst.Runtime.Processor().(flowStateDropper)
			if ok && slices.Contains(sw.set.members, donor) {
				dropper.DropFlowState(nf.BucketFilter(buckets))
			}
		}
		for _, att := range sw.out {
			o.detachNF(d, sw.nfID, att)
		}
		o.metrics.migratedFlows.Add(uint64(sw.moved))
		o.metrics.migrationLatency.Observe(time.Since(start).Seconds())
	}
}
