package global

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/nffg"
)

// A graph's footprint is what it occupies on the fleet: node name -> the
// subgraph that node runs, the warm shadow included. It is the one thing a
// graph change moves, and it moves through this file only: plan says which
// node verbs turn one footprint into another, run issues one of them, execute
// applies a plan under the single failure policy, and transition wraps the
// three around the bookkeeping swap and the intent record.

// footprint returns everything the deployment holds on the fleet; a nil
// deployment holds nothing. The result is shared with the deployment and
// must not be modified.
func (d *deployment) footprint() map[string]*nffg.Graph {
	if d == nil {
		return nil
	}
	primary, sub, single := primaryOf(d)
	if d.StandbyNode == "" || !single {
		return d.Subs
	}
	return map[string]*nffg.Graph{primary: sub, d.StandbyNode: sub}
}

// holds reports whether node is part of the deployment's footprint.
func (d *deployment) holds(node string) bool {
	_, serving := d.Subs[node]
	return serving || d.StandbyNode == node
}

// verb is what a step asks of a node.
type verb uint8

const (
	verbUndeploy verb = iota
	verbUpdate
	verbDeploy
)

func (v verb) String() string {
	return [...]string{"undeploying", "updating", "deploying"}[v]
}

// step is one node RPC of a footprint change; sub is nil for an undeploy.
type step struct {
	verb verb
	node string
	sub  *nffg.Graph
}

// plan returns the steps that turn footprint have into want: vacated nodes
// first, freeing their capacity and VLAN endpoints, then an update on every
// node that keeps a piece and a deploy on every new one, in sorted node
// order. A node whose subgraph is the very same object in both is left alone.
// plan is pure: it reads the two maps and touches nothing.
func plan(have, want map[string]*nffg.Graph) []step {
	steps := make([]step, 0, len(have)+len(want))
	for _, node := range sortedKeys(have) {
		if _, stays := want[node]; !stays {
			steps = append(steps, step{verb: verbUndeploy, node: node})
		}
	}
	for _, node := range sortedKeys(want) {
		switch old, had := have[node]; {
		case !had:
			steps = append(steps, step{verb: verbDeploy, node: node, sub: want[node]})
		case old != want[node]:
			steps = append(steps, step{verb: verbUpdate, node: node, sub: want[node]})
		}
	}
	return steps
}

// run issues one step: the only place the global tier calls a node's
// deploy verbs. A node that is withdrawn or failed its last probe is not
// called. An undeploy that cannot be delivered is remembered, so the
// reconcile loop retires the leftover when the node answers again. Callers
// hold o.mu.
func (o *Orchestrator) run(id string, s step) error {
	m, registered := o.members[s.node]
	var err error
	switch {
	case !registered || !m.alive:
		err = errUnreachable
	case s.verb == verbDeploy:
		err = m.node.Deploy(s.sub)
	case s.verb == verbUpdate:
		err = m.node.Update(s.sub)
	default:
		err = m.node.Undeploy(id)
	}
	if err == nil {
		return nil
	}
	if s.verb == verbUndeploy {
		if o.pending[s.node] == nil {
			o.pending[s.node] = make(map[string]bool)
		}
		o.pending[s.node][id] = true
	}
	return &stepError{id: id, step: s, err: err}
}

var errUnreachable = errors.New("node unreachable")

// stepError is a step a node refused or could not be asked.
type stepError struct {
	id string
	step
	err error
}

func (e *stepError) Error() string {
	return fmt.Sprintf("global: %s %q on %q: %v", e.verb, e.id, e.node, e.err)
}

func (e *stepError) Unwrap() error { return e.err }

// execute applies a plan to the fleet under the one failure policy. An
// undeploy that cannot be delivered never fails the plan: run deferred it,
// and the node is reported in blocked so the stitch VLANs it may still be
// tagging stay out of the allocator. The first deploy or update that fails
// aborts the plan: the steps already taken are undone, best effort, by
// planning back to have from where the fleet now stands, and blocked then
// names the nodes that could not be put back. Callers hold o.mu.
func (o *Orchestrator) execute(id string, have map[string]*nffg.Graph, steps []step) (blocked map[string]bool, err error) {
	block := func(node string, e error) {
		if blocked == nil {
			blocked = make(map[string]bool)
		}
		blocked[node] = true
		o.cfg.Logf("%v (left to the reconcile loop)", e)
	}
	for i, s := range steps {
		failed := o.run(id, s)
		if failed == nil {
			continue
		}
		if s.verb == verbUndeploy {
			block(s.node, failed)
			continue
		}
		at := make(map[string]*nffg.Graph, len(have)+i)
		for node, sub := range have {
			at[node] = sub
		}
		for _, done := range steps[:i] {
			if done.verb != verbUndeploy {
				at[done.node] = done.sub
			} else if !blocked[done.node] {
				delete(at, done.node)
			}
		}
		blocked = nil
		for _, undo := range plan(at, have) {
			if e := o.run(id, undo); e != nil {
				block(undo.node, e)
			}
		}
		return blocked, failed
	}
	return blocked, nil
}

// transition moves graph id from its current deployment to want — nil to
// remove it, a first deployment when there is none — and is the only way a
// deployment changes: execute the planned steps, swap the bookkeeping, hand
// the stitch VLANs of whichever partition lost back to the allocator (parked
// while a blocked node may still use them) and queue the graph's intent
// record, staged once when the lock is released however many transitions the
// operation took. On error the fleet and the bookkeeping are back on the
// current deployment. Callers hold o.mu.
func (o *Orchestrator) transition(kind cluster.OpKind, id string, want *deployment) error {
	have := o.graphs[id]
	from, to := have.footprint(), want.footprint()
	blocked, err := o.execute(id, from, plan(from, to))
	repartitioned := !sameStitches(have, want)
	if err != nil {
		if repartitioned && want != nil {
			o.retireStitches(want.Stitches, blocked)
		}
		return err
	}
	if want == nil {
		delete(o.graphs, id)
	} else {
		o.graphs[id] = want
	}
	if repartitioned && have != nil {
		o.retireStitches(have.Stitches, blocked)
	}
	if _, queued := o.unrecorded[id]; !queued && o.recorder != nil {
		o.unrecorded[id] = kind
	}
	return nil
}

// sameStitches reports whether two deployments ride the same stitch set: a
// transition that does not re-partition (shadow churn, a promotion, a scale)
// carries the slice over, and there is nothing to retire.
func sameStitches(a, b *deployment) bool {
	if a == nil || b == nil || len(a.Stitches) != len(b.Stitches) {
		return false
	}
	return len(a.Stitches) == 0 || &a.Stitches[0] == &b.Stitches[0]
}
