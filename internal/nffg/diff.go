package nffg

import (
	"maps"
	"slices"
)

// Diff captures the difference between two versions of one graph, driving
// in-place updates: the orchestrator applies a diff without disturbing the
// unchanged parts of a running service.
type Diff struct {
	AddedNFs     []NF
	RemovedNFs   []NF
	ChangedNFs   []NF // same id, different ports/technology/config
	AddedEPs     []Endpoint
	RemovedEPs   []Endpoint
	AddedRules   []FlowRule
	RemovedRules []FlowRule
}

// Empty reports whether the diff contains no changes.
func (d *Diff) Empty() bool {
	return len(d.AddedNFs) == 0 && len(d.RemovedNFs) == 0 && len(d.ChangedNFs) == 0 &&
		len(d.AddedEPs) == 0 && len(d.RemovedEPs) == 0 &&
		len(d.AddedRules) == 0 && len(d.RemovedRules) == 0
}

// Compute returns the changes needed to go from old to new. NFs and rules
// are compared field by field (a nil and an empty Config, Ports or Actions are
// equal): a modified rule appears as removed+added.
func Compute(old, new *Graph) *Diff {
	d := &Diff{}

	oldNFs := make(map[string]NF, len(old.NFs))
	for _, nf := range old.NFs {
		oldNFs[nf.ID] = nf
	}
	for _, nf := range new.NFs {
		prev, ok := oldNFs[nf.ID]
		switch {
		case !ok:
			d.AddedNFs = append(d.AddedNFs, nf)
		case !EqualNF(prev, nf):
			d.ChangedNFs = append(d.ChangedNFs, nf)
		}
		delete(oldNFs, nf.ID)
	}
	for _, nf := range old.NFs {
		if _, stillThere := oldNFs[nf.ID]; stillThere {
			d.RemovedNFs = append(d.RemovedNFs, nf)
		}
	}

	oldEPs := make(map[string]Endpoint, len(old.Endpoints))
	for _, ep := range old.Endpoints {
		oldEPs[ep.ID] = ep
	}
	for _, ep := range new.Endpoints {
		prev, ok := oldEPs[ep.ID]
		if !ok || prev != ep {
			d.AddedEPs = append(d.AddedEPs, ep)
			if ok {
				d.RemovedEPs = append(d.RemovedEPs, prev)
			}
		}
		delete(oldEPs, ep.ID)
	}
	for _, ep := range old.Endpoints {
		if _, stillThere := oldEPs[ep.ID]; stillThere {
			d.RemovedEPs = append(d.RemovedEPs, ep)
		}
	}

	oldRules := make(map[string]FlowRule, len(old.Rules))
	for _, r := range old.Rules {
		oldRules[r.ID] = r
	}
	for _, r := range new.Rules {
		prev, ok := oldRules[r.ID]
		if !ok {
			d.AddedRules = append(d.AddedRules, r)
		} else if !ruleEqual(prev, r) {
			d.RemovedRules = append(d.RemovedRules, prev)
			d.AddedRules = append(d.AddedRules, r)
		}
		delete(oldRules, r.ID)
	}
	for _, r := range old.Rules {
		if _, stillThere := oldRules[r.ID]; stillThere {
			d.RemovedRules = append(d.RemovedRules, r)
		}
	}
	return d
}

// Equal reports whether Compute(a, b) would be empty, without building the
// diff: the same NFs, endpoints and rules by id, in any order, each equal
// field by field. Ids must be unique within each section, as Validate
// requires.
func Equal(a, b *Graph) bool {
	return sameByID(a.NFs, b.NFs, func(n NF) string { return n.ID }, EqualNF) &&
		sameByID(a.Endpoints, b.Endpoints, func(ep Endpoint) string { return ep.ID }, func(x, y Endpoint) bool { return x == y }) &&
		sameByID(a.Rules, b.Rules, func(r FlowRule) string { return r.ID }, ruleEqual)
}

// sameByID reports whether a and b hold equal elements under the same ids: it
// pairs them by position while their ids agree and searches a otherwise.
func sameByID[T any](a, b []T, id func(T) string, eq func(x, y T) bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i, y := range b {
		x := a[i]
		if id(x) != id(y) {
			k := slices.IndexFunc(a, func(x T) bool { return id(x) == id(y) })
			if k < 0 {
				return false
			}
			x = a[k]
		}
		if !eq(x, y) {
			return false
		}
	}
	return true
}

// EqualNF reports whether two NFs are equal field by field (a nil and an
// empty Config or Ports are equal).
func EqualNF(a, b NF) bool {
	return a.ID == b.ID && a.Name == b.Name && slices.Equal(a.Ports, b.Ports) &&
		a.TechnologyPreference == b.TechnologyPreference && maps.Equal(a.Config, b.Config) &&
		a.Replicas == b.Replicas && a.Availability == b.Availability &&
		a.Redundancy == b.Redundancy && a.AntiAffinity == b.AntiAffinity
}

func ruleEqual(a, b FlowRule) bool {
	return a.ID == b.ID && a.Priority == b.Priority && a.Match == b.Match && slices.Equal(a.Actions, b.Actions)
}
