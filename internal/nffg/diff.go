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
// equal): a modified endpoint or rule appears as removed+added.
func Compute(old, new *Graph) *Diff {
	d := &Diff{}
	diffByID(old.NFs, new.NFs, func(n NF) string { return n.ID }, EqualNF, &d.AddedNFs, &d.RemovedNFs,
		func(_, n NF) { d.ChangedNFs = append(d.ChangedNFs, n) })
	diffByID(old.Endpoints, new.Endpoints, func(ep Endpoint) string { return ep.ID }, func(a, b Endpoint) bool { return a == b },
		&d.AddedEPs, &d.RemovedEPs, func(prev, ep Endpoint) {
			d.AddedEPs, d.RemovedEPs = append(d.AddedEPs, ep), append(d.RemovedEPs, prev)
		})
	diffByID(old.Rules, new.Rules, func(r FlowRule) string { return r.ID }, EqualRule, &d.AddedRules, &d.RemovedRules,
		func(prev, r FlowRule) {
			d.AddedRules, d.RemovedRules = append(d.AddedRules, r), append(d.RemovedRules, prev)
		})
	return d
}

// diffByID walks new against old by id: what old lacks goes to added and
// what new lacks to removed, each in its own section's order, and changed
// gets each element held unequal in both, in new's order.
func diffByID[T any](old, new []T, id func(T) string, eq func(a, b T) bool, added, removed *[]T, changed func(prev, x T)) {
	byID := make(map[string]T, len(old))
	for _, x := range old {
		byID[id(x)] = x
	}
	for _, x := range new {
		prev, ok := byID[id(x)]
		switch {
		case !ok:
			*added = append(*added, x)
		case !eq(prev, x):
			changed(prev, x)
		}
		delete(byID, id(x))
	}
	for _, x := range old {
		if _, gone := byID[id(x)]; gone {
			*removed = append(*removed, x)
		}
	}
}

// Equal reports whether Compute(a, b) would be empty, without building the
// diff: the same NFs, endpoints and rules by id, in any order, each equal
// field by field. Ids must be unique within each section, as Validate
// requires.
func Equal(a, b *Graph) bool {
	return sameByID(a.NFs, b.NFs, func(n NF) string { return n.ID }, EqualNF) &&
		sameByID(a.Endpoints, b.Endpoints, func(ep Endpoint) string { return ep.ID }, func(x, y Endpoint) bool { return x == y }) &&
		sameByID(a.Rules, b.Rules, func(r FlowRule) string { return r.ID }, EqualRule)
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

// EqualRule reports whether two rules are equal field by field (a nil and
// an empty Actions are equal).
func EqualRule(a, b FlowRule) bool {
	return a.ID == b.ID && a.Priority == b.Priority && a.Match == b.Match && slices.Equal(a.Actions, b.Actions)
}
