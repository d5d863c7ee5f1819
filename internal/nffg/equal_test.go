package nffg

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// nilEmptyNF returns the NF with an empty Config or Ports as nil.
func nilEmptyNF(n NF) NF {
	if len(n.Config) == 0 {
		n.Config = nil
	}
	if len(n.Ports) == 0 {
		n.Ports = nil
	}
	return n
}

// nilEmptyRule returns the rule with empty Actions as nil.
func nilEmptyRule(r FlowRule) FlowRule {
	if len(r.Actions) == 0 {
		r.Actions = nil
	}
	return r
}

// referenceCompute is Compute as it was written with reflect.DeepEqual, run
// on NFs and rules whose empty Config, Ports and Actions are nil: the field by
// field comparison must agree with it everywhere else.
func referenceCompute(old, new *Graph) *Diff {
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
		case !reflect.DeepEqual(nilEmptyNF(prev), nilEmptyNF(nf)):
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
		} else if !reflect.DeepEqual(nilEmptyRule(prev), nilEmptyRule(r)) {
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

// randomGraph builds a graph of up to six NFs, four endpoints and eight rules
// with unique ids, drawing every field Compute compares.
func randomGraph(rng *rand.Rand) *Graph {
	g := &Graph{ID: "g", Name: "random"}
	for i := 0; i < rng.Intn(7); i++ {
		n := NF{
			ID:                   fmt.Sprintf("nf%d", i),
			Name:                 []string{"firewall", "nat", "monitor"}[rng.Intn(3)],
			TechnologyPreference: []Technology{TechAny, TechNative, TechDocker}[rng.Intn(3)],
			Replicas:             rng.Intn(3),
			Availability:         []float64{0, 0.99, 0.999}[rng.Intn(3)],
			Redundancy:           []RedundancyMode{RedundancyNone, RedundancyActiveStandby}[rng.Intn(2)],
			AntiAffinity:         []string{"", "spread"}[rng.Intn(2)],
		}
		switch rng.Intn(3) {
		case 1:
			n.Ports = []NFPort{}
		case 2:
			n.Ports = []NFPort{{ID: "0"}, {ID: "1", Name: "out"}}
		}
		switch rng.Intn(3) {
		case 1:
			n.Config = map[string]string{}
		case 2:
			n.Config = map[string]string{"rules": "drop proto=tcp dport=22", "default": "accept"}
		}
		g.NFs = append(g.NFs, n)
	}
	for i := 0; i < rng.Intn(5); i++ {
		g.Endpoints = append(g.Endpoints, Endpoint{
			ID: fmt.Sprintf("ep%d", i), Type: EPVLAN, Interface: "lan", VLANID: uint16(100 + rng.Intn(3)),
		})
	}
	for i := 0; i < rng.Intn(9); i++ {
		r := FlowRule{
			ID: fmt.Sprintf("r%d", i), Priority: rng.Intn(3),
			Match: RuleMatch{PortIn: EndpointRef(fmt.Sprintf("ep%d", rng.Intn(3))), VLANID: uint16(rng.Intn(2))},
		}
		switch rng.Intn(3) {
		case 1:
			r.Actions = []RuleAction{}
		case 2:
			r.Actions = []RuleAction{{Type: ActPushVLAN, VLANID: 7}, {Type: ActOutput, Output: NFPortRef("nf0", "0")}}
		}
		g.Rules = append(g.Rules, r)
	}
	return g
}

// mutate applies one random edit to g: most change what Compute compares,
// some only swap a nil and an empty field or reorder a section.
func mutate(rng *rand.Rand, g *Graph) {
	switch k := rng.Intn(16); {
	case k < 8 && len(g.NFs) > 0:
		n := &g.NFs[rng.Intn(len(g.NFs))]
		switch k {
		case 0:
			n.Config = map[string]string{"rules": "drop proto=udp dport=53"}
		case 1:
			if len(n.Config) == 0 {
				n.Config = map[string]string{} // nil <-> empty: equal
			}
		case 2:
			n.Ports = append(n.Ports, NFPort{ID: "9"})
		case 3:
			if len(n.Ports) == 0 {
				n.Ports = []NFPort{} // nil <-> empty: equal
			}
		case 4:
			n.TechnologyPreference = TechVM
		case 5:
			n.Replicas += 1 + rng.Intn(2)
		case 6:
			n.Availability += 0.0001
		case 7:
			n.AntiAffinity += "x"
		}
	case k == 8 && len(g.NFs) > 0:
		i := rng.Intn(len(g.NFs))
		g.NFs = append(g.NFs[:i:i], g.NFs[i+1:]...)
	case k == 9:
		g.NFs = append(g.NFs, NF{ID: "added", Name: "monitor"})
	case k == 10 && len(g.Endpoints) > 0:
		g.Endpoints[rng.Intn(len(g.Endpoints))].VLANID++
	case k == 11 && len(g.Rules) > 0:
		r := &g.Rules[rng.Intn(len(g.Rules))]
		if len(r.Actions) == 0 && rng.Intn(2) == 0 {
			r.Actions = []RuleAction{} // nil <-> empty: equal
		} else {
			r.Actions = append(r.Actions, RuleAction{Type: ActPopVLAN})
		}
	case k == 12 && len(g.Rules) > 0:
		g.Rules[rng.Intn(len(g.Rules))].Match.IPProto = 6
	case k == 13 && len(g.Rules) > 0:
		i := rng.Intn(len(g.Rules))
		g.Rules = append(g.Rules[:i:i], g.Rules[i+1:]...)
	default:
		rng.Shuffle(len(g.NFs), func(i, j int) { g.NFs[i], g.NFs[j] = g.NFs[j], g.NFs[i] })
		rng.Shuffle(len(g.Endpoints), func(i, j int) { g.Endpoints[i], g.Endpoints[j] = g.Endpoints[j], g.Endpoints[i] })
		rng.Shuffle(len(g.Rules), func(i, j int) { g.Rules[i], g.Rules[j] = g.Rules[j], g.Rules[i] })
	}
}

// Equal answers what Compute's Empty does, and Compute finds what the
// reflect.DeepEqual reference finds, over seeded random pairs of graphs, a
// clone and zero to three edits apart.
func TestEqualMatchesCompute(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	equal := 0
	for i := 0; i < 5000; i++ {
		a := randomGraph(rng)
		b := a.Clone()
		for e := rng.Intn(4); e > 0; e-- {
			mutate(rng, b)
		}
		d := Compute(a, b)
		if Equal(a, b) != d.Empty() {
			t.Fatalf("pair %d: Equal = %v, Compute empty = %v\n a %+v\n b %+v", i, Equal(a, b), d.Empty(), a, b)
		}
		if ref := referenceCompute(a, b); !reflect.DeepEqual(d, ref) {
			t.Fatalf("pair %d: Compute = %+v, reference = %+v\n a %+v\n b %+v", i, d, ref, a, b)
		}
		if d.Empty() {
			equal++
		}
	}
	if equal < 500 || equal > 4500 {
		t.Fatalf("%d of 5000 pairs equal: the generator does not exercise both answers", equal)
	}
}

// A nil and an empty Config, Ports or Actions compare equal.
func TestEqualNilIsEmpty(t *testing.T) {
	a := &Graph{
		NFs:   []NF{{ID: "nf", Name: "firewall"}},
		Rules: []FlowRule{{ID: "r", Match: RuleMatch{PortIn: EndpointRef("lan")}}},
	}
	b := &Graph{
		NFs:   []NF{{ID: "nf", Name: "firewall", Config: map[string]string{}, Ports: []NFPort{}}},
		Rules: []FlowRule{{ID: "r", Match: RuleMatch{PortIn: EndpointRef("lan")}, Actions: []RuleAction{}}},
	}
	if !Equal(a, b) || !Compute(a, b).Empty() {
		t.Fatalf("nil and empty fields differ: Equal %v, Compute %+v", Equal(a, b), Compute(a, b))
	}
}

// EqualNF and EqualRule name every field of NF and FlowRule: a new field
// must be compared there too.
func TestEqualComparesEveryField(t *testing.T) {
	if n := reflect.TypeOf(NF{}).NumField(); n != 9 {
		t.Errorf("NF has %d fields, EqualNF compares 9", n)
	}
	if n := reflect.TypeOf(FlowRule{}).NumField(); n != 4 {
		t.Errorf("FlowRule has %d fields, EqualRule compares 4", n)
	}
}
