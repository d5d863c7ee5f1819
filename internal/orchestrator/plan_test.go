package orchestrator

import (
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/nffg"
	"repro/internal/vswitch"
)

// leaveFree charges the node's ledger so that exactly cpu millicores stay
// free.
func leaveFree(t *testing.T, o *Orchestrator, cpu int) {
	t.Helper()
	used, total, _, _ := o.Usage()
	if err := o.cfg.Resources.Allocate("filler", total-used-cpu, 0); err != nil {
		t.Fatal(err)
	}
}

// TestDryRunKeepsRunningTechnology: a dry-run of a running graph plans its
// NFs in the technology they run in. At the parent commit the dry-run of an
// unchanged graph with a pinned native ipsec answered "no deployable flavor
// for NF vpn" (the graph's own instance held the exclusive NNF), and with
// technology "any" it answered docker while the NF ran natively.
func TestDryRunKeepsRunningTechnology(t *testing.T) {
	o := newNode(t)
	for _, tech := range []nffg.Technology{nffg.TechNative, nffg.TechAny} {
		g := ipsecGraph("g", tech)
		if err := o.Deploy(g); err != nil {
			t.Fatal(err)
		}
		plan, err := o.Plan(g)
		if err != nil {
			t.Fatalf("%s: dry-run of the running graph: %v", tech, err)
		}
		if nf := plan.NFs[0]; nf.Technology != nffg.TechNative || plan.NewCPUMillis != 0 || !plan.Fits {
			t.Errorf("%s: dry-run plans %+v, new %dm, fits %v; want native, 0, true", tech, nf, plan.NewCPUMillis, plan.Fits)
		}
		if err := o.Update(g); err != nil {
			t.Fatal(err)
		}
		if err := o.Undeploy("g"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDryRunCountsStandby: the standby's demand is counted, and the dry-run
// refuses exactly what the deploy refuses. At the parent commit an
// active-standby docker firewall with 400m free planned 250m and fitted;
// the deploy then failed with "cpu exhausted: want 250m, free 150m".
func TestDryRunCountsStandby(t *testing.T) {
	for _, free := range []int{400, 500} {
		o := newNode(t)
		leaveFree(t, o, free)
		g := firewallGraph("g", 100, "")
		g.NFs[0].TechnologyPreference = nffg.TechDocker
		g.NFs[0].Redundancy = nffg.RedundancyActiveStandby
		plan, err := o.Plan(g)
		if err != nil {
			t.Fatal(err)
		}
		if plan.NewCPUMillis != 500 {
			t.Errorf("%dm free: plan charges %dm, want 500m (member and standby)", free, plan.NewCPUMillis)
		}
		used, _, _, _ := o.Usage()
		err = o.Deploy(g)
		if plan.Fits != (err == nil) {
			t.Errorf("%dm free: dry-run fits %v, deploy error %v", free, plan.Fits, err)
		}
		if after, _, _, _ := o.Usage(); err != nil && after != used {
			t.Errorf("%dm free: refused deploy left %dm charged, want %dm", free, after, used)
		}
	}
}

// TestDryRunJoinChargesNothing: a tenant joining a running shared native
// firewall charges the ledger nothing, so the dry-run admits it on a node
// with less free CPU than a fresh instance needs. At the parent commit the
// dry-run answered fits false, new 100, free 50, and the deploy succeeded.
func TestDryRunJoinChargesNothing(t *testing.T) {
	o := newNode(t)
	if err := o.Deploy(firewallGraph("g1", 100, "")); err != nil {
		t.Fatal(err)
	}
	leaveFree(t, o, 50)
	g2 := firewallGraph("g2", 200, "")
	plan, err := o.Plan(g2)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NewCPUMillis != 0 || plan.NewRAMBytes != 0 || !plan.Fits {
		t.Errorf("join planned %dm / %d B, fits %v; want 0, 0, true", plan.NewCPUMillis, plan.NewRAMBytes, plan.Fits)
	}
	if err := o.Deploy(g2); err != nil {
		t.Fatalf("deploy of the join the dry-run admitted: %v", err)
	}
}

// TestFailedUpdateIsUndoneWhole: an update that fails on its second new
// endpoint leaves the node exactly as before: both switches' tables, the
// graph's endpoints, the ledger and the VLAN slot its first new endpoint
// took. At the parent commit that endpoint stayed attached (three entries
// in d.eps for a two-endpoint spec, a leaked LSI-0 port) and another graph
// was then refused VLAN 300 on eth0.
func TestFailedUpdateIsUndoneWhole(t *testing.T) {
	o := newNode(t)
	g := natGraph("g", 1)
	if err := o.Deploy(g); err != nil {
		t.Fatal(err)
	}
	d, _ := o.Graph("g")
	state := func() string {
		o.mu.Lock()
		defer o.mu.Unlock()
		used, _, ram, _ := o.Usage()
		return fmt.Sprintf("LSI-0:\n%sgraph LSI:\n%seps %d, ledger %dm %d B, LSI-0 ports %v, VLAN slots %v",
			flowDump(o.LSI0()), flowDump(d.LSI()), len(d.eps), used, ram, o.LSI0().Ports(), o.vlanEPs)
	}
	before := state()
	bad := g.Clone()
	bad.Endpoints = append(bad.Endpoints,
		nffg.Endpoint{ID: "mgmt", Type: nffg.EPVLAN, Interface: "eth0", VLANID: 300},
		nffg.Endpoint{ID: "oob", Type: nffg.EPInterface, Interface: "eth9"})
	if err := o.Update(bad); err == nil {
		t.Fatal("update naming a missing interface succeeded")
	}
	if after := state(); after != before {
		t.Errorf("failed update changed the node:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	if err := o.Deploy(vlanGraph("g2", 300)); err != nil {
		t.Errorf("VLAN 300 still held after the failed update: %v", err)
	}
}

// propertyTemplates are the repository templates the property test draws
// NFs from, with a configuration each runs with.
var propertyTemplates = []struct {
	name string
	cfg  map[string]string
}{
	{"ipsec", ipsecConfig()},
	{"firewall", map[string]string{"rules": "drop proto=udp dport=53"}},
	{"nat", map[string]string{"external_ip": natExternalIP}},
	{"monitor", nil},
	{"shaper", map[string]string{"rate_mbps": "100"}},
	{"bridge", nil},
}

// chainOf builds graph id as a chain in -> nfs... -> out. An NF's id is its
// template's name, so a template names the same NF in every version.
func chainOf(id string, nfs []nffg.NF, in, out nffg.Endpoint) *nffg.Graph {
	g := &nffg.Graph{ID: id, NFs: nfs, Endpoints: []nffg.Endpoint{in, out}}
	rule := func(from, to nffg.PortRef) {
		g.Rules = append(g.Rules, nffg.FlowRule{ID: fmt.Sprintf("r%d", len(g.Rules)), Priority: 10,
			Match:   nffg.RuleMatch{PortIn: from},
			Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: to}}})
	}
	prev, back := nffg.EndpointRef(in.ID), nffg.EndpointRef(in.ID)
	for _, n := range nfs {
		rule(prev, nffg.NFPortRef(n.ID, "0"))
		rule(nffg.NFPortRef(n.ID, "0"), back)
		prev, back = nffg.NFPortRef(n.ID, "1"), nffg.NFPortRef(n.ID, "1")
	}
	rule(prev, nffg.EndpointRef(out.ID))
	rule(nffg.EndpointRef(out.ID), back)
	return g
}

// drawGraph draws one version of graph "g": one to three NFs from distinct
// templates, technology any, one to three replicas or an active standby,
// and interface or VLAN endpoints.
func drawGraph(r *rand.Rand) *nffg.Graph {
	var nfs []nffg.NF
	for _, i := range r.Perm(len(propertyTemplates))[:1+r.Intn(3)] {
		tpl := propertyTemplates[i]
		n := nffg.NF{ID: tpl.name, Name: tpl.name, Ports: []nffg.NFPort{{ID: "0"}, {ID: "1"}},
			TechnologyPreference: nffg.TechAny, Config: tpl.cfg, Replicas: 1 + r.Intn(3)}
		if r.Intn(4) == 0 {
			n.Replicas, n.Redundancy = 1, nffg.RedundancyActiveStandby
		}
		nfs = append(nfs, n)
	}
	ep := func(id, iface string) nffg.Endpoint {
		if r.Intn(3) == 0 {
			return nffg.Endpoint{ID: id, Type: nffg.EPVLAN, Interface: iface, VLANID: uint16(300 + r.Intn(2))}
		}
		return nffg.Endpoint{ID: id, Type: nffg.EPInterface, Interface: iface}
	}
	return chainOf("g", nfs, ep("in", "eth0"), ep("out", "eth1"))
}

// pinnedTo returns a copy of b whose NFs that run already (techs) are
// pinned to the technology their members run in, as an update keeps them.
// A native NF with a standby is left to the policy instead: pinned, its
// standby would have nowhere to go, and the policy puts its one member
// native again.
func pinnedTo(b *nffg.Graph, techs map[string]nffg.Technology) *nffg.Graph {
	out := b.Clone()
	for i, n := range out.NFs {
		tech, ok := techs[n.ID]
		if ok && !(tech == nffg.TechNative && n.Redundancy == nffg.RedundancyActiveStandby) {
			out.NFs[i].TechnologyPreference = tech
		}
	}
	return out
}

// nodeShape renders what one graph holds on a node, ports named by what
// they attach: per NF its members' technologies and its standby's, and the
// normalised entries of the graph LSI and LSI-0.
func nodeShape(o *Orchestrator, graphID string) string {
	o.mu.Lock()
	defer o.mu.Unlock()
	d, ok := o.graphs[graphID]
	if !ok {
		return "absent"
	}
	var b strings.Builder
	for _, n := range d.Graph.NFs {
		set := d.nfs[n.ID]
		fmt.Fprintf(&b, "%s:", n.ID)
		for _, m := range set.members {
			fmt.Fprintf(&b, " %s", m.inst.Technology)
		}
		if set.standby != nil {
			fmt.Fprintf(&b, " standby %s", set.standby.inst.Technology)
		}
		b.WriteByte('\n')
	}
	b.WriteString(entries(d.lsi.sw))
	b.WriteString(entries(o.lsi0.sw))
	return b.String()
}

// residue renders what a node holds outside its graph LSIs: ledger usage,
// LSI-0's ports, the number it hands out next and its entries (the shared
// native NFs' marks among them), VLAN slots, internal groups and shared
// native ports.
func residue(o *Orchestrator) string {
	o.mu.Lock()
	defer o.mu.Unlock()
	used, _, ram, _ := o.Usage()
	var b strings.Builder
	fmt.Fprintf(&b, "ledger %dm %d B\nLSI-0 ports:", used, ram)
	for _, num := range o.lsi0.sw.Ports() {
		fmt.Fprintf(&b, " %d=%s", num, o.lsi0.sw.Port(num).Name())
	}
	next := o.lsi0.top + 1
	if len(o.lsi0.free) > 0 {
		next = o.lsi0.free[0]
	}
	fmt.Fprintf(&b, "; held %v, next %d\n%sVLAN slots %v\ngroups %v\nNNF ports %v\n",
		o.lsi0.held, next, flowDump(o.lsi0.sw), o.vlanEPs, o.internalGroups, o.nnfPorts)
	return b.String()
}

var instanceNumber = regexp.MustCompile(`#\d+|-\d+/`)

// entries renders a switch's entries, sorted, with every port named by the
// netdev attached under it and instance numbers dropped.
func entries(sw *vswitch.Switch) string {
	label := func(num uint32) string {
		if p := sw.Port(num); p != nil {
			return instanceNumber.ReplaceAllString(p.Name(), "#")
		}
		return fmt.Sprintf("detached(%d)", num)
	}
	inPort := regexp.MustCompile(`in_port=(\d+)`)
	var lines []string
	for _, e := range sw.Flows() {
		match := inPort.ReplaceAllStringFunc(e.Match.String(), func(s string) string {
			var n uint32
			fmt.Sscanf(s, "in_port=%d", &n)
			return "in_port=" + label(n)
		})
		var acts []string
		for _, a := range e.Actions {
			switch a := a.(type) {
			case vswitch.OutputAction:
				acts = append(acts, "output:"+label(a.Port))
			case vswitch.SelectBucketAction:
				counts := map[string]int{}
				for _, p := range a.Ports {
					counts[label(p)]++
				}
				acts = append(acts, fmt.Sprintf("select:%v", counts))
			default:
				acts = append(acts, a.String())
			}
		}
		lines = append(lines, fmt.Sprintf("  %d %s -> %s\n", e.Priority, match, strings.Join(acts, ",")))
	}
	slices.Sort(lines)
	return strings.Join(lines, "")
}

// planCase is one pair of graph versions and the node they meet: a resident
// tenant of the shared native firewall, or not, and the free CPU of the
// node the dry-run is checked on.
type planCase struct {
	name     string
	a, b     *nffg.Graph
	resident bool
	free     int
}

// TestUpdateEqualsRedeploy is the node transition's property test. For
// seeded pairs of graph versions (A, B) drawn from the repository's
// templates it checks that
//   - Update(A -> B) ends where Undeploy(A); Deploy(B) does — the same
//     technology, member count and standby per NF, the same graph-LSI and
//     LSI-0 entries — once B pins the NFs A runs to the technology they run
//     in, as an update keeps them; or both refuse, and a refused update
//     leaves the node as it was;
//   - Undeploy, the plan to an empty graph, then leaves the updated node
//     as a fresh one with the same resident: the same ledger usage, LSI-0
//     entries and port numbering, VLAN slots, internal groups and shared
//     native ports and marks;
//   - Plan(B)'s verdict is the update's outcome, and, on a node with a
//     random amount of CPU free, the deploy's outcome; an admitted deploy
//     charges exactly the plan's demand.
//
// The dry-run repros of the parent commit are fixed cases.
func TestUpdateEqualsRedeploy(t *testing.T) {
	one := func(name string, tech nffg.Technology, standby bool, cfg map[string]string) *nffg.Graph {
		n := nffg.NF{ID: name, Name: name, Ports: []nffg.NFPort{{ID: "0"}, {ID: "1"}}, TechnologyPreference: tech, Config: cfg}
		if standby {
			n.Redundancy = nffg.RedundancyActiveStandby
		}
		return chainOf("g", []nffg.NF{n},
			nffg.Endpoint{ID: "in", Type: nffg.EPInterface, Interface: "eth0"},
			nffg.Endpoint{ID: "out", Type: nffg.EPInterface, Interface: "eth1"})
	}
	nat := map[string]string{"external_ip": natExternalIP}
	cases := []planCase{
		{name: "running native ipsec", a: one("ipsec", nffg.TechAny, false, ipsecConfig()),
			b: one("ipsec", nffg.TechAny, false, ipsecConfig()), free: 16000},
		{name: "standby demand", a: one("monitor", nffg.TechAny, false, nil),
			b: one("nat", nffg.TechAny, true, nat), free: 200},
		{name: "shared firewall join", a: one("monitor", nffg.TechAny, false, nil),
			b: one("firewall", nffg.TechAny, false, nil), resident: true, free: 50},
	}
	const seeds = 200
	for seed := int64(1); seed <= seeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		cases = append(cases, planCase{name: fmt.Sprintf("seed %d", seed), a: drawGraph(r), b: drawGraph(r),
			resident: r.Intn(3) == 0, free: r.Intn(2500)})
	}
	compared := 0
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if checkPair(t, c) {
				compared++
			}
		})
	}
	if compared < seeds/2 {
		t.Errorf("only %d of %d pairs updated: the draw exercises too little", compared, len(cases))
	}
	t.Logf("%d pairs, %d updated and compared", len(cases), compared)
}

// checkPair runs one case of TestUpdateEqualsRedeploy and reports whether
// the update ran and was compared.
func checkPair(t *testing.T, c planCase) bool {
	compared := false
	{
		node := func() *Orchestrator {
			o := newNode(t)
			if c.resident {
				if err := o.Deploy(firewallGraph("resident", 200, "")); err != nil {
					t.Fatal(err)
				}
			}
			return o
		}
		updated, redeployed, dry := node(), node(), node()
		if err := updated.Deploy(c.a); err != nil {
			return false // A itself is refused: nothing to update from
		}
		if err := redeployed.Deploy(c.a); err != nil {
			t.Fatalf("%s: A deployed on one node only: %v", c.name, err)
		}
		running := map[string]nffg.Technology{}
		for id, inst := range mustGraph(t, updated, "g").Instances() {
			running[id] = inst.Technology
		}

		plan, perr := updated.Plan(c.b)
		before := nodeShape(updated, "g")
		uerr := updated.Update(c.b)
		if admitted := perr == nil && plan.Fits; admitted != (uerr == nil) {
			t.Errorf("%s: dry-run admits the update %v (%v), update error %v", c.name, admitted, perr, uerr)
		}
		if uerr != nil {
			if after := nodeShape(updated, "g"); after != before {
				t.Errorf("%s: refused update (%v) changed the node:\nbefore:\n%s\nafter:\n%s", c.name, uerr, before, after)
			}
		}
		if err := redeployed.Undeploy("g"); err != nil {
			t.Fatal(err)
		}
		derr := redeployed.Deploy(pinnedTo(c.b, running))
		switch {
		case (uerr == nil) != (derr == nil):
			t.Errorf("%s: update error %v, redeploy error %v", c.name, uerr, derr)
		case uerr == nil:
			compared = true
			if u, r := nodeShape(updated, "g"), nodeShape(redeployed, "g"); u != r {
				t.Errorf("%s: update and redeploy differ:\nupdate:\n%s\nredeploy:\n%s", c.name, u, r)
			}
			if err := updated.Undeploy("g"); err != nil {
				t.Fatal(err)
			}
			if u, f := residue(updated), residue(node()); u != f {
				t.Errorf("%s: undeploy left the node unlike a fresh one:\nundeployed:\n%s\nfresh:\n%s", c.name, u, f)
			}
		}

		leaveFree(t, dry, c.free)
		plan, perr = dry.Plan(c.b)
		used, _, ram, _ := dry.Usage()
		derr = dry.Deploy(c.b)
		if admitted := perr == nil && plan.Fits; admitted != (derr == nil) {
			t.Errorf("%s: %dm free: dry-run admits the deploy %v (%v), deploy error %v", c.name, c.free, admitted, perr, derr)
		}
		if derr == nil {
			if used2, _, ram2, _ := dry.Usage(); used2-used != plan.NewCPUMillis || ram2-ram != plan.NewRAMBytes {
				t.Errorf("%s: deploy charged %dm and %d B, plan said %dm and %d B",
					c.name, used2-used, ram2-ram, plan.NewCPUMillis, plan.NewRAMBytes)
			}
		}
	}
	return compared
}

func mustGraph(t *testing.T, o *Orchestrator, id string) *DeployedGraph {
	t.Helper()
	d, ok := o.Graph(id)
	if !ok {
		t.Fatalf("graph %q not deployed", id)
	}
	return d
}
